"""Evaluation metrics: marginal coverage, cluster-conditional coverage
deviation, and the k-means clustering that defines the clusters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng


# Lloyd iterations per attempt, the smallest cluster as a fraction of
# the rows, and the attempts allowed before kmeans gives up.
MAX_ITERS = 100
MIN_FRACTION = 0.2
RESTARTS = 50


class ConstraintUnsatisfiedError(RuntimeError):
    """K-means restarts exhausted without meeting the cluster-size floor."""


@dataclass
class ClusterAssignment:
    centroids: np.ndarray
    labels: np.ndarray

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def _kmeans_once(x: np.ndarray, k: int, rng: Rng):
    n = x.shape[0]
    # Seeding: spread initial centroids with distance-weighted sampling.
    centroids = [x[int(rng.integers(0, n))]]
    for _ in range(k - 1):
        dist_sq = np.min(
            ((x[:, None, :] - np.asarray(centroids)[None, :, :]) ** 2).sum(axis=2),
            axis=1,
        )
        threshold = rng.uniform(0.0, dist_sq.sum())
        centroids.append(x[int(np.searchsorted(np.cumsum(dist_sq), threshold))])
    centroids = np.asarray(centroids, dtype=float)

    labels = np.zeros(n, dtype=int)
    for _ in range(MAX_ITERS):
        dist_sq = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        # Empty clusters collapse away (duplicate-heavy data cannot fill k).
        live, new_labels = np.unique(dist_sq.argmin(axis=1), return_inverse=True)
        moved = not np.array_equal(new_labels, labels) or len(live) < dist_sq.shape[1]
        labels = new_labels
        centroids = np.stack([x[labels == j].mean(axis=0)
                              for j in range(len(live))])
        if not moved:
            break
    return ClusterAssignment(centroids=centroids, labels=labels)


def kmeans(x, k: int, seed: int) -> ClusterAssignment:
    """Lloyd iterations to an assignment fixpoint, restarted until every
    cluster holds at least ``MIN_FRACTION`` of the rows.

    Data with fewer than k distinct rows collapses to the feasible number
    of clusters instead of failing. Raises ConstraintUnsatisfiedError
    when ``RESTARTS`` attempts leave a cluster undersized.
    """
    n = x.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} rows, got {n}")
    distinct = np.unique(x, axis=0).shape[0]
    target_k = min(k, distinct)
    rng = Rng(seed)
    for _ in range(RESTARTS):
        attempt = _kmeans_once(x, target_k, rng)
        if attempt.k == target_k and np.all(attempt.sizes() >= MIN_FRACTION * n):
            return attempt
    raise ConstraintUnsatisfiedError(
        f"no clustering with every cluster >= {MIN_FRACTION:.0%} of rows "
        f"in {RESTARTS} restarts")


def cluster_coverages(flags: np.ndarray, labels: np.ndarray, k: int) -> list:
    out = []
    for c in range(k):
        members = labels == c
        if not members.any():
            raise ValueError(f"cluster {c} is empty")
        out.append(float(flags[members].mean()))
    return out


def delta_coverage(rule, x_rows, y_rows, clusters: ClusterAssignment,
                   alpha: float, *, flags) -> float:
    """Mean absolute deviation from 1 - alpha of the per-cluster coverage
    of ``flags``, the test rows' membership flags. ``rule``, ``x_rows``
    and ``y_rows`` are not read; callers still pass them by position."""
    per_cluster = cluster_coverages(flags, clusters.labels, clusters.k)
    return float(np.mean([abs(c - (1.0 - alpha)) for c in per_cluster]))

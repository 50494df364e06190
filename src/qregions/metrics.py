"""Evaluation metrics: cluster-conditional coverage deviation, and the
k-means clustering that defines the clusters as a label array."""

from __future__ import annotations

import numpy as np

from .numerics import Rng


# Lloyd iterations per attempt, the smallest cluster as a fraction of
# the rows, and the attempts allowed before kmeans gives up.
MAX_ITERS = 100
MIN_FRACTION = 0.2
RESTARTS = 50


class ConstraintUnsatisfiedError(RuntimeError):
    """K-means restarts exhausted without meeting the cluster-size floor."""


def _kmeans_once(x: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    n = x.shape[0]
    # Seeding: spread initial centroids with distance-weighted sampling.
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[int(rng.integers(0, n))]
    for j in range(1, k):
        dist_sq = np.min(((x[:, None, :] - centroids[None, :j, :]) ** 2).sum(axis=2), axis=1)
        threshold = rng.uniform(0.0, dist_sq.sum())
        centroids[j] = x[int(np.searchsorted(np.cumsum(dist_sq), threshold))]

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
    return labels


def kmeans(x, k: int, seed: int) -> np.ndarray:
    """Cluster labels of the rows of ``x``: Lloyd iterations to an
    assignment fixpoint, restarted until every cluster holds at least
    ``MIN_FRACTION`` of the rows. The labels are the integers 0 ... c-1,
    each in use, with c = min(k, distinct rows).

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
        labels = _kmeans_once(x, target_k, rng)
        sizes = np.bincount(labels)
        if len(sizes) == target_k and np.all(sizes >= MIN_FRACTION * n):
            return labels
    raise ConstraintUnsatisfiedError(
        f"no clustering with every cluster >= {MIN_FRACTION:.0%} of rows "
        f"in {RESTARTS} restarts")


def cluster_coverages(flags: np.ndarray, labels: np.ndarray) -> list:
    """Coverage of ``flags`` in each cluster 0 ... ``labels.max()`` of the
    label array; raises ValueError for a cluster with no rows."""
    sizes = np.bincount(labels, minlength=1)
    if not sizes.all():
        raise ValueError(f"cluster {int(np.argmin(sizes))} is empty")
    return (np.bincount(labels, weights=flags) / sizes).tolist()


def delta_coverage(rule, x_rows, y_rows, labels: np.ndarray,
                   alpha: float, *, flags) -> float:
    """Mean absolute deviation from 1 - alpha of the per-cluster coverage
    of ``flags``, the test rows' membership flags, over the clusters of
    the label array ``labels``. ``rule``, ``x_rows`` and ``y_rows`` are
    not read; callers still pass them by position."""
    per_cluster = cluster_coverages(flags, labels)
    return float(np.mean([abs(c - (1.0 - alpha)) for c in per_cluster]))

"""Evaluation metrics: marginal coverage, cluster-conditional coverage
deviation, and the k-means clustering that defines the clusters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng


class ConstraintUnsatisfiedError(RuntimeError):
    """K-means restarts exhausted without meeting the cluster-size floor.

    Carries the best attempt so callers can inspect or accept it.
    """

    def __init__(self, message: str, best_attempt):
        super().__init__(message)
        self.best_attempt = best_attempt


@dataclass
class ClusterAssignment:
    centroids: np.ndarray
    labels: np.ndarray

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


@dataclass
class EvaluationReport:
    """One method's metrics on one dataset, aggregated across seeds."""

    method: str
    coverage: float
    coverage_se: float
    area: float
    area_se: float
    delta_coverage: float | None = None
    delta_coverage_se: float | None = None
    per_cluster_coverage: list = field(default_factory=list)
    seeds: list = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must lie in [0,1], got {self.coverage}")
        if self.coverage_se < 0 or self.area_se < 0:
            raise ValueError("standard errors must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "coverage": self.coverage,
            "coverage_se": self.coverage_se,
            "area": self.area,
            "area_se": self.area_se,
            "delta_coverage": self.delta_coverage,
            "delta_coverage_se": self.delta_coverage_se,
            "per_cluster_coverage": self.per_cluster_coverage,
            "seeds": self.seeds,
        }


def _kmeans_once(x: np.ndarray, k: int, rng: Rng, max_iters: int):
    n = x.shape[0]
    # Seeding: spread initial centroids with distance-weighted sampling.
    centroids = [x[int(rng.integers(0, n))]]
    for _ in range(k - 1):
        dist_sq = np.min(
            ((x[:, None, :] - np.asarray(centroids)[None, :, :]) ** 2).sum(axis=2),
            axis=1,
        )
        total = dist_sq.sum()
        if total <= 0.0:
            centroids.append(x[int(rng.integers(0, n))])
            continue
        threshold = rng.uniform(0.0, total)
        centroids.append(x[int(np.searchsorted(np.cumsum(dist_sq), threshold))])
    centroids = np.asarray(centroids, dtype=float)

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        dist_sq = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist_sq.argmin(axis=1)
        live = np.unique(new_labels)
        # Empty clusters collapse away (duplicate-heavy data cannot fill k).
        if len(live) < centroids.shape[0]:
            remap = {old: new for new, old in enumerate(live)}
            new_labels = np.array([remap[l] for l in new_labels])
            centroids = centroids[live]
        moved = not np.array_equal(new_labels, labels) or len(live) < dist_sq.shape[1]
        labels = new_labels
        centroids = np.stack([x[labels == j].mean(axis=0)
                              for j in range(centroids.shape[0])])
        if not moved:
            break
    return ClusterAssignment(centroids=centroids, labels=labels)


def within_cluster_ss(x: np.ndarray, assignment: ClusterAssignment) -> float:
    return float(((x - assignment.centroids[assignment.labels]) ** 2).sum())


def kmeans(x, k: int = 3, seed: int = 0, max_iters: int = 100,
           min_fraction: float = 0.2, restarts: int = 50) -> ClusterAssignment:
    """Lloyd iterations to an assignment fixpoint, restarted until every
    cluster holds at least ``min_fraction`` of the rows.

    Data with fewer than k distinct rows collapses to the feasible number
    of clusters instead of failing. If the restart budget runs out, the
    attempt with the best (lowest) within-cluster sum of squares among
    those with the fewest undersized clusters is raised inside a
    ConstraintUnsatisfiedError.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} rows, got {n}")
    distinct = np.unique(x, axis=0).shape[0]
    target_k = min(k, distinct)
    rng = Rng(seed)
    best = None
    best_key = None
    for _ in range(restarts):
        attempt = _kmeans_once(x, target_k, rng, max_iters)
        sizes = attempt.sizes()
        undersized = int((sizes < min_fraction * n).sum())
        ok = attempt.k == target_k and undersized == 0
        key = (undersized, within_cluster_ss(x, attempt))
        if best is None or key < best_key:
            best, best_key = attempt, key
        if ok:
            return attempt
    raise ConstraintUnsatisfiedError(
        f"no clustering with every cluster >= {min_fraction:.0%} of rows "
        f"in {restarts} restarts", best)


def cluster_coverages(flags: np.ndarray, labels: np.ndarray, k: int) -> list:
    out = []
    for c in range(k):
        members = labels == c
        if not members.any():
            raise ValueError(f"cluster {c} is empty")
        out.append(float(flags[members].mean()))
    return out


def delta_coverage(rule, x_rows, y_rows, clusters: ClusterAssignment,
                   alpha: float, flags=None) -> float:
    """Mean absolute deviation of per-cluster coverage from 1 - alpha.

    ``flags`` defaults to ``rule.membership_rows(x_rows, y_rows)``, as
    either rule adapter of ``experiment`` answers it.
    """
    if flags is None:
        flags = rule.membership_rows(x_rows, y_rows)
    flags = np.asarray(flags, dtype=bool)
    per_cluster = cluster_coverages(flags, clusters.labels, clusters.k)
    return float(np.mean([abs(c - (1.0 - alpha)) for c in per_cluster]))

"""Axis-aligned evaluation lattices and exact point-set distance queries.

Two grid purposes exist, with different densities and boundary margins:
``REGION_DISCRETIZATION`` grids carry the discrete realization of a
quantile region, ``AREA_MEASUREMENT`` grids are the carriers on which
region size is counted and region complements are realized. Distance
queries are exact, via a k-d tree; bit-identical to the difference-based
brute force of ``bench/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import empirical_quantile

REGION_DISCRETIZATION = "region"
AREA_MEASUREMENT = "area"

# Cells per dimension. The per-dimension counts are the integer roots of
# the grid totals used throughout (10^4 / 42875 / 104976 for region
# discretization and 3025 / 103823 / 234256 for area measurement at
# d = 2 / 3 / 4); d = 1 reuses the d = 2 counts.
_CELLS_PER_DIM = {
    REGION_DISCRETIZATION: {1: 100, 2: 100, 3: 35, 4: 18},
    AREA_MEASUREMENT: {1: 55, 2: 55, 3: 47, 4: 22},
}
_MARGIN = {REGION_DISCRETIZATION: 1.0, AREA_MEASUREMENT: 0.2}


@dataclass(frozen=True)
class Grid:
    """Equally spaced lattice of cell centers over a box in R^d."""

    dim: int
    lows: tuple
    highs: tuple
    cells_per_dim: int

    def __post_init__(self):
        if len(self.lows) != self.dim or len(self.highs) != self.dim:
            raise ValueError("bounds length must match grid dimension")
        if any(lo >= hi for lo, hi in zip(self.lows, self.highs)):
            raise ValueError("grid bounds must satisfy low < high per dimension")

    def axis_centers(self, axis: int) -> np.ndarray:
        width = (self.highs[axis] - self.lows[axis]) / self.cells_per_dim
        return self.lows[axis] + width * (np.arange(self.cells_per_dim) + 0.5)

    def points(self) -> np.ndarray:
        """All cell centers, shape (cells_per_dim ** dim, dim), row-major order
        (last axis fastest)."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def build_grid(train_responses: np.ndarray, purpose: str) -> Grid:
    """Grid over as many dimensions as the training responses have columns,
    bounded per dimension by the 1%/99% empirical quantiles widened by 1.0
    (region discretization) or 0.2 (area measurement)."""
    if purpose not in _CELLS_PER_DIM:
        raise ValueError(f"unknown grid purpose {purpose!r}")
    n, dimension = train_responses.shape
    if dimension not in _CELLS_PER_DIM[purpose]:
        raise ValueError(f"unsupported grid dimension {dimension} (need 1-4)")
    if n < 2:
        raise ValueError("grid bounds need at least 2 training rows")
    margin = _MARGIN[purpose]
    k_lo = max(1, int(np.ceil(0.01 * n)))
    k_hi = max(1, int(np.ceil(0.99 * n)))
    lows, highs = [], []
    for j in range(dimension):
        col = train_responses[:, j]
        lows.append(empirical_quantile(col, k_lo) - margin)
        highs.append(empirical_quantile(col, k_hi) + margin)
    return Grid(
        dim=dimension,
        lows=tuple(lows),
        highs=tuple(highs),
        cells_per_dim=_CELLS_PER_DIM[purpose][dimension],
    )


def min_distances(points: np.ndarray, carrier: np.ndarray) -> np.ndarray:
    """Minimum Euclidean distance from each point to the carrier set: exact,
    via a k-d tree; bit-identical to the difference-based brute force of
    ``bench/oracle.py``."""
    # Imported here: scipy.spatial takes longer to import than all of qregions.
    from scipy.spatial import cKDTree

    if carrier.shape[0] == 0:
        raise ValueError("minimum distance to an empty carrier is undefined")
    if points.shape[1] != carrier.shape[1]:
        raise ValueError("queries and carrier disagree on dimension")
    return cKDTree(carrier, balanced_tree=False).query(points, k=1)[0]


def pairwise_nn_distances(points: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest *other* point in the set:
    exact, via a k-d tree; bit-identical to the difference-based brute force
    of ``bench/oracle.py``."""
    from scipy.spatial import cKDTree

    if points.shape[0] < 2:
        raise ValueError("nearest-neighbor spacing needs at least 2 points")
    return cKDTree(points, balanced_tree=False).query(points, k=2)[0][:, 1]

"""Distribution-free calibration of point-set region providers.

A region provider maps an input x to a finite point set in response
space. Calibration measures how often the provider's dilated point sets
capture held-out responses, then either grows the dilation radius or
shrinks the region via its complement until the empirical rule hits the
requested coverage. Membership afterwards is a pure distance query, so
the calibrated rule works for any provider, any dimension, and any
response distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import empirical_quantile
from .regions import Grid, min_distances, pairwise_nn_distances

GROW = "grow"
SHRINK = "shrink"


class DegenerateRegionError(ValueError):
    """Region with fewer than 2 points has no neighbor spacing."""


class DegenerateComplementError(ValueError):
    """Shrink calibration found no carrier points outside a region."""


class CalibrationSetTooSmallError(ValueError):
    """The conformity quantile index falls outside the score list."""


@dataclass
class DiscreteRegion:
    """Finite point set realizing a quantile region for one input."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim == 1:
            self.points = self.points.reshape(0, 1) if self.points.size == 0 else self.points[None, :]
        if not np.isfinite(self.points).all():
            raise ValueError("region points must be finite")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0


def conformal_rank(n2: int, alpha: float) -> int:
    """ceil((n2+1)(1-alpha)): the rank of the calibration score whose
    threshold guarantees 1 - alpha marginal coverage.

    Raises CalibrationSetTooSmallError when the rank exceeds n2.
    """
    if n2 == 0:
        raise CalibrationSetTooSmallError("calibration set is empty")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    k = int(np.ceil((n2 + 1) * (1.0 - alpha)))
    if k > n2:
        raise CalibrationSetTooSmallError(
            f"need ceil((n2+1)(1-alpha)) = {k} <= n2 = {n2}")
    return k


def _grow_carrier(region: DiscreteRegion, anchor: np.ndarray) -> np.ndarray:
    """Point set grow-mode distances are measured against: the region, or
    the anchor point when the region is empty."""
    return anchor[None, :] if region.is_empty else region.points


def gamma_init(region: DiscreteRegion) -> float:
    """Nearest-neighbor spacing threshold of a discrete region: the
    ceil(0.9 m)-th smallest distance from a region point to its closest
    other region point."""
    m = len(region)
    if m < 2:
        raise DegenerateRegionError(
            f"need at least 2 region points for a spacing threshold, got {m}")
    spacings = pairwise_nn_distances(region.points)
    return empirical_quantile(spacings, int(np.ceil(0.9 * m)))


def base_contains(region: DiscreteRegion, y, gamma: float) -> bool:
    """Whether y lies within distance gamma of the region's point set."""
    if gamma < 0:
        raise ValueError(f"dilation radius must be nonnegative, got {gamma}")
    if region.is_empty:
        return False
    return bool(min_distances(np.atleast_2d(np.asarray(y, dtype=float)),
                              region.points)[0] <= gamma)


@dataclass
class CalibratedRule:
    """Frozen output of calibration: one mode, one distance threshold.

    Grow mode covers y when its distance to the region point set is at
    most gamma_cal. Shrink mode covers y when its distance to the
    complement carrier (grid points farther than complement_threshold
    from the region) is at least gamma_cal.

    Membership is by construction the same distance rule the conformity
    scores were computed with, which is what the coverage guarantee
    needs. One consequence of the finite complement carrier: a shrink
    rule queried far outside its carrier grid reports membership
    vacuously, so shrink rules are meaningful on and near that grid.
    """

    mode: str
    gamma_cal: float
    provider: object
    alpha: float
    n2: int
    c_init: float
    gamma_init_values: np.ndarray
    region_sizes: np.ndarray
    anchor: np.ndarray
    complement_threshold: float | None = None
    complement_grid: Grid | None = None
    _complement_points: np.ndarray | None = field(default=None, repr=False)

    def region_carrier(self, x) -> np.ndarray:
        """Point set distances are measured against under Grow; empty
        regions fall back to the anchor point."""
        return _grow_carrier(self.provider(x), self.anchor)

    def complement_carrier(self, x) -> np.ndarray:
        """Grid points farther than the complement threshold from the
        region (may be empty when the region blankets the grid)."""
        region = self.provider(x)
        pts = self._complement_grid_points()
        if region.is_empty:
            return pts
        dist = min_distances(pts, region.points)
        return pts[dist > self.complement_threshold]

    def _complement_grid_points(self) -> np.ndarray:
        if self._complement_points is None:
            self._complement_points = self.complement_grid.points()
        return self._complement_points

    def membership(self, x, points) -> np.ndarray:
        """Vectorized membership of many candidate points for one input."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.mode == GROW:
            return min_distances(points, self.region_carrier(x)) <= self.gamma_cal
        complement = self.complement_carrier(x)
        if complement.shape[0] == 0:
            return np.ones(points.shape[0], dtype=bool)
        return min_distances(points, complement) >= self.gamma_cal

    def contains(self, x, y) -> bool:
        return bool(self.membership(x, np.atleast_2d(np.asarray(y, dtype=float)))[0])

    def to_report(self) -> dict:
        g = np.asarray(self.gamma_init_values, dtype=float)
        sizes = np.asarray(self.region_sizes)
        return {
            "mode": self.mode,
            "alpha": self.alpha,
            "n2": self.n2,
            "c_init": self.c_init,
            "gamma_cal": self.gamma_cal,
            "gamma_init_median": float(np.median(g)) if g.size else None,
            "gamma_init_min": float(g.min()) if g.size else None,
            "gamma_init_max": float(g.max()) if g.size else None,
            "complement_threshold": self.complement_threshold,
            "empty_regions": int((sizes == 0).sum()),
            "fallback_rows": int((sizes < 2).sum()),
            "region_size_min": int(sizes.min()) if sizes.size else None,
            "region_size_median": float(np.median(sizes)) if sizes.size else None,
            "region_size_max": int(sizes.max()) if sizes.size else None,
        }


def calibrate(provider, x_cal, y_cal, alpha: float, area_grid: Grid) -> CalibratedRule:
    """Choose grow or shrink from the providers' initial coverage on the
    calibration set and fix the distance threshold at the conformity
    quantile that guarantees 1 - alpha marginal coverage.

    Regions with fewer than 2 points have spacing threshold 0; empty
    regions cover nothing initially and score distances against the area
    grid's center, the rule's anchor.
    """
    x_cal = np.asarray(x_cal, dtype=float)
    y_cal = np.asarray(y_cal, dtype=float)
    n2 = y_cal.shape[0]
    k_grow = conformal_rank(n2, alpha)
    anchor = 0.5 * (np.asarray(area_grid.lows) + np.asarray(area_grid.highs))

    gammas = np.zeros(n2)
    sizes = np.empty(n2, dtype=int)
    covered = np.zeros(n2, dtype=bool)
    grow_scores = np.empty(n2)
    for i in range(n2):
        region = provider(x_cal[i])
        sizes[i] = len(region)
        if sizes[i] >= 2:
            gammas[i] = gamma_init(region)
        # Scored on the carrier membership measures, so the scores and
        # membership agree to the last bit.
        carrier = _grow_carrier(region, anchor)
        grow_scores[i] = float(min_distances(y_cal[i][None, :], carrier)[0])
        if not region.is_empty:
            covered[i] = grow_scores[i] <= gammas[i]
    c_init = float(covered.mean())

    if c_init <= 1.0 - alpha:
        gamma_cal = empirical_quantile(grow_scores, k_grow)
        return CalibratedRule(
            mode=GROW, gamma_cal=gamma_cal, provider=provider, alpha=alpha,
            n2=n2, c_init=c_init, gamma_init_values=gammas, region_sizes=sizes,
            anchor=anchor,
        )

    k_shrink = int(np.floor((n2 + 1) * alpha))
    if k_shrink < 1:
        raise CalibrationSetTooSmallError(
            f"need floor((n2+1) alpha) >= 1, got {k_shrink}")
    threshold = empirical_quantile(gammas, int(np.ceil(0.5 * n2)))
    rule = CalibratedRule(
        mode=SHRINK, gamma_cal=0.0, provider=provider, alpha=alpha,
        n2=n2, c_init=c_init, gamma_init_values=gammas, region_sizes=sizes,
        anchor=anchor, complement_threshold=threshold, complement_grid=area_grid,
    )
    # Score against the rule's own complement carrier, as membership does.
    shrink_scores = np.empty(n2)
    for i in range(n2):
        complement = rule.complement_carrier(x_cal[i])
        if complement.shape[0] == 0:
            raise DegenerateComplementError(
                f"region at calibration row {i} leaves no complement carrier")
        shrink_scores[i] = float(min_distances(y_cal[i][None, :], complement)[0])
    rule.gamma_cal = empirical_quantile(shrink_scores, k_shrink)
    return rule

"""Distribution-free calibration of point-set region providers.

A region provider maps an input x to a finite point set in response
space: an (m, d) array of finite points, with d the area grid's
dimension and m >= 0, so a region may be empty. Each answer is checked
against that contract, and a broken one raises ValueError before any
distance is taken from it. Calibration measures how often the
provider's dilated point sets capture held-out responses, then either
grows the dilation radius or shrinks the region via its complement
until the empirical rule hits the requested coverage. Each mode has one
conformity score, a distance that ``CalibratedRule.scores`` computes:
calibration ranks it, and membership and area compare it with the
calibrated threshold. Both modes take their rank k from
``conformal_rank``: grow mode, which covers scores at most the
threshold, keeps the k-th smallest score, and shrink mode, which covers
scores at least the threshold, the k-th largest. So the calibrated rule
works for any provider, any dimension, and any response distribution.
``calibrate`` returns the rule, which holds only what membership reads,
beside a report of the calibration's diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import empirical_quantile
from .regions import Grid, min_distances, pairwise_nn_distances

GROW = "grow"
SHRINK = "shrink"


class CalibrationSetTooSmallError(ValueError):
    """The conformity quantile index falls outside the score list."""


def conformal_rank(n2: int, alpha: float) -> int:
    """ceil((n2+1)(1-alpha)): the rank of the calibration score whose
    threshold guarantees 1 - alpha marginal coverage. Both calibration
    modes take their rank from here: grow mode the k-th smallest score,
    shrink mode the k-th largest, which is rank n2 + 1 - k.

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


def check_paired_rows(x_rows: np.ndarray, y_rows: np.ndarray) -> None:
    """Raise ValueError unless there is one input row per response row:
    scores and flags pair row i of one with row i of the other."""
    if len(x_rows) != len(y_rows):
        raise ValueError(f"{len(x_rows)} input rows against {len(y_rows)} response rows")


def _region(provider, x, dim: int) -> np.ndarray:
    """The provider's point set for x, checked: shape (m, dim), finite."""
    points = np.asarray(provider(x), dtype=float)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"region has shape {points.shape}, expected (m, {dim})")
    if not np.isfinite(points).all():
        raise ValueError("region points must be finite")
    return points


def _grow_carrier(region: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Point set grow-mode distances are measured against: the region, or
    the anchor point when the region is empty."""
    return anchor[None, :] if len(region) == 0 else region


def gamma_init(region: np.ndarray) -> float:
    """Nearest-neighbor spacing threshold of a discrete region: the
    ceil(0.9 m)-th smallest distance from a region point to its closest
    other region point; 0.0 for a region of fewer than 2 points, which
    has no spacing."""
    m = len(region)
    if m < 2:
        return 0.0
    spacings = pairwise_nn_distances(region)
    return empirical_quantile(spacings, int(np.ceil(0.9 * m)))


@dataclass(frozen=True)
class CalibratedRule:
    """Frozen output of calibration: one mode, one distance threshold.

    Grow mode covers y when its distance to the region point set is at
    most gamma_cal. Shrink mode covers y when its distance to the
    complement carrier (grid points farther than complement_threshold
    from the region) is at least gamma_cal; with no complement carrier
    that distance is +inf, so every y is covered.

    Membership compares the same score calibration ranked, which is what
    the coverage guarantee needs. One consequence of the finite
    complement carrier: a shrink rule queried far outside its carrier
    grid reports membership vacuously, so shrink rules are meaningful on
    and near that grid.
    """

    mode: str
    gamma_cal: float
    provider: object
    anchor: np.ndarray
    complement_threshold: float | None
    complement_points: np.ndarray | None

    def region_carrier(self, x) -> np.ndarray:
        """Point set distances are measured against under Grow; empty
        regions fall back to the anchor point."""
        return _grow_carrier(_region(self.provider, x, len(self.anchor)), self.anchor)

    def complement_carrier(self, x) -> np.ndarray:
        """Grid points farther than the complement threshold from the
        region (may be empty when the region blankets the grid)."""
        region = _region(self.provider, x, len(self.anchor))
        if len(region) == 0:
            return self.complement_points
        dist = min_distances(self.complement_points, region)
        return self.complement_points[dist > self.complement_threshold]

    def scores(self, x, points) -> np.ndarray:
        """Conformity score of each candidate point for one input: the
        distance to the region carrier (grow), or to the complement
        carrier, +inf when there is none (shrink)."""
        if self.mode == GROW:
            return min_distances(points, self.region_carrier(x))
        complement = self.complement_carrier(x)
        if complement.shape[0] == 0:
            return np.full(points.shape[0], np.inf)
        return min_distances(points, complement)

    def membership(self, x, points) -> np.ndarray:
        """Vectorized membership of many candidate points for one input."""
        scores = self.scores(x, points)
        if self.mode == GROW:
            return scores <= self.gamma_cal
        return scores >= self.gamma_cal


def calibrate(provider, x_cal, y_cal, alpha: float, area_grid: Grid) -> tuple:
    """Choose grow or shrink from the providers' initial coverage on the
    calibration set and fix the distance threshold at the conformity
    quantile that guarantees 1 - alpha marginal coverage.

    Regions with fewer than 2 points have spacing threshold 0; empty
    regions cover nothing initially and score distances against the area
    grid's center, the rule's anchor. In shrink mode a region that leaves
    no complement carrier scores +inf, as membership treats it.

    Returns ``(rule, report)``: the report is a JSON-ready dict of the
    mode, c_init, thresholds, spacing statistics and region-size counts.
    """
    check_paired_rows(x_cal, y_cal)
    n2 = y_cal.shape[0]
    k = conformal_rank(n2, alpha)
    anchor = 0.5 * (np.asarray(area_grid.lows) + np.asarray(area_grid.highs))

    gammas = np.empty(n2)
    sizes = np.empty(n2, dtype=int)
    grow_scores = np.empty(n2)
    for i in range(n2):
        region = _region(provider, x_cal[i], area_grid.dim)
        sizes[i] = len(region)
        gammas[i] = gamma_init(region)
        # The grow score of ``CalibratedRule.scores``, from the region
        # already in hand, so the scores and membership agree to the last bit.
        carrier = _grow_carrier(region, anchor)
        grow_scores[i] = float(min_distances(y_cal[i][None, :], carrier)[0])
    c_init = float(np.mean((sizes > 0) & (grow_scores <= gammas)))

    if c_init <= 1.0 - alpha:
        rule = CalibratedRule(mode=GROW, gamma_cal=empirical_quantile(grow_scores, k),
                              provider=provider, anchor=anchor,
                              complement_threshold=None, complement_points=None)
    else:
        # A shrink score reads the complement fields only; the threshold is
        # the score of rank n2 + 1 - k, the k-th largest.
        rule = CalibratedRule(
            mode=SHRINK, gamma_cal=np.nan, provider=provider, anchor=anchor,
            complement_threshold=empirical_quantile(gammas, int(np.ceil(0.5 * n2))),
            complement_points=area_grid.points())
        shrink_scores = np.empty(n2)
        for i in range(n2):
            shrink_scores[i] = rule.scores(x_cal[i], y_cal[i][None, :])[0]
        rule = replace(rule, gamma_cal=empirical_quantile(shrink_scores, n2 + 1 - k))
    report = {
        "mode": rule.mode,
        "alpha": alpha,
        "n2": n2,
        "c_init": c_init,
        # Infinite when too few rows leave a complement; null keeps JSON valid.
        "gamma_cal": rule.gamma_cal if np.isfinite(rule.gamma_cal) else None,
        "gamma_init_median": float(np.median(gammas)),
        "gamma_init_min": float(gammas.min()),
        "gamma_init_max": float(gammas.max()),
        "complement_threshold": rule.complement_threshold,
        "empty_regions": int((sizes == 0).sum()),
        "fallback_rows": int((sizes < 2).sum()),
        "region_size_min": int(sizes.min()),
        "region_size_median": float(np.median(sizes)),
        "region_size_max": int(sizes.max()),
    }
    return rule, report

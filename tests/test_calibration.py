import dataclasses
import json
import math

import numpy as np
import pytest

from oracles import base_contains
from qregions import calibration
from qregions.calibration import (
    GROW,
    SHRINK,
    CalibratedRule,
    CalibrationSetTooSmallError,
    calibrate,
    conformal_rank,
    gamma_init,
)
from qregions.numerics import Rng
from qregions.regions import AREA_MEASUREMENT, build_grid, min_distances


class TestGammaInit:
    def test_collinear_unit_spacing(self):
        pts = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
        assert gamma_init(pts) == pytest.approx(1.0)

    def test_unit_square_corners(self):
        pts = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
        assert gamma_init(pts) == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self):
        pts = Rng(40).uniform(-1, 1, size=(200, 2))
        # O(m^2) oracle with explicit loops.
        spacings = []
        for i in range(200):
            best = math.inf
            for j in range(200):
                if i != j:
                    best = min(best, math.dist(pts[i], pts[j]))
            spacings.append(best)
        k = math.ceil(0.9 * 200)
        oracle = sorted(spacings)[k - 1]
        assert gamma_init(pts) == pytest.approx(oracle, rel=1e-12)

    def test_degenerate_region(self):
        # Fewer than 2 points have no neighbor spacing: the threshold is 0.
        assert gamma_init(np.zeros((1, 2))) == 0.0
        assert gamma_init(np.zeros((0, 2))) == 0.0


class TestBaseContains:
    def test_three_four_five(self):
        region = np.array([(0.0, 0.0)])
        assert base_contains(region, (3.0, 4.0), 5.0)
        assert not base_contains(region, (3.0, 4.0), 4.99)

    def test_member_point_always_inside(self):
        region = np.array([(1.0, 2.0), (3.0, 4.0)])
        assert base_contains(region, (3.0, 4.0), 0.0)

    def test_empty_region_contains_nothing(self):
        empty = np.zeros((0, 2))
        assert not base_contains(empty, (0.0, 0.0), 100.0)


class TestInitialCoverage:
    def test_full_and_zero(self):
        x = np.zeros((20, 1))
        y = Rng(0).uniform(size=(20, 2))
        grid = build_grid(y, AREA_MEASUREMENT)

        def cover_all(_x):
            return y  # every response is one of the points

        def cover_none(_x):
            return np.zeros((0, 2))

        assert calibrate(cover_all, x, y, alpha=0.1, area_grid=grid)[1]["c_init"] == 1.0
        assert calibrate(cover_none, x, y, alpha=0.1, area_grid=grid)[1]["c_init"] == 0.0


def ring_provider(center_fn, radii=(0.3, 0.6), count=12):
    angles = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
    offsets = [np.zeros(2)] + [
        r * np.stack([np.cos(angles), np.sin(angles)], axis=1) for r in radii
    ]
    offsets = np.concatenate([o if o.ndim == 2 else o[None, :] for o in offsets])

    def provider(x):
        return center_fn(x) + offsets

    return provider


@pytest.fixture
def gaussian_setup():
    rng = Rng(2024)

    def draw(n):
        x = rng.uniform(0.0, 1.0, size=(n, 1))
        mu = np.stack([x[:, 0], -x[:, 0]], axis=1)
        y = mu + 0.5 * rng.standard_normal(size=(n, 2))
        return x, y

    provider = ring_provider(lambda x: np.array([x[0], -x[0]]))
    x_ref, y_ref = draw(400)
    grid = build_grid(y_ref, AREA_MEASUREMENT)
    return draw, provider, grid


def assert_report_agrees_with_rule(rule, report, provider, x, y):
    """The report carries the rule's mode and thresholds, the initial
    coverage recomputed from each region's spacing threshold, and dumps
    as strict JSON."""
    assert report["mode"] == rule.mode
    assert report["gamma_cal"] == rule.gamma_cal
    assert report["complement_threshold"] == rule.complement_threshold
    assert report["n2"] == len(y)
    hits = [base_contains(provider(x[i]), y[i], gamma_init(provider(x[i])))
            for i in range(len(y))]
    assert report["c_init"] == float(np.mean(hits))
    json.dumps(report, allow_nan=False)


class TestCalibrate:
    def test_grow_quantile_index(self, gaussian_setup):
        draw, provider, grid = gaussian_setup
        x, y = draw(99)
        rule, _ = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        assert rule.mode == GROW
        scores = np.array([
            float(min_distances(y[i][None, :], provider(x[i]))[0])
            for i in range(99)
        ])
        assert rule.gamma_cal == pytest.approx(np.sort(scores)[89])

    def test_mode_branch_is_exact(self, gaussian_setup):
        draw, provider, grid = gaussian_setup
        x, y = draw(60)
        rule, report = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        hits = [base_contains(provider(x[i]), y[i], gamma_init(provider(x[i])))
                for i in range(60)]
        c_init = float(np.mean(hits))
        assert report["c_init"] == c_init
        assert rule.mode == (GROW if c_init <= 0.9 else SHRINK)

    def test_report_agrees_with_grow_rule(self, gaussian_setup):
        draw, provider, grid = gaussian_setup
        x, y = draw(99)
        rule, report = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        assert rule.mode == GROW
        assert_report_agrees_with_rule(rule, report, provider, x, y)

    def test_too_small_calibration_set(self, gaussian_setup):
        draw, provider, grid = gaussian_setup
        x, y = draw(5)
        with pytest.raises(CalibrationSetTooSmallError):
            calibrate(provider, x, y, alpha=0.1, area_grid=grid)

    def test_calibrated_rule_is_frozen(self, gaussian_setup):
        draw, provider, grid = gaussian_setup
        x, y = draw(99)
        rule, _ = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.gamma_cal = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.provider = provider

    def test_shrink_rank_is_n2_plus_one_minus_the_grow_rank(self):
        # ceil(m - t) = m - floor(t) for integer m, so shrink mode's rank
        # n2 + 1 - k is the floor((n2+1) alpha) of the split conformal
        # literature; the float products round to the same integers here.
        for n2 in range(9, 20_001):
            assert n2 + 1 - conformal_rank(n2, 0.1) == int(np.floor((n2 + 1) * 0.1)), n2

    def test_grow_membership_monotone_in_threshold(self, gaussian_setup):
        draw, provider, grid = gaussian_setup
        x, y = draw(99)
        rule, _ = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        pts = grid.points()
        inner = rule.membership(x[0], pts)
        wider = dataclasses.replace(
            rule, mode=GROW, gamma_cal=rule.gamma_cal * 2).membership(x[0], pts)
        assert np.all(wider[inner])

    def test_grow_gamma_zero_reduces_to_point_membership(self, gaussian_setup):
        draw, provider, grid = gaussian_setup
        x, _ = draw(1)
        region = provider(x[0])
        rule = CalibratedRule(
            mode=GROW, gamma_cal=0.0, provider=provider, anchor=np.zeros(2),
            complement_threshold=None, complement_points=None,
        )
        assert np.all(rule.membership(x[0], region))
        off_points = region + np.array([1e-6, 0.0])
        assert not np.any(rule.membership(x[0], off_points))

    def test_empty_regions_still_calibrate(self, gaussian_setup):
        draw, _, grid = gaussian_setup
        x, y = draw(99)
        empty = lambda _x: np.zeros((0, 2))
        rule, _ = calibrate(empty, x, y, alpha=0.1, area_grid=grid)
        assert rule.mode == GROW
        assert np.isfinite(rule.gamma_cal)
        # Scores were measured from the anchor, so the anchor is covered.
        assert rule.membership(x[0], rule.anchor[None])[0]

    def test_empty_region_scores_use_membership_distance(self):
        # np.linalg.norm and the k-d tree round some distances differently;
        # scores from the former let the row that sets gamma_cal fall
        # outside its own rule at several of these seeds.
        empty = lambda _x: np.zeros((0, 2))
        k = math.ceil(100 * 0.9)
        for seed in range(40):
            rng = Rng(seed)
            x, y = rng.uniform(size=(99, 1)), rng.standard_normal(size=(99, 2))
            rule, _ = calibrate(empty, x, y, alpha=0.1,
                                area_grid=build_grid(y, AREA_MEASUREMENT))
            scores = min_distances(y, rule.anchor[None, :])
            order = np.argsort(scores, kind="stable")
            assert rule.gamma_cal == scores[order[k - 1]]
            row = order[k - 1]
            assert rule.membership(x[row], y[row][None, :])[0]

    def test_coverage_guarantee_monte_carlo(self, gaussian_setup):
        draw, provider, grid = gaussian_setup
        trials, n2, n_test, alpha = 300, 99, 100, 0.1
        coverages = []
        for _ in range(trials):
            x_cal, y_cal = draw(n2)
            rule, _ = calibrate(provider, x_cal, y_cal, alpha, grid)
            x_test, y_test = draw(n_test)
            hits = [rule.membership(x_test[i], y_test[i][None])[0] for i in range(n_test)]
            coverages.append(float(np.mean(hits)))
        mean_cov = float(np.mean(coverages))
        se = float(np.std(coverages) / math.sqrt(trials))
        assert 0.90 - 3 * se <= mean_cov <= 0.91 + 3 * se


class TestProviderContract:
    """A provider answers with an (m, d) array of finite points; any other
    answer raises ValueError before a distance is taken from it."""

    @pytest.fixture
    def no_scores(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a score was taken from a malformed region")

        monkeypatch.setattr(calibration, "min_distances", refuse)
        monkeypatch.setattr(calibration, "pairwise_nn_distances", refuse)

    @pytest.mark.parametrize("answer", [
        np.array([[0.0, 0.0], [np.nan, 1.0]]),
        np.array([[0.0, 0.0], [np.inf, 1.0]]),
        np.array([0.0, 1.0]),
        np.zeros((3, 3)),
        np.zeros((0, 1)),
    ], ids=["nan", "inf", "one-dimensional", "wrong-dimension", "empty-wrong-dimension"])
    def test_malformed_region_raises_before_scoring(self, gaussian_setup, no_scores,
                                                    answer):
        draw, _, grid = gaussian_setup
        x, y = draw(99)
        with pytest.raises(ValueError, match="region"):
            calibrate(lambda _x: answer, x, y, alpha=0.1, area_grid=grid)

    def test_rule_checks_the_provider_again(self, gaussian_setup):
        draw, provider, grid = gaussian_setup
        x, y = draw(99)
        rule, _ = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        rule = dataclasses.replace(rule, provider=lambda _x: np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            rule.membership(x[0], y[:1])
        rule = dataclasses.replace(rule, mode=SHRINK, complement_threshold=0.1,
                                   complement_points=grid.points())
        with pytest.raises(ValueError, match="finite"):
            rule.membership(x[0], y[:1])



@pytest.mark.parametrize("x_rows, y_rows", [(100, 50), (10, 50), (50, 1)])
def test_unpaired_rows_raise_before_any_provider_call(gaussian_setup, x_rows, y_rows):
    # 100 inputs against 50 responses used to calibrate on 50 pairs, and 10
    # against 50 raised IndexError after ten provider calls.
    draw, _, grid = gaussian_setup
    calls = []

    def provider(x):
        calls.append(x)
        return np.zeros((1, 2))

    x, y = draw(max(x_rows, y_rows))
    with pytest.raises(ValueError, match="rows"):
        calibrate(provider, x[:x_rows], y[:y_rows], alpha=0.1, area_grid=grid)
    assert calls == []

def flood_fill_components(mask2d):
    """4-connectivity component count, independent of any library."""
    seen = np.zeros_like(mask2d, dtype=bool)
    components = 0
    rows, cols = mask2d.shape
    for i in range(rows):
        for j in range(cols):
            if mask2d[i, j] and not seen[i, j]:
                components += 1
                stack = [(i, j)]
                seen[i, j] = True
                while stack:
                    a, b = stack.pop()
                    for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        na, nb = a + da, b + db
                        if 0 <= na < rows and 0 <= nb < cols:
                            if mask2d[na, nb] and not seen[na, nb]:
                                seen[na, nb] = True
                                stack.append((na, nb))
    return components


class TestShrink:
    @pytest.fixture
    def disc_setup(self):
        rng = Rng(515)
        y_ref = rng.standard_normal(size=(400, 2))
        grid = build_grid(y_ref, AREA_MEASUREMENT)
        region_pts = grid.points()[np.linalg.norm(grid.points(), axis=1) <= 2.2]

        def provider(_x):
            return region_pts

        def draw(n):
            x = rng.uniform(size=(n, 1))
            y = 0.6 * rng.standard_normal(size=(n, 2))
            return x, y

        return provider, grid, draw, region_pts

    def test_overcovering_region_triggers_shrink(self, disc_setup):
        provider, grid, draw, _ = disc_setup
        x, y = draw(99)
        rule, _ = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        assert rule.mode == SHRINK
        assert rule.gamma_cal > 0.0

    def test_report_agrees_with_finite_shrink_rule(self, disc_setup):
        # A report built before the shrink threshold is set would carry
        # the NaN placeholder, which this catches.
        provider, grid, draw, _ = disc_setup
        x, y = draw(99)
        rule, report = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        assert rule.mode == SHRINK and np.isfinite(rule.gamma_cal)
        assert_report_agrees_with_rule(rule, report, provider, x, y)

    def test_shrunk_region_inside_base_and_connected(self, disc_setup):
        provider, grid, draw, region_pts = disc_setup
        x, y = draw(99)
        rule, _ = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        pts = grid.points()
        covered = rule.membership(x[0], pts)
        base = min_distances(pts, region_pts) <= rule.complement_threshold
        assert np.all(base[covered])  # calibrated region inside the base
        assert covered.sum() < base.sum()  # and strictly smaller
        mask2d = covered.reshape(grid.cells_per_dim, grid.cells_per_dim)
        assert flood_fill_components(mask2d) == 1

    def test_shrink_quantile_index(self, disc_setup):
        provider, grid, draw, region_pts = disc_setup
        x, y = draw(99)
        rule, _ = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        pts = grid.points()
        complement = pts[min_distances(pts, region_pts) > rule.complement_threshold]
        scores = np.sort(min_distances(y, complement))
        assert rule.gamma_cal == pytest.approx(scores[9])  # floor(100 * 0.1) = 10th

    def test_smallest_rank_calibrates_where_grow_would(self, disc_setup):
        # At alpha = 1/49 and n2 = 48 the grow rank ceil(49 (1 - alpha)) is
        # 48, valid, so shrink takes rank 1; floor(49 alpha) rounds to 0.
        provider, grid, draw, _ = disc_setup
        x, y = draw(48)
        alpha = 1 / 49
        assert conformal_rank(48, alpha) == 48 and np.floor(49 * alpha) == 0
        rule, _ = calibrate(provider, x, y, alpha=alpha, area_grid=grid)
        assert rule.mode == SHRINK
        scores = np.array([rule.scores(x[i], y[i : i + 1])[0] for i in range(48)])
        assert rule.gamma_cal == scores.min()

    def test_blanket_region_calibrates_with_infinite_threshold(self, disc_setup):
        # No grid point lies outside the region, so every calibration row
        # scores +inf (infinitely inside) and the threshold is +inf.
        _, grid, draw, _ = disc_setup
        blanket = lambda _x: grid.points()
        x, y = draw(99)
        rule, report = calibrate(blanket, x, y, alpha=0.1, area_grid=grid)
        assert rule.mode == SHRINK
        assert rule.gamma_cal == math.inf
        assert np.all(rule.membership(x[0], grid.points()))
        report = json.loads(json.dumps(report, allow_nan=False))
        assert report["gamma_cal"] is None

    def test_blanketed_rows_score_infinitely_inside(self, disc_setup):
        # Rows whose region blankets the grid score +inf and are covered;
        # the others are scored against their complement as usual.
        provider, grid, draw, _ = disc_setup
        x, y = draw(99)
        x[::3] = 2.0  # every third input gets the blanket
        blanket_or_disc = lambda xi: grid.points() if xi[0] == 2.0 else provider(xi)
        rule, _ = calibrate(blanket_or_disc, x, y, alpha=0.1, area_grid=grid)
        assert rule.mode == SHRINK and np.isfinite(rule.gamma_cal)
        assert np.all(rule.scores(x[0], y) == math.inf)
        assert np.all(rule.membership(x[0], grid.points()))
        scores = np.array([rule.scores(x[i], y[i : i + 1])[0] for i in range(99)])
        assert np.all(np.isinf(scores[::3]))
        assert rule.gamma_cal == np.sort(scores)[9]

    def test_empty_region_leaves_the_whole_grid_as_complement(self, disc_setup):
        # An input whose region is empty has every area-grid point in its
        # complement, and its membership compares the score calibration
        # ranked for it.
        provider, grid, draw, _ = disc_setup
        x, y = draw(99)
        x[::20] = 2.0  # every twentieth input gets an empty region
        empty_or_disc = lambda xi: np.zeros((0, 2)) if xi[0] == 2.0 else provider(xi)
        rule, _ = calibrate(empty_or_disc, x, y, alpha=0.1, area_grid=grid)
        assert rule.mode == SHRINK
        pts = grid.points()
        assert np.array_equal(rule.complement_carrier(x[0]), pts)
        scores = rule.scores(x[0], y)
        assert np.array_equal(scores, min_distances(y, pts))
        assert np.array_equal(rule.membership(x[0], y), scores >= rule.gamma_cal)
        ranked = np.array([rule.scores(x[i], y[i : i + 1])[0] for i in range(99)])
        assert rule.gamma_cal == np.sort(ranked)[9]
        # A grid point is its own complement point, so none is covered.
        assert not rule.membership(x[0], pts).any()

    def test_calibrated_membership_inside_and_outside(self, disc_setup):
        provider, grid, draw, region_pts = disc_setup
        x, y = draw(99)
        rule, _ = calibrate(provider, x, y, alpha=0.1, area_grid=grid)
        assert rule.membership(x[0], np.zeros((1, 2)))[0]
        # A grid point just outside the disc sits in the complement.
        outside = grid.points()[
            np.argmax(np.linalg.norm(grid.points(), axis=1) >= 2.2 + 3 * rule.complement_threshold)
        ]
        assert not rule.membership(x[0], outside[None])[0]

    def test_coverage_guarantee_monte_carlo(self, disc_setup):
        provider, grid, draw, _ = disc_setup
        trials, n2, n_test, alpha = 100, 99, 100, 0.1
        coverages = []
        for _ in range(trials):
            x_cal, y_cal = draw(n2)
            rule, _ = calibrate(provider, x_cal, y_cal, alpha, grid)
            assert rule.mode == SHRINK
            x_test, y_test = draw(n_test)
            hits = [rule.membership(x_test[i], y_test[i][None])[0] for i in range(n_test)]
            coverages.append(float(np.mean(hits)))
        mean_cov = float(np.mean(coverages))
        se = float(np.std(coverages) / math.sqrt(trials))
        assert 0.90 - 3 * se <= mean_cov <= 0.91 + 3 * se

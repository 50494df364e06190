import hashlib
import itertools
import math

import numpy as np
import pytest

from oracles import as_float64
from qregions.calibration import CalibrationSetTooSmallError
from qregions import naive_qr
from qregions.experiment import RectangleRule
from qregions.naive_qr import (
    NaiveModel,
    calibrate,
    cqr_scores,
    fit,
    membership_flags,
    quantile_levels,
)
from qregions.nn import MlpModel, TrainConfig, init_mlp
from qregions.numerics import Rng
from qregions.regions import AREA_MEASUREMENT, build_grid


def constant_net(p, value):
    """A float64 net that outputs ``value``, so that it keeps its bits."""
    net = as_float64(init_mlp((p, 1), Rng(0)))
    net.weights[0][...] = 0.0
    net.biases[0][...] = value
    return net


def box_model(lo_values, hi_values, offset=0.0):
    p = 1
    nets_lo = [constant_net(p, v) for v in lo_values]
    nets_hi = [constant_net(p, v) for v in hi_values]
    return NaiveModel(nets_lo, nets_hi, offset=offset)


def refuse_net_pass(*_args, **_kwargs):
    raise AssertionError("a net ran on unpaired rows")


def box_volume(lower, upper):
    return float(np.prod(np.maximum(np.asarray(upper) - np.asarray(lower), 0.0)))


def corners(lower, upper):
    """Every corner of the box [lower, upper], one per row."""
    return np.array(list(itertools.product(*zip(lower, upper))))


def just_outside(lower, upper, step=1e-9):
    """Points a step outside each face, at the middle of that face."""
    center = 0.5 * (np.asarray(lower) + np.asarray(upper))
    points = []
    for j in range(len(lower)):
        for end in (lower[j] - step, upper[j] + step):
            point = center.copy()
            point[j] = end
            points.append(point)
    return np.array(points)


class TestLevels:
    def test_centered_levels(self):
        assert quantile_levels(0.1, 2) == (0.025, 0.975)
        assert quantile_levels(0.1, 4) == pytest.approx((0.0125, 0.9875))


class TestCqrScore:
    def test_interior_point(self):
        model = box_model([0.0, 0.0], [1.0, 1.0])
        assert cqr_scores(model, [[0.0]], np.array([[0.5, 0.5]]))[0] == pytest.approx(-0.5)

    def test_one_sided_exceedance(self):
        model = box_model([0.0, 0.0], [1.0, 1.0])
        assert cqr_scores(model, [[0.0]], np.array([[2.0, 0.5]]))[0] == pytest.approx(1.0)

    def test_boundary_point(self):
        model = box_model([0.0, 0.0], [1.0, 1.0])
        assert cqr_scores(model, [[0.0]], np.array([[1.0, 0.5]]))[0] == pytest.approx(0.0)


class TestCalibrate:
    def test_quantile_index(self):
        model = box_model([0.0], [1.0])
        rng = Rng(1)
        x = rng.uniform(size=(99, 1))
        y = rng.uniform(-1.0, 2.0, size=(99, 1))
        calibrated, _ = calibrate(model, x, y, alpha=0.1)
        scores = np.sort(cqr_scores(model, x, y))
        assert calibrated.offset == pytest.approx(scores[89])

    def test_overcovering_base_shrinks(self):
        model = box_model([-10.0], [10.0])
        rng = Rng(2)
        x = rng.uniform(size=(99, 1))
        y = rng.uniform(-1.0, 1.0, size=(99, 1))
        calibrated, _ = calibrate(model, x, y, alpha=0.1)
        assert calibrated.offset < 0.0
        # The base box's own faces now lie outside the calibrated box.
        assert not membership_flags(calibrated, [[0.0]], np.array([[-10.0], [10.0]])).any()

    def test_offset_row_is_covered(self):
        # The row whose score sets the offset must lie inside its own
        # calibrated box, to the last bit.
        k = math.ceil(100 * 0.9)
        for seed in range(200):
            rng = Rng(seed)
            model = box_model(rng.uniform(-1.0, 0.0, size=2), rng.uniform(0.0, 1.0, size=2))
            x, y = rng.uniform(size=(99, 1)), rng.standard_normal(size=(99, 2))
            calibrated, _ = calibrate(model, x, y, alpha=0.1)
            scores = cqr_scores(model, x, y)
            row = np.argsort(scores, kind="stable")[k - 1]
            assert calibrated.offset == scores[row]
            assert membership_flags(calibrated, x[row : row + 1], y[row : row + 1])[0], seed

    def test_too_small_calibration_set(self):
        model = box_model([0.0], [1.0])
        with pytest.raises(CalibrationSetTooSmallError):
            calibrate(model, np.zeros((5, 1)), np.zeros((5, 1)), alpha=0.1)


    @pytest.mark.parametrize("x_rows, y_rows", [(1, 50), (3, 50), (50, 3)])
    def test_unpaired_rows_raise_before_any_net_pass(self, monkeypatch, x_rows, y_rows):
        # One input against 50 responses used to score every response
        # against that input's box.
        model = box_model([0.0], [1.0])
        monkeypatch.setattr(naive_qr, "forward_batch", refuse_net_pass)
        with pytest.raises(ValueError, match="rows"):
            calibrate(model, np.zeros((x_rows, 1)), np.zeros((y_rows, 1)), alpha=0.1)

class TestRegion:
    def test_zero_offset_degenerate_point(self):
        model = box_model([0.7, -0.2], [0.7, -0.2], offset=0.0)
        assert membership_flags(model, [[0.0]], np.array([[0.7, -0.2]]))[0]
        # Zero width: a step off the point along any axis leaves the box.
        off = just_outside([0.7, -0.2], [0.7, -0.2])
        assert not membership_flags(model, [[0.0]], off).any()
        assert box_volume([0.7, -0.2], [0.7, -0.2]) == 0.0

    def test_unit_square_widened_by_one(self):
        model = box_model([0.0, 0.0], [1.0, 1.0], offset=1.0)
        lower, upper = [-1.0, -1.0], [2.0, 2.0]
        assert membership_flags(model, [[0.0]], corners(lower, upper)).all()
        assert not membership_flags(model, [[0.0]], just_outside(lower, upper)).any()
        assert box_volume(lower, upper) == pytest.approx(9.0)

    def test_grid_count_matches_volume(self):
        responses = Rng(3).uniform(-2.0, 2.0, size=(400, 2))
        grid = build_grid(responses, AREA_MEASUREMENT)
        model = box_model([-1.0, -0.5], [1.0, 1.5], offset=0.0)
        lower, upper = np.array([-1.0, -0.5]), np.array([1.0, 1.5])
        count = RectangleRule(model).area_cells([0.0], grid)
        # The count decomposes per dimension.
        centers = [grid.axis_centers(j) for j in range(2)]
        per_axis = [((c >= lo) & (c <= hi)).sum() for c, lo, hi in zip(centers, lower, upper)]
        assert count == int(np.prod(per_axis))
        widths = (np.asarray(grid.highs) - grid.lows) / grid.cells_per_dim
        cell_area = float(np.prod(widths))
        # One cell layer per face of slack.
        per_face = 2 * (upper[0] - lower[0]) / widths[1] \
            + 2 * (upper[1] - lower[1]) / widths[0]
        assert abs(count - box_volume(lower, upper) / cell_area) <= per_face + 4

    def test_widening_monotonicity(self):
        narrow = box_model([0.0, 0.0], [1.0, 1.0], offset=0.1)
        wide = box_model([0.0, 0.0], [1.0, 1.0], offset=0.5)
        x, pts = np.zeros((500, 1)), Rng(4).uniform(-2, 3, size=(500, 2))
        assert np.all(membership_flags(wide, x, pts)[membership_flags(narrow, x, pts)])

    def test_membership_decomposes_per_coordinate(self):
        model = box_model([0.0, -1.0], [1.0, 1.0], offset=0.0)
        lower, upper = [0.0, -1.0], [1.0, 1.0]
        pts = Rng(5).uniform(-2, 2, size=(200, 2))
        expected = np.array([
            all(lower[j] <= pt[j] <= upper[j] for j in range(2))
            for pt in pts
        ])
        assert np.array_equal(
            membership_flags(model, np.zeros((200, 1)), pts), expected)
        # One input row broadcasts against all the responses.
        assert np.array_equal(membership_flags(model, [[0.0]], pts), expected)


class TestOracleCoverage:
    def test_product_of_marginals(self):
        # With exact marginal quantiles on independent uniforms the
        # rectangle covers (1 - alpha/d)^d >= 1 - alpha.
        alpha, d, n = 0.1, 3, 40_000
        beta = alpha / d
        lo_values = [beta / 2.0] * d
        hi_values = [1.0 - beta / 2.0] * d
        model = box_model(lo_values, hi_values, offset=0.0)
        y = Rng(7).uniform(size=(n, d))
        hits = membership_flags(model, np.zeros((n, 1)), y)
        coverage = float(hits.mean())
        assert coverage >= 1 - alpha - 0.01
        assert coverage == pytest.approx((1 - beta) ** d, abs=0.008)


class TestFit:
    def test_constant_data_recovers_constant(self, monkeypatch):
        rng = Rng(10)
        x = rng.uniform(-1, 1, size=(600, 1))
        y = np.full((600, 2), [0.4, -1.1])
        xv = rng.uniform(-1, 1, size=(128, 1))
        yv = np.full((128, 2), [0.4, -1.1])
        config = TrainConfig(learning_rate=5e-3, batch_size=128, max_epochs=300,
                             patience=300)
        monkeypatch.setattr(naive_qr, "HIDDEN", (16,))
        model, _ = fit(x, y, xv, yv, alpha=0.1, config=config, seed=0)
        assert [net.widths for net in model.nets_lo + model.nets_hi] == [(1, 16, 1)] * 4
        lo, hi = model.bounds(np.array([[0.0]]))
        assert np.allclose(lo[0], [0.4, -1.1], atol=0.05)
        assert np.allclose(hi[0], [0.4, -1.1], atol=0.05)

    def test_trained_bits_are_pinned(self, monkeypatch):
        # A change to the training step, its draws or their order moves
        # these bits, and with them every seeded naive run. Batches of 16
        # leave a ragged last batch of 8 rows.
        rng = Rng(11)
        x, y = rng.uniform(size=(52, 2)), rng.standard_normal(size=(52, 2))
        monkeypatch.setattr(naive_qr, "HIDDEN", (8, 8))
        config = TrainConfig(learning_rate=1e-2, batch_size=16, max_epochs=4, patience=4)
        model, histories = fit(x[:40], y[:40], x[40:], y[40:], alpha=0.1, config=config, seed=3)
        assert list(histories) == ["lower_0", "upper_0", "lower_1", "upper_1"]
        bits = b"".join(a.tobytes() for net in model.nets_lo + model.nets_hi
                        for a in net.parameters())
        bits += b"".join(np.array(h.val_losses).tobytes() for h in histories.values())
        assert all(h.epochs_run == 4 for h in histories.values())
        assert hashlib.sha256(bits).hexdigest()[:16] == "fd1b16149286307f"

    def test_conformal_coverage_after_fit(self, monkeypatch):
        # End to end on heteroscedastic data: coverage lands near 1 - alpha.
        rng = Rng(20)

        def draw(n):
            x = rng.uniform(-1, 1, size=(n, 1))
            noise = rng.standard_normal(size=(n, 2))
            y = np.column_stack([x[:, 0], -x[:, 0]]) + 0.3 * noise
            return x, y

        x, y = draw(1500)
        xv, yv = draw(400)
        config = TrainConfig(learning_rate=1e-3, batch_size=256, max_epochs=150,
                             patience=30)
        monkeypatch.setattr(naive_qr, "HIDDEN", (32, 32))
        model, _ = fit(x, y, xv, yv, alpha=0.1, config=config, seed=1)
        assert [net.widths for net in model.nets_lo + model.nets_hi] == [(1, 32, 32, 1)] * 4
        xc, yc = draw(999)
        calibrated, _ = calibrate(model, xc, yc, alpha=0.1)
        xt, yt = draw(4000)
        coverage = float(membership_flags(calibrated, xt, yt).mean())
        assert 0.86 <= coverage <= 0.94

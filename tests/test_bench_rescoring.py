"""The benchmark's brute-force rescoring (``_inside`` of ``bench/cells.py``)
still reads the rules the program builds, and agrees with their membership
flags and area masks away from the boundary band, so a change to the rule
types fails here instead of in a benchmark run."""

import sys
from pathlib import Path

import numpy as np
import pytest

from qregions import naive_qr
from qregions.calibration import GROW, SHRINK, calibrate
from qregions.experiment import DistanceRule, RectangleRule
from qregions.naive_qr import NaiveModel
from qregions.nn import init_mlp
from qregions.numerics import Rng
from qregions.regions import AREA_MEASUREMENT, build_grid

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


@pytest.fixture(scope="module")
def cells():
    sys.path.insert(0, BENCH)
    try:
        import cells
    finally:
        sys.path.remove(BENCH)
    return cells


@pytest.fixture(scope="module")
def disc_data():
    """Area grid and calibration draws of the disc providers of
    ``tests/test_calibration.py``: a fixed lattice disc around the origin."""
    rng = Rng(515)
    grid = build_grid(rng.standard_normal(size=(400, 2)), AREA_MEASUREMENT)
    x = rng.uniform(size=(99, 1))
    y = 0.6 * rng.standard_normal(size=(99, 2))
    return grid, x, y


def disc_rule(disc_data, radius):
    grid, x, y = disc_data
    region_pts = grid.points()[np.linalg.norm(grid.points(), axis=1) <= radius]
    rule, _ = calibrate(lambda _x: region_pts, x, y, alpha=0.1, area_grid=grid)
    return DistanceRule(rule)


def line_net(weight, bias):
    net = init_mlp((1, 1), Rng(0))
    net.weights[0][...] = weight
    net.biases[0][...] = bias
    return net


def box_rule():
    lower = [line_net(0.5, -1.0), line_net(-0.25, -0.5)]
    upper = [line_net(-0.3, 1.0), line_net(0.4, 0.75)]
    return RectangleRule(NaiveModel(lower, upper, offset=0.1))


def area_mask(monkeypatch, rule, x, grid):
    """The area count of ``rule`` at ``x`` and the mask it counted, recorded
    from the membership test that ``area_cells`` calls."""
    if isinstance(rule, DistanceRule):
        owner, name = type(rule.rule), "membership"
    else:
        owner, name = naive_qr, "membership_flags"
    real, masks = getattr(owner, name), []

    def recording(*args):
        flags = real(*args)
        masks.append(np.asarray(flags, dtype=bool).copy())
        return flags

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, recording)
        count = rule.area_cells(x, grid)
    assert len(masks) == 1
    return count, masks[0]


@pytest.mark.parametrize("kind", ["grow", "shrink", "rectangle"])
def test_rescoring_agrees_with_membership_and_area(monkeypatch, cells, disc_data, kind):
    grid, _, _ = disc_data
    if kind == "rectangle":
        rule = box_rule()
    else:
        rule = disc_rule(disc_data, 0.5 if kind == "grow" else 2.2)
        assert rule.rule.mode == (GROW if kind == "grow" else SHRINK)
    rng = Rng(7)
    x_rows = rng.uniform(size=(24, 1))
    y_rows = 0.8 * rng.standard_normal(size=(24, 2))

    flags = rule.membership_rows(x_rows, y_rows)
    inside, near = zip(*(cells._inside(rule, x, y[None, :]) for x, y in zip(x_rows, y_rows)))
    inside, near = np.concatenate(inside), np.concatenate(near)
    assert not near.all()
    assert np.array_equal(inside[~near], flags[~near])
    assert 0 < flags.sum() < len(flags)

    for x in x_rows[:2]:
        count, mask = area_mask(monkeypatch, rule, x, grid)
        assert count == int(mask.sum())
        inside, near = cells._inside(rule, x, grid.points())
        assert near.sum() < len(near) // 2
        assert np.array_equal(inside[~near], mask[~near])
        assert 0 < count < len(mask)

import math

import numpy as np
import pytest

from qregions.numerics import Rng
from qregions.regions import (
    AREA_MEASUREMENT,
    REGION_DISCRETIZATION,
    Grid,
    build_grid,
    min_distances,
    pairwise_nn_distances,
)


@pytest.fixture
def train_responses():
    return Rng(3).uniform(-2.0, 2.0, size=(500, 2))


class TestBuildGrid:
    @pytest.mark.parametrize(
        "dim,purpose,total",
        [
            (2, AREA_MEASUREMENT, 3025),
            (2, REGION_DISCRETIZATION, 10_000),
            (3, AREA_MEASUREMENT, 103_823),
            (3, REGION_DISCRETIZATION, 42_875),
            (4, AREA_MEASUREMENT, 234_256),
            (4, REGION_DISCRETIZATION, 104_976),
        ],
    )
    def test_cell_totals(self, dim, purpose, total):
        responses = Rng(1).uniform(size=(100, dim))
        grid = build_grid(responses, purpose)
        assert grid.cells_per_dim ** grid.dim == total

    def test_bounds_are_widened_quantiles(self, train_responses):
        grid = build_grid(train_responses, REGION_DISCRETIZATION)
        n = train_responses.shape[0]
        for j in range(2):
            col = np.sort(train_responses[:, j])
            assert grid.lows[j] == pytest.approx(col[math.ceil(0.01 * n) - 1] - 1.0)
            assert grid.highs[j] == pytest.approx(col[math.ceil(0.99 * n) - 1] + 1.0)
        area_grid = build_grid(train_responses, AREA_MEASUREMENT)
        for j in range(2):
            assert area_grid.lows[j] == pytest.approx(grid.lows[j] + 0.8)
            assert area_grid.highs[j] == pytest.approx(grid.highs[j] - 0.8)

    def test_rejects_unsupported_dimension(self, train_responses):
        with pytest.raises(ValueError):
            build_grid(np.zeros((10, 5)), AREA_MEASUREMENT)
        with pytest.raises(ValueError):
            build_grid(train_responses, "volume")

    def test_deterministic_enumeration(self, train_responses):
        g1 = build_grid(train_responses, AREA_MEASUREMENT)
        g2 = build_grid(train_responses.copy(), AREA_MEASUREMENT)
        assert g1 == g2
        assert np.array_equal(g1.points(), g2.points())

    def test_points_are_cell_centers_row_major(self):
        grid = Grid(dim=2, lows=(0.0, 0.0), highs=(1.0, 2.0), cells_per_dim=2)
        pts = grid.points()
        expected = np.array([
            [0.25, 0.5], [0.25, 1.5], [0.75, 0.5], [0.75, 1.5],
        ])
        assert np.allclose(pts, expected)


class TestArea:
    """A region's area is the count of area-grid cell centers it holds."""

    def test_constant_predicates(self, train_responses):
        points = build_grid(train_responses, AREA_MEASUREMENT).points()
        assert int(np.zeros(len(points), dtype=bool).sum()) == 0
        assert int(np.isfinite(points).all(axis=1).sum()) == 3025

    def test_disc_count_matches_analytic_area(self, train_responses):
        grid = build_grid(train_responses, AREA_MEASUREMENT)
        center = np.array([
            0.5 * (grid.lows[0] + grid.highs[0]),
            0.5 * (grid.lows[1] + grid.highs[1]),
        ])
        radius = 0.25 * (grid.highs[0] - grid.lows[0])
        count = int((np.linalg.norm(grid.points() - center, axis=1) <= radius).sum())
        widths = (np.asarray(grid.highs) - grid.lows) / grid.cells_per_dim
        cell_area = float(np.prod(widths))
        analytic_cells = math.pi * radius**2 / cell_area
        perimeter_cells = 2 * math.pi * radius / float(widths.max())
        assert abs(count - analytic_cells) <= 4 * perimeter_cells

    def test_monotone_in_predicate(self, train_responses):
        distances = np.linalg.norm(build_grid(train_responses, AREA_MEASUREMENT).points(), axis=1)
        assert (distances <= 0.5).sum() <= (distances <= 1.0).sum()


DUPLICATES = 20
# Cells per dimension of the lattice carriers, about a thousand points each.
LATTICE_CELLS = {1: 1000, 2: 32, 3: 10, 4: 6}


def carrier_and_queries(kind, d, rng):
    """Carrier and query sets for the exactness test.

    ``lattice`` keeps half of a unit-cube lattice and queries every lattice
    point, so many queries sit at exactly equal distances from several
    carrier points.  ``duplicates`` repeats carrier points at the end of
    both sets.  ``pair`` is the smallest carrier a spacing query accepts.
    """
    queries = rng.uniform(-3, 3, size=(500, d))
    if kind == "random":
        return rng.uniform(-3, 3, size=(800, d)), queries
    if kind == "lattice":
        lattice = Grid(dim=d, lows=(0.0,) * d, highs=(1.0,) * d,
                       cells_per_dim=LATTICE_CELLS[d]).points()
        keep = rng.uniform(size=len(lattice)) < 0.5
        return lattice[keep], lattice
    if kind == "duplicates":
        base = rng.uniform(-3, 3, size=(400, d))
        twins = base[:DUPLICATES]
        return np.concatenate([base, twins]), np.concatenate([queries, twins])
    return rng.uniform(-3, 3, size=(2, d)), queries


class TestMinDistance:
    def test_zero_for_member(self):
        carrier = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert min_distances(np.array([[1.0, 1.0]]), carrier)[0] == 0.0

    def test_three_four_five(self):
        assert min_distances(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))[0] == 5.0

    def test_empty_carrier_raises(self):
        with pytest.raises(ValueError):
            min_distances(np.array([[0.0]]), np.zeros((0, 1)))

    @pytest.mark.parametrize("function", [min_distances, pairwise_nn_distances])
    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicates", "pair"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_full_pairwise_oracle_bitwise(self, d, kind, function):
        carrier, queries = carrier_and_queries(kind, d, Rng(77 + d))
        spacing = function is pairwise_nn_distances
        if spacing:
            queries = carrier
        # Oracle: one full pairwise matrix, no tree; a point is not its own
        # neighbour in a spacing query.
        sq = ((queries[:, None, :] - carrier[None, :, :]) ** 2).sum(axis=2)
        if spacing:
            np.fill_diagonal(sq, np.inf)
        oracle = np.sqrt(sq).min(axis=1)
        got = function(carrier) if spacing else function(queries, carrier)
        assert np.array_equal(got, oracle)
        if kind == "duplicates":
            # The last rows repeat carrier points, so their distance is 0.
            assert np.all(got[-DUPLICATES:] == 0.0)
        # Scalar spot check through an unrelated code path.
        for i in range(min(10, len(queries))):
            best = min(math.dist(queries[i], c)
                       for j, c in enumerate(carrier) if not (spacing and j == i))
            assert got[i] == pytest.approx(best, rel=1e-12)

    def test_lipschitz_in_query(self):
        rng = Rng(5)
        carrier = rng.uniform(-1, 1, size=(50, 2))
        for _ in range(100):
            y1 = rng.uniform(-2, 2, size=2)
            y2 = rng.uniform(-2, 2, size=2)
            d1, d2 = min_distances(np.stack([y1, y2]), carrier)
            assert abs(d1 - d2) <= np.linalg.norm(y1 - y2) + 1e-12

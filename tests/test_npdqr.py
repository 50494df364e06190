import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curves import record_loss_curves
from oracles import contains, normal_quantile, region_points
from qregions import npdqr
from qregions.nn import TrainConfig, init_mlp
from qregions.npdqr import (
    NpdqrModel,
    RegionExtractor,
    fit,
    project,
    sample_direction_pool,
)
from qregions.numerics import Rng, dqr_theoretical_coverage
from qregions.regions import REGION_DISCRETIZATION, Grid, build_grid


def constant_threshold_model(d, value, pool_size=64, membership=32):
    """Model whose net ignores its input and always outputs ``value``; it
    tests the first ``membership`` directions of a ``pool_size`` pool."""
    pool = sample_direction_pool(d, pool_size, Rng(0))
    net = init_mlp((1 + d, 1), Rng(1))
    net.weights[0][...] = 0.0
    net.biases[0][...] = value
    return NpdqrModel(net=net, membership_directions=pool[:membership])


def region_mask(extractor, x):
    """Bool mask over ``extractor.points`` of the region at ``x``, rebuilt
    from the rows ``extract`` returns; lattice points are distinct, and
    the rows must come in the order of ``points``."""
    index = {row.tobytes(): i for i, row in enumerate(extractor.points)}
    rows = [index[row.tobytes()] for row in extractor.extract(x)]
    assert np.all(np.diff(rows) > 0)
    mask = np.zeros(len(extractor.points), dtype=bool)
    mask[rows] = True
    return mask


class TestPoolSampling:
    def test_one_dimension_is_signs(self):
        pool = sample_direction_pool(1, 4, Rng(3))
        assert pool.shape == (4, 1)
        assert set(np.round(pool[:, 0]).tolist()) <= {1.0, -1.0}

    def test_unit_norms(self):
        pool = sample_direction_pool(3, 2048, Rng(5))
        assert pool.shape == (2048, 3)
        norms = np.linalg.norm(pool, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_mean_direction_is_small(self):
        pool = sample_direction_pool(2, 100_000, Rng(7))
        assert np.linalg.norm(pool.mean(axis=0)) <= 0.02

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            sample_direction_pool(0, 4, Rng(0))

    def test_zero_draw_is_redrawn(self):
        # A zero row has no direction; the pool draws that row again.
        class ZeroFirstRow:
            def __init__(self):
                self.sizes = []

            def standard_normal(self, size):
                self.sizes.append(size)
                draw = Rng(len(self.sizes)).standard_normal(size=size)
                if len(self.sizes) == 1:
                    draw[1] = 0.0
                return draw

        rng = ZeroFirstRow()
        pool = sample_direction_pool(3, 4, rng)
        assert rng.sizes == [(4, 3), (1, 3)]
        redrawn = Rng(2).standard_normal(size=(1, 3))[0]
        assert np.array_equal(pool[1], redrawn / np.linalg.norm(redrawn))
        assert np.max(np.abs(np.linalg.norm(pool, axis=1) - 1.0)) <= 1e-12


class TestContains:
    def test_unit_ball_membership(self):
        model = constant_threshold_model(2, -1.0)
        assert contains(model, [0.0], np.zeros(2))
        assert not contains(model, [0.0], np.array([10.0, 0.0]))

    def test_boundary_scaling(self):
        model = constant_threshold_model(2, -1.0)
        # Inside the unit ball all projections u.y >= -1 hold.
        assert contains(model, [0.0], np.array([0.3, -0.4]))
        assert not contains(model, [0.0], np.array([1.2, 0.9]))

    def test_shape_check(self):
        model = constant_threshold_model(2, -1.0)
        with pytest.raises(ValueError):
            contains(model, [0.0], np.zeros(3))


class TestExtractRegion:
    @pytest.fixture
    def grid(self):
        return Grid(dim=2, lows=(-2.0, -2.0), highs=(2.0, 2.0), cells_per_dim=40)

    def test_ball_region_matches_exact_membership(self, grid):
        model = constant_threshold_model(2, -1.0, pool_size=2048, membership=256)
        region = RegionExtractor(model, grid.points()).extract([0.0])
        pts = grid.points()
        radii = np.linalg.norm(pts, axis=1)
        cell_diagonal = float(np.linalg.norm(
            (np.asarray(grid.highs) - grid.lows) / grid.cells_per_dim))
        inside = set(map(tuple, region))
        for pt, r in zip(pts, radii):
            if r <= 1.0 - cell_diagonal:
                assert tuple(pt) in inside
            elif r >= 1.0 + cell_diagonal:
                assert tuple(pt) not in inside

    def test_infeasible_thresholds_give_empty_region(self, grid):
        model = constant_threshold_model(2, 50.0)
        region = RegionExtractor(model, grid.points()).extract([0.0])
        assert region.shape == (0, model.d)

    def test_extracted_points_pass_contains(self, grid):
        rng = Rng(11)
        pool = sample_direction_pool(2, 256, rng)
        net = init_mlp((1 + 2, 8, 1), rng)
        model = NpdqrModel(net=net, membership_directions=pool[:64])
        region = RegionExtractor(model, grid.points()).extract([0.4])
        for pt in region[:: max(1, len(region) // 25)]:
            assert contains(model, [0.4], pt)

    def test_prefilter_matches_full_check(self, grid):
        rng = Rng(13)
        pool = sample_direction_pool(2, 512, rng)
        net = init_mlp((1 + 2, 8, 1), rng)
        model = NpdqrModel(net=net, membership_directions=pool[:128])
        extractor = RegionExtractor(model, grid.points())
        mask_fast = region_mask(extractor, [0.2])
        f = model.thresholds(np.array([[0.2]]))[0]
        mask_full = np.all(project(grid.points(), model.membership_directions) >= f[:, None],
                           axis=0)
        assert np.array_equal(mask_fast, mask_full)

    def test_convexity_at_grid_resolution(self, grid):
        model = constant_threshold_model(2, -1.0, pool_size=2048, membership=256)
        mask = region_mask(RegionExtractor(model, grid.points()), [0.0])
        cells = grid.cells_per_dim
        mask2d = mask.reshape(cells, cells)
        occupied = np.argwhere(mask2d)
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(200):
            a, b = occupied[rng.integers(0, len(occupied), size=2)]
            mid = a + b
            if mid[0] % 2 == 0 and mid[1] % 2 == 0:
                assert mask2d[mid[0] // 2, mid[1] // 2]


def tied_threshold_model(d, grid, x, seed, ties=24):
    """Random-net model whose thresholds are fixed: the net's own at ``x``,
    shifted so that the region holds the ball of radius 0.5, then ``ties``
    of them, one after another, set to the ``project`` value of the lattice
    point at the 2% quantile of the region's projections on that
    direction.  The last tied point stays in the region; later ties may
    cut earlier ones out.  Returns (model, thresholds, tied
    point indices)."""
    rng = Rng(seed)
    pool = sample_direction_pool(d, 512, rng)
    net = init_mlp((1 + d, 8, 1), rng)
    model = NpdqrModel(net=net, membership_directions=pool[rng.subset(512, 256)])
    dirs = model.membership_directions
    f = model.thresholds(np.atleast_2d(x))[0]
    f -= f.max() + 0.5
    points = grid.points()
    tied = []
    for i in rng.subset(len(dirs), ties):
        inside = np.flatnonzero(np.all(project(points, dirs) >= f[:, None], axis=0))
        j = inside[np.argsort(project(points[inside], dirs[i : i + 1])[0])[len(inside) // 50]]
        f[i] = project(points[j : j + 1], dirs[i : i + 1])[0, 0]
        tied.append(j)
    model.thresholds = lambda x_rows: f[None, :].copy()
    return model, f, np.array(tied)


@st.composite
def extraction_cases(draw):
    """A model with fixed thresholds and a point set drawn from a lattice
    at d = 1-4. The thresholds are a random net's, shifted, and some of
    them are tied to the projection of a point of the set; some
    directions have a last component of +0.0 or -0.0."""
    d = draw(st.integers(1, 4))
    cells = draw(st.integers(1, {1: 60, 2: 24, 3: 10, 4: 6}[d]))
    lows = draw(st.lists(st.floats(-3.0, 0.0), min_size=d, max_size=d))
    widths = draw(st.lists(st.floats(0.01, 4.0), min_size=d, max_size=d))
    grid = Grid(dim=d, lows=tuple(lows), highs=tuple(lo + w for lo, w in zip(lows, widths)),
                cells_per_dim=cells)
    rng = Rng(draw(st.integers(0, 2**16)))
    dirs = sample_direction_pool(d, draw(st.integers(1, 70)), rng)
    for i in draw(st.lists(st.integers(0, len(dirs) - 1), max_size=4)):
        dirs[i, -1] = draw(st.sampled_from([0.0, -0.0]))
    model = NpdqrModel(net=init_mlp((1 + d, 8, 1), rng), membership_directions=dirs)

    points = grid.points()
    kind = draw(st.sampled_from(["lattice", "random subset", "every other layer",
                                 "one-point lines", "shuffled", "reversed", "one point",
                                 "no points"]))
    if kind == "random subset":
        points = points[np.sort(rng.subset(len(points), draw(st.integers(1, len(points)))))]
    elif kind == "every other layer":
        axis = draw(st.integers(0, d - 1))
        points = points[np.isin(points[:, axis], grid.axis_centers(axis)[::2])]
    elif kind == "one-point lines":
        points = points[points[:, -1] == grid.axis_centers(d - 1)[cells // 2]]
    elif kind == "shuffled":
        points = points[rng.permutation(len(points))]
    elif kind == "reversed":
        points = points[::-1]
    elif kind == "one point":
        points = points[[draw(st.integers(0, len(points) - 1))]]
    elif kind == "no points":
        points = points[:0]

    x = np.array([0.3])
    f = model.thresholds(x[None, :])[0]
    f += draw(st.floats(-2.0, 1.0)) - f.max()
    if len(points):
        for i, j in draw(st.lists(st.tuples(st.integers(0, len(dirs) - 1),
                                            st.integers(0, len(points) - 1)), max_size=8)):
            f[i] = project(points[j : j + 1], dirs[i : i + 1])[0, 0]
    model.thresholds = lambda x_rows: f[None, :].copy()
    return model, points, x


class TestExactExtraction:
    """Membership is decided by ``project``, whose bits do not depend on
    which other points are projected with a point."""

    @settings(max_examples=300, deadline=None)
    @given(case=extraction_cases())
    def test_extract_equals_the_full_projection_oracle(self, case):
        model, points, x = case
        region = RegionExtractor(model, points).extract(x)
        assert np.array_equal(region, region_points(model, points, x))

    @pytest.mark.parametrize("d, cells", [(1, 101), (2, 40), (3, 15), (4, 8)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_subset_and_per_point_masks_match_full_lattice(self, d, cells, seed):
        grid = Grid(dim=d, lows=(-2.0,) * d, highs=(2.0,) * d, cells_per_dim=cells)
        x = np.array([0.3])
        model, f, tied = tied_threshold_model(d, grid, x, seed)
        points, dirs = grid.points(), model.membership_directions
        full = region_mask(RegionExtractor(model, points), x)
        assert 0 < full.sum() < len(points)
        assert full[tied[-1]]

        per_point = np.array([np.all(project(p[None, :], dirs)[:, 0] >= f) for p in points])
        assert np.array_equal(full, per_point)
        for j in tied:
            assert contains(model, x, points[j]) == full[j]

        subset = np.union1d(Rng(seed + 7).subset(len(points), min(200, len(points))), tied)
        mask = region_mask(RegionExtractor(model, points[subset]), x)
        assert np.array_equal(mask, full[subset])
        shuffled = Rng(seed + 9).permutation(len(points))
        mask = region_mask(RegionExtractor(model, points[shuffled]), x)
        assert np.array_equal(mask, full[shuffled])


class TestExtractorMemory:
    """The extractor keeps ``points`` and one entry per lattice line."""

    @pytest.fixture(scope="class")
    def cube(self):
        return Grid(dim=3, lows=(-2.0,) * 3, highs=(2.0,) * 3, cells_per_dim=35)

    def test_holds_points_and_per_line_arrays(self, cube):
        model = constant_threshold_model(3, -1.0, pool_size=2048, membership=256)
        extractor = RegionExtractor(model, cube.points())
        arrays = {name: v for name, v in vars(extractor).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {"points", "line_first", "line_last"}
        first = np.arange(0, len(extractor.points), cube.cells_per_dim)
        assert np.array_equal(extractor.line_first, first)
        assert np.array_equal(extractor.line_last, first + cube.cells_per_dim - 1)

    def test_lines_of_a_point_subset(self, cube):
        # Rows 0-1 and 1023-1024 are neighbours on the lines (0, 0) and
        # (0, 29); row 42,874 is alone on the last line.
        model = constant_threshold_model(3, -1.0, pool_size=2048, membership=256)
        extractor = RegionExtractor(model, cube.points()[[0, 1, 1023, 1024, 42_874]])
        assert extractor.line_first.tolist() == [0, 2, 4]
        assert extractor.line_last.tolist() == [1, 3, 4]

    def test_construction_peaks_below_one_coordinate_column(self, cube):
        # Finding the lines compares neighbouring rows in bool arrays of
        # one entry per point; no float array per point is made.
        model = constant_threshold_model(3, -1.0, pool_size=2048, membership=256)
        points = cube.points()
        tracemalloc.start()
        try:
            RegionExtractor(model, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(points) * 8

    def test_whole_lattice_region_peak(self, cube):
        model = constant_threshold_model(3, -10.0, pool_size=2048, membership=256)
        extractor = RegionExtractor(model, cube.points())
        tracemalloc.start()
        try:
            region = extractor.extract([0.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(region) == cube.cells_per_dim ** cube.dim
        assert peak < 3 * len(region) * 16 * 8

    def test_four_dimensional_lattice(self):
        grid = Grid(dim=4, lows=(-2.0,) * 4, highs=(2.0,) * 4, cells_per_dim=18)
        model = constant_threshold_model(4, -1.0, pool_size=2048, membership=256)
        region = RegionExtractor(model, grid.points()).extract([0.0])
        assert 0 < len(region) < grid.cells_per_dim ** grid.dim
        assert np.all(np.linalg.norm(region, axis=1) <= 1.0 / np.cos(np.pi / 4))


@pytest.fixture(scope="module")
def noise_fit():
    """Nets trained on pure N(0,1)^2 responses at two directional levels
    with the same seed, shared across tests."""
    rng = Rng(90)
    n = 1500
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    y = rng.standard_normal(size=(n, 2))
    xv = rng.uniform(0.0, 1.0, size=(400, 1))
    yv = rng.standard_normal(size=(400, 2))
    pool = sample_direction_pool(2, 512, Rng(1))
    config = TrainConfig(learning_rate=2e-3, batch_size=256, max_epochs=150, patience=150)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npdqr, "TRAIN_DIRECTIONS", 32)
        patch.setattr(npdqr, "MEMBERSHIP_DIRECTIONS", 128)
        patch.setattr(npdqr, "HIDDEN", (32, 32))
        model_10, _ = fit(x, y, xv, yv, alpha=0.10, pool=pool, config=config, seed=5)
        model_05, _ = fit(x, y, xv, yv, alpha=0.05, pool=pool, config=config, seed=5)
    return x, y, model_10, model_05


class TestFit:
    def test_fit_reads_the_constants_at_call_time(self, noise_fit):
        # The fixture set the stack and the membership count; constants
        # bound as default arguments at import would have ignored that.
        for model in noise_fit[2:]:
            assert model.net.widths == (1 + 2, 32, 32, 1)
            assert len(model.membership_directions) == 128

    def test_pool_smaller_than_a_direction_count_raises(self):
        x, y = np.zeros((10, 1)), np.zeros((10, 2))
        with pytest.raises(ValueError, match="must fit in the pool of 16"):
            fit(x, y, x, y, alpha=0.1, pool=sample_direction_pool(2, 16, Rng(1)),
                config=TrainConfig(max_epochs=1, patience=1), seed=0)

    def test_learns_gaussian_directional_quantile(self, noise_fit):
        x, _, model, _ = noise_fit
        target = normal_quantile(0.10)  # -1.2816
        probe = np.array([[0.5]])
        f = model.thresholds(probe)
        assert np.max(np.abs(f - target)) <= 0.1

    def test_nested_regions_across_levels(self, noise_fit):
        _, y, model_10, model_05 = noise_fit
        grid = build_grid(y, REGION_DISCRETIZATION)
        mask_10 = region_mask(RegionExtractor(model_10, grid.points()), [0.5])
        mask_05 = region_mask(RegionExtractor(model_05, grid.points()), [0.5])
        # Stricter directional level (alpha = 0.05) gives the larger region;
        # tolerate 1% training-noise violations.
        violations = int(np.count_nonzero(mask_10 & ~mask_05))
        assert violations <= 0.01 * grid.cells_per_dim ** grid.dim
        assert mask_05.sum() > mask_10.sum()

    def test_constant_response_learns_projection(self, monkeypatch):
        rng = Rng(70)
        c = np.array([0.8, -0.3])
        x = rng.uniform(size=(800, 1))
        y = np.tile(c, (800, 1))
        pool = sample_direction_pool(2, 256, Rng(2))
        config = TrainConfig(learning_rate=1e-2, batch_size=256, max_epochs=400,
                             patience=400)
        monkeypatch.setattr(npdqr, "TRAIN_DIRECTIONS", 16)
        monkeypatch.setattr(npdqr, "MEMBERSHIP_DIRECTIONS", 64)
        monkeypatch.setattr(npdqr, "HIDDEN", (16,))
        model, _ = fit(x, y, x[:200], y[:200], alpha=0.1, pool=pool, config=config, seed=3)
        assert model.net.widths == (1 + 2, 16, 1)
        assert len(model.membership_directions) == 64
        dirs = model.membership_directions
        f = model.thresholds(np.array([[0.5]]))[0]
        assert np.max(np.abs(f - dirs @ c)) <= 0.05

    def test_trained_bits_are_pinned(self, monkeypatch):
        # A change to the training step, its draws or their order moves
        # these bits, and with them every seeded NP-DQR run. Batches of 24
        # leave a ragged last batch of 14 rows.
        rng = Rng(12)
        x, y = rng.uniform(size=(62, 2)), rng.standard_normal(size=(62, 2))
        monkeypatch.setattr(npdqr, "TRAIN_DIRECTIONS", 8)
        monkeypatch.setattr(npdqr, "MEMBERSHIP_DIRECTIONS", 16)
        monkeypatch.setattr(npdqr, "HIDDEN", (8, 8))
        config = TrainConfig(learning_rate=1e-2, batch_size=24, max_epochs=4, patience=4)
        curves = record_loss_curves(monkeypatch)
        model, histories = fit(x[:50], y[:50], x[50:], y[50:], alpha=0.1,
                               pool=sample_direction_pool(2, 32, Rng(6)), config=config, seed=5)
        history = histories["threshold"]
        [(_, val_losses)] = curves
        bits = b"".join(a.tobytes() for a in model.net.parameters())
        bits += model.membership_directions.tobytes() + np.array(val_losses).tobytes()
        assert history.epochs_run == 4
        assert hashlib.sha256(bits).hexdigest()[:16] == "b5b6f5cd4b698b42"

    def test_rejects_bad_alpha(self, noise_fit):
        x, y, model, _ = noise_fit
        config = TrainConfig(max_epochs=1, patience=1)
        with pytest.raises(ValueError, match="miscoverage"):
            fit(x, y, x, y, alpha=0.7, pool=sample_direction_pool(2, 512, Rng(1)),
                config=config, seed=0)


class TestUndercoverage:
    def test_three_dim_gaussian_coverage_gap(self, monkeypatch):
        # Intersecting 90% half-spaces over the sphere in 3 dimensions
        # covers far less than 90% of the mass: analytically
        # dqr_theoretical_coverage(0.1, 3) = 0.350, and threshold noise in
        # a finite fit only pushes the empirical rate further down.
        rng = Rng(55)
        n = 4000
        x = rng.uniform(size=(n, 1))
        y = rng.standard_normal(size=(n, 3))
        pool = sample_direction_pool(3, 1024, Rng(4))
        config = TrainConfig(learning_rate=2e-3, batch_size=256, max_epochs=120,
                             patience=120)
        monkeypatch.setattr(npdqr, "TRAIN_DIRECTIONS", 32)
        monkeypatch.setattr(npdqr, "MEMBERSHIP_DIRECTIONS", 256)
        monkeypatch.setattr(npdqr, "HIDDEN", (32, 32))
        model, _ = fit(x, y, x[:500], y[:500], alpha=0.1, pool=pool, config=config, seed=6)
        assert model.net.widths == (1 + 3, 32, 32, 1)
        assert len(model.membership_directions) == 256
        x_test = rng.uniform(size=(1500, 1))
        y_test = rng.standard_normal(size=(1500, 3))
        f = model.thresholds(x_test)
        proj = y_test @ model.membership_directions.T
        coverage = float(np.all(proj >= f, axis=1).mean())
        analytic = dqr_theoretical_coverage(0.1, 3)
        assert coverage <= 0.47  # far below the nominal 90%
        assert abs(coverage - analytic) <= 0.10


@pytest.mark.parametrize("directions", [
    np.array([1.0, 0.0]), np.zeros((0, 2)), np.array([[1.0, 0.0], [np.nan, 1.0]])],
    ids=["one-dimensional", "no-rows", "nan"])
def test_malformed_membership_directions_are_rejected(directions):
    with pytest.raises(ValueError, match="membership directions"):
        NpdqrModel(net=init_mlp((3, 1), Rng(0)), membership_directions=directions)

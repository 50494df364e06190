import hashlib

import numpy as np
import pytest

from oracles import base_contains
from qregions import cvae, npdqr
from qregions.calibration import gamma_init
from qregions.cvae import CvaeModel, encode_batch
from qregions.data import NONLINEAR, gen_synthetic, split, zscore_fit_apply
from qregions.nn import TrainConfig, init_mlp
from qregions.npdqr import NpdqrModel, RegionExtractor, sample_direction_pool
from qregions.numerics import Rng
from qregions.regions import (
    REGION_DISCRETIZATION,
    Grid,
    build_grid,
    min_distances,
    pairwise_nn_distances,
)
from qregions.stdqr import (
    ACTIVE_UNIT_VARIANCE,
    InactiveLatentError,
    StdqrModel,
    fit,
    latent_lattice,
)

# The lattice of ``ignored_unit_pipeline``, which holds unit 0 on layer 6.
IGNORED_UNIT_GRID = Grid(dim=3, lows=(-2.0,) * 3, highs=(2.0,) * 3, cells_per_dim=12)


def identity_pipeline():
    """Hand-built model whose decoder returns the latent unchanged."""
    r = d = 2
    p = 1
    encoder = init_mlp((p + d, 4, 2 * r), Rng(0))
    decoder = init_mlp((p + r, r), Rng(1))
    decoder.weights[0][...] = 0.0
    decoder.weights[0][p:, :] = np.eye(r)
    decoder.biases[0][...] = 0.0
    cvae = CvaeModel(encoder, decoder, r)
    pool = sample_direction_pool(r, 128, Rng(2))
    net = init_mlp((p + r, 1), Rng(3))
    net.weights[0][...] = 0.0
    net.biases[0][...] = -1.0  # unit-ball latent region
    latent_model = NpdqrModel(net=net, membership_directions=pool[:64])
    grid = Grid(dim=r, lows=(-2.0, -2.0), highs=(2.0, 2.0), cells_per_dim=30)
    return StdqrModel(cvae=cvae, latent_model=latent_model, latent_points=grid.points())


def ignored_unit_pipeline():
    """Hand-built r=3, d=2 model whose decoder ignores latent unit 0 and
    copies units 1 and 2 into the response; unit 0 is held on layer 6."""
    r, d, p = 3, 2, 1
    encoder = init_mlp((p + d, 4, 2 * r), Rng(0))
    decoder = init_mlp((p + r, d), Rng(1))
    decoder.weights[0][...] = 0.0
    decoder.weights[0][p + 1:, :] = np.eye(d)
    decoder.biases[0][...] = 0.0
    cvae = CvaeModel(encoder, decoder, r)
    pool = sample_direction_pool(r, 128, Rng(2))
    net = init_mlp((p + r, 1), Rng(3))
    net.weights[0][...] = 0.0
    net.biases[0][...] = -1.0  # unit-ball latent region
    latent_model = NpdqrModel(net=net, membership_directions=pool[:64])
    points = IGNORED_UNIT_GRID.points()
    points = points[points[:, 0] == IGNORED_UNIT_GRID.axis_centers(0)[6]]
    return StdqrModel(cvae=cvae, latent_model=latent_model, latent_points=points)


class TestRegionComposition:
    def test_identity_decoder_passes_latent_points_through(self):
        model = identity_pipeline()
        latent = model.extractor.extract([0.5])
        decoded = model.region(np.array([0.5]))
        assert len(latent) > 0
        assert np.allclose(np.sort(decoded, axis=0), np.sort(latent, axis=0))

    def test_cardinality_preserved(self):
        model = identity_pipeline()
        assert len(model.region(np.array([0.2]))) == len(model.extractor.extract([0.2]))

    def test_matches_manual_decode(self):
        model = identity_pipeline()
        x = np.array([0.7])
        latent = model.extractor.extract(x)
        from qregions.cvae import decode_batch

        manual = decode_batch(model.cvae, np.repeat(x[None, :], len(latent), axis=0), latent)
        assert np.array_equal(model.region(x), manual)

    def test_empty_latent_region_gives_empty_response_region(self):
        model = identity_pipeline()
        model.extractor.model.net.biases[0][...] = 50.0  # infeasible thresholds
        model.extractor = RegionExtractor(model.extractor.model, model.extractor.points)
        result = model.region(np.array([0.0]))
        assert len(result) == 0
        assert result.shape == (0, 2)


@pytest.fixture(scope="module")
def nonlinear_fit():
    """Full pipeline fit on nonlinear v-shaped data, shared across tests."""
    data = gen_synthetic(NONLINEAR, d=2, p=1, n=6000, seed=12)
    parts = split(data.n, seed=12)
    normalized = zscore_fit_apply(data, parts["train"])
    x_tr, y_tr = normalized.x[parts["train"]], normalized.y[parts["train"]]
    x_v, y_v = normalized.x[parts["validation"]], normalized.y[parts["validation"]]
    cvae_config = TrainConfig(learning_rate=2e-3, batch_size=256, max_epochs=800,
                              patience=120)
    dqr_config = TrainConfig(learning_rate=2e-3, batch_size=256, max_epochs=120,
                             patience=30)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npdqr, "POOL_SIZE", 1024)
        patch.setattr(npdqr, "MEMBERSHIP_DIRECTIONS", 256)
        model, _ = fit(x_tr, y_tr, x_v, y_v, alpha=0.07, cvae_config=cvae_config,
                       dqr_config=dqr_config, cvae_hidden=(64, 64, 64), seed=1)
    cal = (normalized.x[parts["calibration"]], normalized.y[parts["calibration"]])
    raw_x = data.x[parts["train"]]

    def normalize_x(x):
        return (x - raw_x.mean(axis=0)) / raw_x.std(axis=0)

    return model, (x_tr, y_tr), cal, normalize_x


class TestInactiveUnits:
    def test_ignored_unit_takes_one_layer(self):
        model = ignored_unit_pipeline()
        latent = model.extractor.extract([0.3])
        assert len(latent) > 2
        assert np.unique(latent[:, 0]).tolist() == [IGNORED_UNIT_GRID.axis_centers(0)[6]]
        decoded = model.region(np.array([0.3]))
        assert np.all(pairwise_nn_distances(decoded) > 0.0)

    def test_inactive_unit_sits_on_the_layer_nearest_its_mean(self):
        z = Rng(7).standard_normal(size=(400, 3))
        z[:, 1] = 0.3 + 0.05 * z[:, 1]  # variance about 0.0025
        assert z[:, 1].var() <= ACTIVE_UNIT_VARIANCE < z[:, [0, 2]].var(axis=0).min()
        points = latent_lattice(z)
        grid = build_grid(z, REGION_DISCRETIZATION)
        centers = grid.axis_centers(1)
        nearest = centers[np.argmin(np.abs(centers - z[:, 1].mean()))]
        assert np.unique(points[:, 1]).tolist() == [nearest]
        assert abs(nearest - z[:, 1].mean()) <= 0.5 * (centers[1] - centers[0])
        for unit in (0, 2):
            assert np.array_equal(np.unique(points[:, unit]), grid.axis_centers(unit))
            assert len(grid.axis_centers(unit)) == 35
        assert points.shape == (35**2, 3)
        with pytest.raises(InactiveLatentError):
            latent_lattice(0.05 * z)

    def test_fit_raises_when_every_unit_is_inactive(self, monkeypatch):
        # A huge KL weight pins every posterior to the prior, so no
        # posterior mean varies and the region would be one lattice point.
        data = gen_synthetic(NONLINEAR, d=2, p=1, n=1000, seed=6)
        parts = split(data.n, seed=6)
        normalized = zscore_fit_apply(data, parts["train"])
        monkeypatch.setattr(cvae, "LATENT_DIM", 2)
        monkeypatch.setattr(cvae, "KL_WEIGHT", 1e3)
        with pytest.raises(InactiveLatentError):
            fit(normalized.x[parts["train"]], normalized.y[parts["train"]],
                normalized.x[parts["validation"]], normalized.y[parts["validation"]],
                alpha=0.07,
                cvae_config=TrainConfig(learning_rate=2e-3, batch_size=128,
                                        max_epochs=150, patience=150),
                dqr_config=TrainConfig(batch_size=128, max_epochs=5, patience=5),
                cvae_hidden=(16, 16), seed=4)


class TestFittedPipeline:
    def test_latent_net_reads_the_constants_at_call_time(self, nonlinear_fit):
        # The fixture's pool held 1,024 directions: each membership
        # direction is a row of that pool, and they are not all rows of
        # the 2,048-row pool that the same seed draws.
        latent = nonlinear_fit[0].extractor.model
        assert latent.net.widths == (1 + 3, 64, 64, 64, 1)
        assert len(latent.membership_directions) == 256
        for size, expected in ((1024, True), (npdqr.POOL_SIZE, False)):
            pool = sample_direction_pool(3, size, Rng(2).spawn(100))
            rows = (latent.membership_directions[:, None, :] == pool).all(axis=2).any(axis=1)
            assert rows.all() == expected

    def test_latent_grid_matches_latent_dimension(self, nonlinear_fit):
        model, (x_tr, y_tr), _, _ = nonlinear_fit
        active = encode_batch(model.cvae, x_tr, y_tr).var(axis=0) > ACTIVE_UNIT_VARIANCE
        points = model.extractor.points
        assert points.shape[1] == 3
        assert [len(np.unique(points[:, unit])) for unit in range(3)] == [
            35 if unit_active else 1 for unit_active in active]
        assert len(points) == 35 ** active.sum()

    def test_latent_lattice_bits_are_pinned(self, nonlinear_fit):
        # The points the fitted pipeline realizes regions on: unit 0 is
        # inactive and held on one layer, units 1 and 2 span 35 centers.
        points = nonlinear_fit[0].extractor.points
        assert points.shape == (1225, 3)
        assert hashlib.sha256(points.tobytes()).hexdigest()[:16] == "975f9e73614c5fa7"

    def test_region_is_nonempty_at_central_inputs(self, nonlinear_fit):
        model, _, _, normalize_x = nonlinear_fit
        for raw in (1.5, 2.0, 2.5):
            x = normalize_x(np.array([raw]))
            assert len(model.region(x)) > 50

    def test_v_shape_region_is_nonconvex(self, nonlinear_fit):
        # At x = 1.5 the conditional support is a v: the midpoint of the
        # two arm tips falls in the empty valley, far from region points.
        model, _, _, normalize_x = nonlinear_fit
        x = normalize_x(np.array([1.5]))
        pts = model.region(x)
        tip_lo = pts[np.argmin(pts[:, 0])]
        tip_hi = pts[np.argmax(pts[:, 0])]
        midpoint = 0.5 * (tip_lo + tip_hi)
        spacing = gamma_init(pts)
        assert float(min_distances(midpoint[None, :], pts)[0]) > spacing

    def test_decoded_points_stay_on_data_manifold(self, nonlinear_fit):
        # Support-containment proxy: decoded region points should lie near
        # training responses rather than in empty space.
        model, (x_tr, y_tr), _, normalize_x = nonlinear_fit
        spacing = 3.0 * float(np.median(pairwise_nn_distances(y_tr)))
        fractions = []
        for raw in (1.5, 2.0, 2.5):
            x = normalize_x(np.array([raw]))
            pts = model.region(x)
            near = min_distances(pts, y_tr) <= spacing
            fractions.append(float(near.mean()))
        assert min(fractions) >= 0.95

    def test_response_coverage_at_least_latent_coverage(self, nonlinear_fit):
        # Pushing a region through a pointwise map cannot lose coverage:
        # check the decoded region against the latent region on held-out
        # pairs with matched nearest-point membership rules.
        model, _, (x_cal, y_cal), _ = nonlinear_fit
        z_cal = encode_batch(model.cvae, x_cal, y_cal)
        idx = np.arange(0, len(y_cal), 6)
        hits_latent, hits_response = [], []
        for i in idx:
            latent = model.extractor.extract(x_cal[i])
            decoded = model.region(x_cal[i])
            if len(latent) == 0:
                hits_latent.append(False)
                hits_response.append(False)
                continue
            g_latent = gamma_init(latent)
            g_decoded = gamma_init(decoded)
            hits_latent.append(base_contains(latent, z_cal[i], g_latent))
            hits_response.append(base_contains(decoded, y_cal[i], g_decoded))
        cov_latent = float(np.mean(hits_latent))
        cov_response = float(np.mean(hits_response))
        assert cov_response >= cov_latent - 0.02

    def test_decoded_region_bits_are_pinned(self, monkeypatch):
        # The region at one input, through a small trained pipeline: a
        # change to either net's training, the lattice or the decode moves
        # these bits, and with them every seeded ST-DQR run.
        data = gen_synthetic(NONLINEAR, d=2, p=1, n=300, seed=4)
        parts = split(data.n, seed=4)
        normalized = zscore_fit_apply(data, parts["train"])
        monkeypatch.setattr(npdqr, "POOL_SIZE", 64)
        monkeypatch.setattr(npdqr, "TRAIN_DIRECTIONS", 8)
        monkeypatch.setattr(npdqr, "MEMBERSHIP_DIRECTIONS", 32)
        monkeypatch.setattr(npdqr, "HIDDEN", (8,))
        monkeypatch.setattr(cvae, "LATENT_DIM", 2)
        model, _ = fit(
            normalized.x[parts["train"]], normalized.y[parts["train"]],
            normalized.x[parts["validation"]], normalized.y[parts["validation"]],
            alpha=0.07,
            cvae_config=TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=4,
                                    patience=4),
            dqr_config=TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=4,
                                   patience=4),
            cvae_hidden=(8, 8), seed=3)
        region = model.region(normalized.x[parts["test"][2]])
        assert region.shape == (461, 2)
        assert hashlib.sha256(region.tobytes()).hexdigest()[:16] == "98b4ff6dc0f52af9"

    def test_same_seed_fits_identically(self, monkeypatch):
        data = gen_synthetic(NONLINEAR, d=2, p=1, n=1200, seed=5)
        parts = split(data.n, seed=5)
        normalized = zscore_fit_apply(data, parts["train"])
        args = (normalized.x[parts["train"]], normalized.y[parts["train"]],
                normalized.x[parts["validation"]], normalized.y[parts["validation"]])
        kwargs = dict(alpha=0.07,
                      cvae_config=TrainConfig(batch_size=128, max_epochs=10, patience=10),
                      dqr_config=TrainConfig(batch_size=128, max_epochs=5, patience=5),
                      cvae_hidden=(16, 16), seed=7)
        monkeypatch.setattr(cvae, "LATENT_DIM", 2)
        monkeypatch.setattr(npdqr, "POOL_SIZE", 128)
        monkeypatch.setattr(npdqr, "MEMBERSHIP_DIRECTIONS", 32)
        monkeypatch.setattr(npdqr, "HIDDEN", (16,))
        m1, _ = fit(*args, **kwargs)
        m2, _ = fit(*args, **kwargs)
        assert m1.extractor.model.net.widths == (1 + 2, 16, 1)
        assert len(m1.extractor.model.membership_directions) == 32
        for a, b in zip(
            m1.cvae.encoder.parameters() + m1.cvae.decoder.parameters()
            + m1.extractor.model.net.parameters(),
            m2.cvae.encoder.parameters() + m2.cvae.decoder.parameters()
            + m2.extractor.model.net.parameters(),
        ):
            assert np.array_equal(a, b)
        assert np.array_equal(m1.extractor.points, m2.extractor.points)


class TestOneDimensionalLatent:
    def test_latent_region_is_an_interval(self, monkeypatch):
        data = gen_synthetic(NONLINEAR, d=2, p=1, n=1500, seed=9)
        parts = split(data.n, seed=9)
        normalized = zscore_fit_apply(data, parts["train"])
        monkeypatch.setattr(npdqr, "POOL_SIZE", 64)
        monkeypatch.setattr(npdqr, "MEMBERSHIP_DIRECTIONS", 32)
        monkeypatch.setattr(npdqr, "HIDDEN", (16, 16))
        monkeypatch.setattr(cvae, "LATENT_DIM", 1)
        model, _ = fit(
            normalized.x[parts["train"]], normalized.y[parts["train"]],
            normalized.x[parts["validation"]], normalized.y[parts["validation"]],
            alpha=0.07,
            cvae_config=TrainConfig(batch_size=128, max_epochs=60, patience=20),
            dqr_config=TrainConfig(batch_size=128, max_epochs=40, patience=15),
            cvae_hidden=(32, 32), seed=3,
        )
        assert model.extractor.model.net.widths == (1 + 1, 16, 16, 1)
        assert len(model.extractor.model.membership_directions) == 32
        latent = model.extractor.extract(normalized.x[parts["test"][0]])
        centers = np.unique(model.extractor.points[:, 0])
        member = np.isin(centers, latent[:, 0])
        if member.any():
            first, last = np.argmax(member), len(member) - np.argmax(member[::-1]) - 1
            assert member[first : last + 1].all()  # contiguous run

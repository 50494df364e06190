import hashlib

import numpy as np
import pytest

from curves import record_loss_curves
from gradcheck import central_difference, relative_errors, sample_probes
from oracles import as_float64
from qregions.cvae import (
    CvaeModel,
    composite_loss_and_grads,
    decode_batch,
    default_hidden,
    encode_batch,
    fit,
    gaussian_kl_rows,
    reconstruction_mse,
)
from qregions import cvae, experiment, nn, stdqr
from qregions.data import NONLINEAR, gen_synthetic, split, zscore_fit_apply
from qregions.nn import MlpModel, TrainConfig, init_mlp
from qregions.numerics import Rng


def posterior_sample(model, x, y, rng):
    """A reparameterized latent draw mu + exp(logvar / 2) * eps."""
    mu, logvar = model.posterior(x, y)
    return mu + np.exp(0.5 * logvar) * rng.standard_normal(size=mu.shape)


def step_caches(encoder, decoder, x):
    """New training caches of the encoder and decoder for a step over ``x``."""
    return [nn.training_cache(net, len(x)) for net in (encoder, decoder)]


def zeroed_cvae(p=1, d=2, r=2):
    """A CVAE of float64 nets whose weights and biases are all zero, so
    that values set by hand keep their float64 bits."""
    encoder = as_float64(init_mlp((p + d, 4, 2 * r), Rng(0)))
    decoder = as_float64(init_mlp((p + r, 4, d), Rng(1)))
    for net in (encoder, decoder):
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
    return CvaeModel(encoder, decoder, r)


class TestHiddenDefaults:
    def test_brackets(self):
        assert default_hidden(1) == (32, 64, 128, 256, 128, 64, 32)
        assert default_hidden(8) == (64, 128, 256, 128, 64)
        assert default_hidden(10) == (64, 128, 256, 512, 256, 128, 64)
        assert default_hidden(20) == (64, 128, 256, 256, 128, 64)
        assert default_hidden(100) == (128, 256, 512, 512, 256, 128)
        # Both ends of a bracket of p take its stack, and the brackets' stacks differ.
        brackets = [(1, 5), (6, 8), (9, 10), (11, 25), (26, 100)]
        assert all(default_hidden(lo) == default_hidden(hi) for lo, hi in brackets)
        assert len({default_hidden(lo) for lo, _ in brackets}) == len(brackets)

    @pytest.mark.parametrize("p", [1, 26])
    def test_fit_without_a_stack_builds_the_default(self, monkeypatch, p):
        # The cell resolves a profile's missing stack; the auto-encoder it
        # trains is caught before the latent stage.
        rng = Rng(8)
        x, y = rng.uniform(size=(12, p)), rng.uniform(size=(12, 2))
        prep = experiment.PreparedData(
            x={"train": x[:8], "validation": x[8:], "calibration": x[8:]},
            y={"train": y[:8], "validation": y[8:], "calibration": y[8:]})
        capped = experiment.TrainingProfile().merged({"cvae": {"max_epochs": 1, "patience": 1}})
        config = experiment.ExperimentConfig(
            dataset={"kind": "synthetic", "setting": NONLINEAR, "d": 2, "p": p, "n": 12},
            methods=("stdqr",), training=capped)
        fitted = []

        class Fitted(Exception):
            pass

        def fit_and_stop(*args, **kwargs):
            fitted.append(fit(*args, **kwargs))
            raise Fitted

        monkeypatch.setattr(stdqr, "fit_cvae", fit_and_stop)
        with pytest.raises(Fitted):
            experiment.fit_and_calibrate("stdqr", config, prep, seed=0)
        ((model, _),) = fitted
        assert model.encoder.widths == (p + 2, *default_hidden(p), 6)
        assert model.decoder.widths == (p + 3, *default_hidden(p), 2)


class TestEncodeDecode:
    def test_zeroed_encoder_gives_noise_or_zero(self):
        model = zeroed_cvae()
        x, y = np.zeros((1, 1)), np.zeros((1, 2))
        assert np.array_equal(encode_batch(model, x, y), np.zeros((1, 2)))
        z = posterior_sample(model, x, y, Rng(3))
        # mu = 0, logvar = 0, so z is exactly the standard normal draw.
        assert np.array_equal(z, Rng(3).standard_normal(size=(1, 2)))

    def test_deterministic_encoding_repeats(self):
        model = zeroed_cvae()
        a = encode_batch(model, np.zeros((1, 1)), np.zeros((1, 2)))
        b = encode_batch(model, np.zeros((1, 1)), np.zeros((1, 2)))
        assert np.array_equal(a, b)

    def test_zeroed_decoder_outputs_bias(self):
        model = zeroed_cvae()
        model.decoder.biases[-1][...] = [0.7, -0.2]
        assert np.array_equal(decode_batch(model, np.zeros((1, 1)), np.zeros((1, 2))),
                              [[0.7, -0.2]])

    def test_decode_is_pure(self):
        model = zeroed_cvae()
        x, z = np.array([[0.3]]), np.array([[1.0, -1.0]])
        assert np.array_equal(decode_batch(model, x, z), decode_batch(model, x, z))

    def test_shape_validation(self):
        model = zeroed_cvae()
        with pytest.raises(ValueError):
            encode_batch(model, np.zeros((1, 1)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            decode_batch(model, np.zeros((1, 1)), np.zeros((1, 3)))

    def test_decode_batch_rejects_unpaired_rows(self):
        # One x row is not broadcast against many codes: the caller repeats it.
        model = zeroed_cvae()
        z = Rng(0).standard_normal(size=(7, 2))
        with pytest.raises(ValueError):
            decode_batch(model, np.zeros((1, 1)), z)
        assert decode_batch(model, np.zeros((7, 1)), z).shape == (7, 2)


class TestLossDecomposition:
    def test_total_is_recon_plus_weighted_kl(self, monkeypatch):
        # For the float32 nets init_mlp makes and for float64 copies: a
        # step scores its loss terms in float64 either way.
        for make_net in (lambda net: net, as_float64):
            rng = Rng(9)
            encoder = make_net(init_mlp((3, 6, 4), rng))
            decoder = make_net(init_mlp((3, 6, 2), rng))
            x = rng.uniform(size=(16, 1))
            y = rng.uniform(size=(16, 2))
            eps = rng.standard_normal(size=(16, 2))
            caches = step_caches(encoder, decoder, x)
            monkeypatch.setattr(cvae, "KL_WEIGHT", 0.0)
            loss_l0, _ = composite_loss_and_grads(encoder, decoder, x, y, eps, caches)
            monkeypatch.setattr(cvae, "KL_WEIGHT", 1.0)
            loss_l1, _ = composite_loss_and_grads(encoder, decoder, x, y, eps, caches)
            # The lam = 0 loss is the pure reconstruction term; the
            # difference at lam = 1 is the mean per-sample KL, which is
            # nonnegative.
            model = CvaeModel(encoder, decoder, 2)
            mu, logvar = model.posterior(x, y)
            mean_kl = np.mean(gaussian_kl_rows(mu, logvar))
            assert loss_l1 - loss_l0 == pytest.approx(mean_kl, rel=1e-9)
            assert mean_kl >= 0.0
            assert loss_l0 >= 0.0


class TestReparameterizationGradients:
    def test_matches_finite_differences_with_fixed_noise(self, monkeypatch):
        rng = Rng(33)
        # Float64 nets, so that central differences resolve.
        encoder = as_float64(init_mlp((4, 4, 4), rng))  # p=2, d=2, r=2
        decoder = as_float64(init_mlp((4, 4, 2), rng))
        x = rng.uniform(-1, 1, size=(8, 2))
        y = rng.uniform(-1, 1, size=(8, 2))
        eps = rng.standard_normal(size=(8, 2))
        monkeypatch.setattr(cvae, "KL_WEIGHT", 0.01)
        # The analytic gradients are views of their caches, so the probes
        # run in caches of their own.
        caches, probe_caches = step_caches(encoder, decoder, x), step_caches(encoder, decoder, x)

        def loss_value():
            loss, _ = composite_loss_and_grads(encoder, decoder, x, y, eps, probe_caches)
            return loss

        composite_loss_and_grads(encoder, decoder, x, y, eps, caches)
        analytic = caches[0]["grads"] + caches[1]["grads"]
        params = encoder.parameters() + decoder.parameters()
        probes = sample_probes(params, 40, Rng(5))
        numeric = central_difference(loss_value, params, probes)
        flat_analytic = [analytic[p].reshape(-1)[i] for p, i in probes]
        assert relative_errors(flat_analytic, numeric).max() <= 1e-4


@pytest.fixture(scope="module")
def nonlinear_cvae():
    """CVAE trained on normalized nonlinear synthetic data, shared, with its
    training histories and the calibration rows."""
    data = gen_synthetic(NONLINEAR, d=2, p=1, n=4000, seed=3)
    parts = split(data.n, seed=3)
    normalized = zscore_fit_apply(data, parts["train"])
    x_tr, y_tr = normalized.x[parts["train"]], normalized.y[parts["train"]]
    x_v, y_v = normalized.x[parts["validation"]], normalized.y[parts["validation"]]
    config = TrainConfig(learning_rate=2e-3, batch_size=256, max_epochs=1100, patience=150)
    model, histories = fit(x_tr, y_tr, x_v, y_v, config=config, hidden=(64, 64, 64), seed=0)
    x_cal, y_cal = normalized.x[parts["calibration"]], normalized.y[parts["calibration"]]
    return model, histories, (x_cal, y_cal)


class TestFit:
    def test_identity_task_without_kl(self, monkeypatch):
        # With lam = 0 and r = d the model only has to autoencode.
        rng = Rng(17)
        y = rng.uniform(-1, 1, size=(2000, 2))
        x = rng.uniform(size=(2000, 1))
        config = TrainConfig(learning_rate=2e-3, batch_size=256, max_epochs=150,
                             patience=150)
        monkeypatch.setattr(cvae, "LATENT_DIM", 2)
        monkeypatch.setattr(cvae, "KL_WEIGHT", 0.0)
        model, _ = fit(x[:1600], y[:1600], x[1600:], y[1600:], config=config,
                       hidden=(32, 32), seed=2)
        assert reconstruction_mse(model, x[1600:], y[1600:]) <= 0.01

    def test_huge_kl_weight_collapses_posterior(self, monkeypatch):
        rng = Rng(23)
        y = rng.uniform(-1, 1, size=(1200, 2))
        x = rng.uniform(size=(1200, 1))
        config = TrainConfig(learning_rate=2e-3, batch_size=256, max_epochs=120,
                             patience=120)
        monkeypatch.setattr(cvae, "LATENT_DIM", 2)
        monkeypatch.setattr(cvae, "KL_WEIGHT", 1e3)
        model, _ = fit(x[:1000], y[:1000], x[1000:], y[1000:], config=config,
                       hidden=(16, 16), seed=4)
        mu, logvar = model.posterior(x[1000:], y[1000:])
        # Posterior pinned to the prior: means near 0, variances near 1,
        # far below the response scale (~0.58 for uniform(-1, 1) data).
        assert np.max(np.abs(mu)) <= 0.15
        assert np.max(np.abs(logvar)) <= 0.15

    def test_trained_bits_are_pinned(self, monkeypatch):
        # A change to the training step, its draws or their order moves
        # these bits, and with them every seeded ST-DQR run. Batches of 16
        # leave a ragged last batch of 8 rows.
        rng = Rng(13)
        x, y = rng.uniform(size=(52, 2)), rng.standard_normal(size=(52, 2))
        config = TrainConfig(learning_rate=1e-2, batch_size=16, max_epochs=4, patience=4)
        monkeypatch.setattr(cvae, "LATENT_DIM", 2)
        curves = record_loss_curves(monkeypatch)
        model, histories = fit(x[:40], y[:40], x[40:], y[40:], config=config, hidden=(8, 8),
                               seed=7)
        history = histories["cvae"]
        bits = b"".join(a.tobytes() for a in
                        model.encoder.parameters() + model.decoder.parameters())
        [(_, val_losses)] = curves
        bits += np.array(val_losses).tobytes()
        assert history.epochs_run == 4
        assert hashlib.sha256(bits).hexdigest()[:16] == "7b1af30893e8e9b9"

    def test_nonlinear_fixture_stops_before_its_cap(self, nonlinear_cvae):
        # The assertions that share the fixture see a converged net.
        _, histories, _ = nonlinear_cvae
        assert not histories["cvae"].hit_cap

    def test_nonlinear_reconstruction_quality(self, nonlinear_cvae):
        model, _, (x_cal, y_cal) = nonlinear_cvae
        assert reconstruction_mse(model, x_cal, y_cal) <= 0.05

    def test_encoded_latents_near_standard_normal(self, nonlinear_cvae):
        # The latent variable is mu + sigma * eps; when the model is
        # trained its per-coordinate moments match the standard normal
        # target. (The posterior means alone would have near-zero
        # variance in any latent coordinate the decoder does not use.)
        model, _, (x_cal, y_cal) = nonlinear_cvae
        z = posterior_sample(model, x_cal, y_cal, Rng(77))
        means = z.mean(axis=0)
        variances = z.var(axis=0)
        assert np.max(np.abs(means)) <= 0.25
        assert np.all((0.5 <= variances) & (variances <= 1.5))

    def test_round_trip_error_matches_mse_bound(self, nonlinear_cvae):
        model, _, (x_cal, y_cal) = nonlinear_cvae
        z = encode_batch(model, x_cal, y_cal)
        back = decode_batch(model, x_cal, z)
        mse = float(np.mean(np.sum((back - y_cal) ** 2, axis=1)))
        assert mse == pytest.approx(reconstruction_mse(model, x_cal, y_cal), rel=1e-9)


class TestCacheReuse:
    def test_reused_caches_give_the_bits_of_fresh_ones(self, monkeypatch):
        # 600 rows in 256-row steps: the short last step of each epoch
        # writes into the first rows of the two caches fit makes.
        rng = Rng(29)
        x, y = rng.uniform(size=(700, 1)), rng.uniform(-1, 1, size=(700, 2))
        config = TrainConfig(learning_rate=2e-3, batch_size=256, max_epochs=6, patience=6)
        monkeypatch.setattr(cvae, "LATENT_DIM", 2)
        original = cvae.composite_loss_and_grads
        made, caches_seen = [], []

        def counted(net, rows):
            made.append(rows)
            return nn.training_cache(net, rows)

        def reusing(*args):
            caches_seen.append(args[-1])
            return original(*args)

        def fresh(*args):
            # Each step runs in new caches, whose gradients fit hands to Adam.
            return original(*args[:-1], step_caches(*args[:3]))

        curves = record_loss_curves(monkeypatch)
        runs = []
        for wrapper, cache_maker in ((reusing, counted), (fresh, nn.training_cache)):
            monkeypatch.setattr(cvae, "composite_loss_and_grads", wrapper)
            monkeypatch.setattr(cvae, "training_cache", cache_maker)
            runs.append(fit(x[:600], y[:600], x[600:], y[600:], config=config,
                            hidden=(16, 32), seed=1))
        (reused, reused_histories), (fresh_model, fresh_histories) = runs
        assert made == [256, 256]
        assert len({tuple(map(id, caches)) for caches in caches_seen}) == 1
        for got, want in zip(reused.encoder.parameters() + reused.decoder.parameters(),
                             fresh_model.encoder.parameters()
                             + fresh_model.decoder.parameters(), strict=True):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert reused_histories["cvae"] == fresh_histories["cvae"]
        reused_curves, fresh_curves = (np.array(run, dtype=np.float64) for run in curves)
        assert np.array_equal(reused_curves.view(np.uint64), fresh_curves.view(np.uint64))

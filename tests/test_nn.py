import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gradcheck import central_difference, relative_errors, sample_probes
from oracles import MseLoss, as_float64
from qregions import nn
from qregions.nn import (
    INFERENCE_ROWS,
    AdamState,
    MlpModel,
    PinballLoss,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    backward,
    forward_batch,
    forward_cached,
    init_mlp,
    train,
    train_minibatches,
    training_cache,
)
from qregions import naive_qr, npdqr
from qregions.cvae import default_hidden, gaussian_kl_rows
from qregions.numerics import Rng

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestForward:
    def test_zero_weights_give_zero_output(self):
        model = init_mlp((3, 4, 2), Rng(0))
        for w in model.weights:
            w[...] = 0.0
        assert np.array_equal(forward_batch(model, np.array([[1.0, -2.0, 3.0]]))[0],
                              np.zeros(2))

    def test_identity_single_layer(self):
        model = init_mlp((3, 3), Rng(0))
        model.weights[0][...] = np.eye(3)
        v = np.array([0.3, -1.2, 4.0])
        assert np.allclose(forward_batch(model, v[None, :])[0], v)

    def test_eval_mode_is_deterministic(self):
        model = init_mlp((4, 8, 8, 2), Rng(3))
        v = Rng(1).uniform(size=(1, 4))
        assert np.array_equal(forward_batch(model, v), forward_batch(model, v))

    def test_shape_mismatch_raises(self):
        model = init_mlp((3, 2), Rng(0))
        with pytest.raises(ValueError):
            forward_batch(model, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            forward_batch(model, np.zeros((5, 4)))
        with pytest.raises(ValueError):
            forward_batch(model, np.zeros((0, 4)))
        assert forward_batch(model, np.zeros((0, 3))).shape == (0, 2)


class TestPinball:
    def test_direct_values(self):
        assert PinballLoss(0.9).value(np.array([1.0]), np.array([0.0])) == pytest.approx(0.9)
        assert PinballLoss(0.9).value(np.array([0.0]), np.array([1.0])) == pytest.approx(0.1)
        assert PinballLoss(0.3).value(np.array([2.5]), np.array([2.5])) == 0.0

    @given(y=finite_floats, yhat=finite_floats,
           alpha=st.floats(min_value=0.01, max_value=0.99))
    @example(y=0.0, yhat=5e-324, alpha=0.5)
    def test_nonnegative_and_zero_only_at_match(self, y, yhat, alpha):
        value = PinballLoss(alpha).value(np.array([y]), np.array([yhat]))
        assert value >= 0.0
        # A residual of a few subnormals times the level can round to 0
        # (0.5 * 5e-324 == 0.0); the loss is then exactly right at 0.
        if min(alpha, 1.0 - alpha) * abs(y - yhat) > 0.0:
            assert value > 0.0

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            PinballLoss(1.5)


class TestGaussianKl:
    """``cvae.gaussian_kl_rows``, the KL term of the CVAE objective, on
    one-row batches."""

    def test_standard_normal_is_zero(self):
        assert gaussian_kl_rows(np.zeros((1, 3)), np.zeros((1, 3)))[0] == pytest.approx(0.0)

    def test_mean_shift_closed_form(self):
        assert gaussian_kl_rows(np.array([[1.0, 0.0]]), np.zeros((1, 2)))[0] == \
            pytest.approx(0.5)

    def test_matches_numeric_kl_integral(self):
        # KL(N(0, 4) || N(0, 1)) by quadrature over the density ratio.
        t = np.linspace(-40, 40, 400_001)
        var = 4.0
        p = np.exp(-0.5 * t * t / var) / math.sqrt(2 * math.pi * var)
        log_ratio = (-0.5 * t * t / var - 0.5 * math.log(var)) - (-0.5 * t * t)
        oracle = np.trapezoid(p * log_ratio, t)
        got = gaussian_kl_rows(np.zeros((1, 1)), np.array([[math.log(4.0)]]))[0]
        assert got == pytest.approx(oracle, abs=1e-6)
        assert got == pytest.approx(0.5 * (4 - 1 - math.log(4)), abs=1e-12)

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=6),
           st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=6))
    def test_nonnegative(self, mu, logvar):
        k = min(len(mu), len(logvar))
        assert gaussian_kl_rows(np.array([mu[:k]]), np.array([logvar[:k]]))[0] >= -1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kl_rows(np.zeros((1, 2)), np.zeros((1, 3)))


class TestAdam:
    def test_accumulators_mirror_params(self):
        model = init_mlp((3, 5, 2), Rng(0))
        state = AdamState.for_params(model.parameters())
        for p, part in zip(model.parameters(), state.parts, strict=True):
            assert [a.shape for a in part] == [p.shape] * 4
        moments = [a for m, v, _, _ in state.parts for a in (m, v)]
        assert not any(a.any() for a in moments) and state.t == 0

    def test_first_step_is_signed_learning_rate(self):
        p = np.array([1.0])
        state = AdamState.for_params([p])
        adam_step([p], [np.array([0.04])], state, lr=0.001)
        # With bias correction the first step is lr * g/|g| up to eps.
        assert p[0] == pytest.approx(1.0 - 0.001, rel=1e-3)

    def test_step_on_a_flat_vector_allocates_nothing(self):
        # A training cache's gradient has the net's dtype, as the moments do.
        model = init_mlp((1, 64, 64, 64, 1), Rng(0))
        grad = Rng(1).uniform(-1, 1, size=model.flat.size).astype(model.flat.dtype)
        state = AdamState.for_params([model.flat])
        adam_step([model.flat], [grad], state, lr=1e-3)
        tracemalloc.start()
        try:
            adam_step([model.flat], [grad], state, lr=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024

    def test_encoder_and_decoder_vectors_match_per_array_reference(self):
        # The flat vectors cvae.fit trains, against _reference_adam on
        # copies of them, over 300 steps with gradients of varied scale.
        hidden = default_hidden(1)
        encoder, decoder = init_mlp((3, *hidden, 6), Rng(0)), init_mlp((4, *hidden, 2), Rng(1))
        params = [encoder.flat, decoder.flat]
        reference = [p.copy() for p in params]
        state = AdamState.for_params(params)
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in reference]
        rng = Rng(2)
        for t in range(1, 301):
            grads = [(rng.standard_normal(size=p.size) * 10.0 ** rng.uniform(-6, 2))
                     .astype(p.dtype) for p in params]
            adam_step(params, grads, state, lr=1e-3)
            _reference_adam(reference, grads, moments, t, lr=1e-3)
        for p, ref_p in zip(params, reference, strict=True):
            _assert_same_bits(p, ref_p)

    def test_weights_and_biases_are_views_of_flat(self):
        model = init_mlp((3, 8, 8, 2), Rng(0))
        before = [p.copy() for p in model.parameters()]
        assert sum(p.size for p in before) == model.flat.size
        model.flat += 1.0
        for p, old in zip(model.parameters(), before, strict=True):
            assert np.shares_memory(p, model.flat)
            _assert_same_bits(p, old + 1.0)


def _reference_forward(model, x, keep_cache=True):
    """The np.where forward pass, in the net's dtype, that the in-place one
    must match bit for bit."""
    cache = {"inputs": [], "pre_act": []}
    a = np.asarray(x, dtype=model.flat.dtype)
    n_layers = len(model.weights)
    for k in range(n_layers):
        cache["inputs"].append(a)
        z = a @ model.weights[k] + model.biases[k]
        if k == n_layers - 1:
            return z, (cache if keep_cache else None)
        cache["pre_act"].append(z)
        a = np.where(z > 0, z, nn.LEAKY_SLOPE * z)


def _reference_backward(model, cache, grad_out):
    dtype = model.flat.dtype.type
    n_layers = len(model.weights)
    w_grads, b_grads = [None] * n_layers, [None] * n_layers
    delta = np.asarray(grad_out, dtype=dtype)
    for k in reversed(range(n_layers)):
        if k != n_layers - 1:
            delta = delta * np.where(cache["pre_act"][k] > 0, dtype(1.0), dtype(nn.LEAKY_SLOPE))
        w_grads[k] = cache["inputs"][k].T @ delta
        b_grads[k] = delta.sum(axis=0)
        delta = delta @ model.weights[k].T
    return w_grads + b_grads, delta


def _reference_adam(params, grads, moments, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-array Adam; ``moments`` is a list of (m, v) pairs updated in place."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, (m, v) in zip(params, grads, moments):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _grads_and_input_gradient(model, cache, grad_out):
    """``backward``'s gradients, and the input gradient from its delta."""
    grads, delta = backward(model, cache, grad_out)
    return grads, delta @ model.weights[0].T


def _assert_same_bits(got, want):
    """Equal shapes and identical float64 bit patterns (so -0 != +0); a
    float32 value converts to float64 exactly, so this compares its bits too."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _train_forward(model, x):
    """A train-mode pass of ``x`` in a new training cache of ``len(x)``
    rows; returns (output, cache)."""
    cache = training_cache(model, len(x))
    return forward_cached(model, x, train_mode=True, cache=cache), cache


def _copy(model: MlpModel) -> MlpModel:
    """A net with the same bits that shares no array with ``model``."""
    return MlpModel(model.widths, [w.copy() for w in model.weights],
                    [b.copy() for b in model.biases])


class TestBitwiseOracle:
    """The in-place forward, backward and flat Adam against the np.where
    and per-array code they replaced, over 15 training steps.  `zeros` is
    the share of input entries replaced by a zero of the same sign."""

    @pytest.mark.parametrize("rows", [1, 7, 256, 1025, 2100])
    @pytest.mark.parametrize("zeros", [0.0, 0.3])
    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
    @pytest.mark.parametrize("widths", [(1, 64, 64, 64, 1), (4, 64, 64, 64, 1),
                                        (3, 8, 8, 2), (2, 1)])
    def test_training_steps_match_reference(self, widths, slope, zeros, rows, monkeypatch):
        monkeypatch.setattr(nn, "LEAKY_SLOPE", slope)
        model = init_mlp(widths, Rng(rows))
        reference = _copy(model)
        adam = AdamState.for_params(model.parameters())
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in reference.parameters()]
        data_rng, zero_rng = Rng(1), Rng(2)
        loss = MseLoss()
        for t in range(1, 16):
            x = data_rng.uniform(-1, 1, size=(rows, widths[0]))
            x = np.where(zero_rng.uniform(size=x.shape) < zeros, np.copysign(0.0, x), x)
            x[0, 0] = -0.0
            if rows > 1:
                x[1] = 0.0
            y = data_rng.uniform(-1, 1, size=(rows, widths[-1]))

            out, cache = _train_forward(model, x)
            ref_out, ref_cache = _reference_forward(reference, x)
            _assert_same_bits(out, ref_out)
            for a, ref_a in zip(cache["inputs"], ref_cache["inputs"], strict=True):
                _assert_same_bits(a, ref_a)

            _, grad_out = loss.value_and_grad(y, out)
            grads, grad_input = _grads_and_input_gradient(model, cache, grad_out)
            ref_grads, ref_grad_input = _reference_backward(reference, ref_cache,
                                                            grad_out.copy())
            for g, ref_g in zip(grads, ref_grads, strict=True):
                _assert_same_bits(g, ref_g)
            _assert_same_bits(grad_input, ref_grad_input)

            adam_step(model.parameters(), grads, adam, lr=1e-2)
            _reference_adam(reference.parameters(), ref_grads, moments, t, lr=1e-2)
            for p, ref_p in zip(model.parameters(), reference.parameters(), strict=True):
                _assert_same_bits(p, ref_p)

            # Inference runs in blocks, so the reference does too.
            ref_eval = np.concatenate([
                _reference_forward(reference, x[i : i + INFERENCE_ROWS], keep_cache=False)[0]
                for i in range(0, rows, INFERENCE_ROWS)])
            _assert_same_bits(forward_batch(model, x), ref_eval)

    @pytest.mark.parametrize("slope", [0.0, 0.2])
    @pytest.mark.parametrize("widths", [(4, 64, 64, 64, 1), (3, 8, 8, 2), (2, 1)])
    def test_reused_cache_matches_fresh_caches(self, widths, slope, monkeypatch):
        # One cache, made for the largest step, goes back to every step,
        # the shorter ones included; a second model takes a fresh cache of
        # each step's rows.
        monkeypatch.setattr(nn, "LEAKY_SLOPE", slope)
        model = init_mlp(widths, Rng(5))
        fresh = _copy(model)
        adam, fresh_adam = (AdamState.for_params(m.parameters()) for m in (model, fresh))
        data_rng, loss, cache = Rng(6), MseLoss(), training_cache(model, 2100)
        for rows in (64, 64, 17, 64, 1500, 700, 2100):
            x = data_rng.uniform(-1, 1, size=(rows, widths[0]))
            y = data_rng.uniform(-1, 1, size=(rows, widths[-1]))
            out = forward_cached(model, x, train_mode=True, cache=cache)
            fresh_out, fresh_cache = _train_forward(fresh, x)
            _assert_same_bits(out, fresh_out)
            _, grad_out = loss.value_and_grad(y, out)
            grads, grad_input = _grads_and_input_gradient(model, cache, grad_out)
            fresh_grads, fresh_grad_input = _grads_and_input_gradient(fresh, fresh_cache,
                                                                      grad_out)
            for g, fresh_g in zip(grads, fresh_grads, strict=True):
                _assert_same_bits(g, fresh_g)
            _assert_same_bits(grad_input, fresh_grad_input)
            adam_step(model.parameters(), grads, adam, lr=1e-2)
            adam_step(fresh.parameters(), fresh_grads, fresh_adam, lr=1e-2)

    def test_cache_with_too_few_rows_is_refused(self):
        # A step never replaces the cache it is given: one of 17 rows
        # refuses 40 and keeps its buffers for the steps it can hold.
        model = init_mlp((3, 8, 8, 1), Rng(0))
        x = Rng(1).uniform(-1, 1, size=(40, 3))
        cache = training_cache(model, 17)
        buffers = list(cache["buffers"])
        with pytest.raises(ValueError):
            forward_cached(model, x, train_mode=True, cache=cache)
        out = forward_cached(model, x[:17], train_mode=True, cache=cache)
        assert all(got is kept for got, kept in zip(cache["buffers"], buffers, strict=True))
        assert all(a.base is b for a, b in zip(cache["inputs"][1:], buffers, strict=True))
        _assert_same_bits(out, _train_forward(model, x[:17])[0])

    def test_activation_keeps_signed_zeros_and_nan(self, monkeypatch):
        # The special values are of the net's dtype, its subnormal among them.
        dtype = init_mlp((1, 1, 1), Rng(0)).flat.dtype
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([[-0.0], [0.0], [np.nan], [-2.0], [3.0], [-4 * tiny]], dtype=dtype)
        for slope in (0.0, 0.2, 1.0):
            monkeypatch.setattr(nn, "LEAKY_SLOPE", slope)
            model = init_mlp((1, 1, 1), Rng(0))
            model.weights[0][...] = 1.0
            out, cache = _train_forward(model, special)
            ref_out, ref_cache = _reference_forward(model, special)
            _assert_same_bits(cache["inputs"][1], ref_cache["inputs"][1])
            _assert_same_bits(out, ref_out)
            # A matmul never yields -0 here, so put the special values
            # into the reference pre-activations directly, and their
            # activations into both caches.
            ref_cache["pre_act"][0] = special.copy()
            ref_cache["inputs"][1] = np.where(special > 0, special, slope * special)
            cache["inputs"][1][...] = ref_cache["inputs"][1]
            grad_out = np.ones_like(out)
            grads, grad_input = _grads_and_input_gradient(model, cache, grad_out)
            ref_grads, ref_grad_input = _reference_backward(model, ref_cache, grad_out)
            for g, ref_g in zip(grads, ref_grads, strict=True):
                _assert_same_bits(g, ref_g)
            _assert_same_bits(grad_input, ref_grad_input)

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
    @given(z=st.floats(allow_nan=True, allow_infinity=False, allow_subnormal=True))
    def test_derivative_from_activation_matches_pre_activation(self, slope, z):
        tiny = np.finfo(float).smallest_subnormal
        specials = [-0.0, 0.0, -tiny, tiny, -1e-310, 1e-310, -1.0, 1.0, np.nan]
        if slope > 0:
            specials += [-np.inf, np.inf]
        z = np.array(specials + [z])
        activation = np.maximum(z, np.multiply(z, slope))
        _assert_same_bits(np.maximum(activation > 0, slope), np.maximum(z > 0, slope))


# The blocked and unblocked passes of a float32 net may differ by as many
# float32 ulps as float64 passes may differ by float64 ulps at rtol 1e-12.
FLOAT32_BLOCK_RTOL = 1e-12 / np.finfo(np.float64).eps * np.finfo(np.float32).eps


class TestInferenceBlocks:
    """``forward_batch`` against one unblocked eval-mode pass, for the
    float32 nets ``init_mlp`` makes and for float64 copies.  Up to
    INFERENCE_ROWS rows they agree bit for bit.  Above it, the blocks are
    separate passes, and OpenBLAS picks its kernel by row count, so the
    unblocked pass can differ in the last bits (a one-row tail at 1,025
    rows; single passes of ~7,000 rows and more)."""

    @pytest.mark.parametrize("rows", [1, 7, 256, 1000, 1024, 1025, 3000, 7862])
    @pytest.mark.parametrize("widths", [(1, 64, 64, 64, 1), (4, 64, 64, 64, 2), (3, 8, 8, 2)])
    def test_blocks_match_unblocked_pass(self, widths, rows):
        x = Rng(3).uniform(-1, 1, size=(rows, widths[0]))
        net = init_mlp(widths, Rng(rows))
        for model, rtol in ((net, FLOAT32_BLOCK_RTOL), (as_float64(net), 1e-12)):
            blocked = forward_batch(model, x)
            single = forward_cached(model, x, train_mode=False, cache=None)
            if rows <= INFERENCE_ROWS:
                _assert_same_bits(blocked, single)
                continue
            per_block = np.concatenate([
                forward_cached(model, x[i : i + INFERENCE_ROWS], train_mode=False, cache=None)
                for i in range(0, rows, INFERENCE_ROWS)])
            _assert_same_bits(blocked, per_block)
            # Outputs near zero are sums that cancel, so the tolerance is
            # relative to the largest output as well as to each one.
            np.testing.assert_allclose(blocked, single, rtol=rtol,
                                       atol=rtol * np.abs(single).max())


def _consumed_cache(model, rows):
    """The cache of one training step over ``rows`` rows, after backward."""
    x = Rng(11).uniform(-1, 1, size=(rows, model.in_width))
    out, cache = _train_forward(model, x)
    backward(model, cache, np.ones_like(out) / rows)
    return cache


LENT_PASS_SLACK = 128 * 1024  # what a lent pass may allocate beside its output


class TestLentBuffers:
    """An inference pass in the buffers of a consumed training cache
    against one that allocates its own, for the float32 nets ``init_mlp``
    makes and for float64 copies."""

    @pytest.mark.parametrize("rows", [1, 1024, 1025, 2560, 7862])
    @pytest.mark.parametrize("widths", [(4, 64, 64, 64, 1), (3, 16, 8, 2)])
    def test_validation_in_lent_buffers_matches_own_buffers(self, widths, rows):
        x = Rng(3).uniform(-1, 1, size=(rows, widths[0]))
        y = Rng(4).uniform(-1, 1, size=(rows, widths[-1]))
        net = init_mlp(widths, Rng(rows))
        for model in (net, as_float64(net)):
            loss, cache = PinballLoss(0.1), _consumed_cache(model, 6144)
            lent = forward_batch(model, x, cache)
            own = forward_batch(model, x)
            _assert_same_bits(lent, own)
            _assert_same_bits(loss.value(y, lent), loss.value(y, own))
            # The lent cache still serves the next training step. A batch
            # of the net's dtype enters it uncast.
            step_x = Rng(5).uniform(-1, 1, size=(6144, widths[0])).astype(model.flat.dtype)
            out = forward_cached(model, step_x, train_mode=True, cache=cache)
            assert cache["inputs"][0] is step_x
            _assert_same_bits(out, _train_forward(model, step_x)[0])

    def test_validation_in_lent_buffers_allocates_only_its_output(self):
        # Without the lent buffers each 1,024-row block allocates its
        # 512 KiB matmul output and s*z beside the previous layer's output
        # (1.5 MiB in all). With them, a block allocates its 8 KiB output,
        # and numpy a 64 KiB buffer for the broadcast bias add.
        model = init_mlp((4, 64, 64, 64, 1), Rng(0))
        cache = _consumed_cache(model, 6144)
        x = Rng(1).uniform(-1, 1, size=(2560, 4))
        tracemalloc.start()
        try:
            out = forward_batch(model, x, cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + LENT_PASS_SLACK

    @pytest.mark.parametrize("val_rows", [2560, 1025])
    def test_train_validates_in_its_step_cache(self, val_rows, monkeypatch):
        # nn.train trains in 256-row steps here, and its cache has rows for
        # a validation block too, so every validation pass, the one-row
        # tail of 1,025 rows included, runs in the consumed step's buffers.
        rng = Rng(val_rows)
        x, y = rng.uniform(-1, 1, size=(1024, 4)), rng.uniform(-1, 1, size=(1024, 1))
        x_val = rng.uniform(-1, 1, size=(val_rows, 4))
        y_val = rng.uniform(-1, 1, size=(val_rows, 1))
        config = TrainConfig(batch_size=256, max_epochs=4, patience=4)
        real = nn.forward_batch

        def val_losses():
            history = train(init_mlp((4, 64, 64, 64, 1), Rng(0)), len(x),
                            lambda idx: (x[idx], y[idx]), (x_val, y_val), PinballLoss(0.1),
                            config, Rng(1))
            return history.val_losses

        passes = []

        def traced(model, rows, cache=None):
            assert cache["positive"].shape[0] >= INFERENCE_ROWS
            tracemalloc.start()
            try:
                out = real(model, rows, cache)
                passes.append((tracemalloc.get_traced_memory()[1], out.nbytes))
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(nn, "forward_batch", traced)
        lent = val_losses()
        assert len(passes) == len(lent) == 4
        assert all(peak < out_bytes + LENT_PASS_SLACK for peak, out_bytes in passes)
        monkeypatch.setattr(nn, "forward_batch", lambda model, rows, cache=None: real(model, rows))
        _assert_same_bits(lent, val_losses())


class TestActivationMemory:
    def test_inference_peak_is_a_few_blocks(self):
        model = init_mlp((4, 64, 64, 64, 1), Rng(0))
        x = Rng(1).uniform(-1, 1, size=(50_000, 4))
        tracemalloc.start()
        try:
            out = forward_batch(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * INFERENCE_ROWS * 64 * 8 + out.nbytes

    def test_training_step_keeps_one_buffer_per_hidden_layer_and_scratch(self):
        # One float32 buffer per hidden layer, one bool mask as large, one
        # float32 scratch of at most an inference block, one flat float32
        # gradient vector, the batch cast to float32, and nothing else.
        widths, rows = (4, 64, 64, 64, 1), 6144
        model = init_mlp(widths, Rng(0))
        x = Rng(1).uniform(-1, 1, size=(rows, widths[0]))
        out, cache = _train_forward(model, x)
        backward(model, cache, np.ones_like(out) / rows)
        _assert_cache_layout(cache, widths, rows)

    def test_train_cache_has_rows_for_a_validation_block(self, monkeypatch):
        # nn.train's 256-row steps share one cache with 1,024-row buffers
        # and scratch, so that it can lend them to a validation block.
        widths = (4, 64, 64, 64, 1)
        caches, real = [], nn.backward
        monkeypatch.setattr(nn, "backward", lambda *args: caches.append(args[1]) or real(*args))
        data = Rng(1).uniform(-1, 1, size=(2 * INFERENCE_ROWS, widths[0]))
        train(init_mlp(widths, Rng(0)), 512, lambda idx: (data[idx], data[idx, :1]),
              (data, data[:, :1]), PinballLoss(0.5),
              TrainConfig(batch_size=256, max_epochs=1, patience=1), Rng(2))
        assert len(caches) == 2 and caches[0] is caches[1]
        _assert_cache_layout(caches[0], widths, INFERENCE_ROWS)


def _assert_cache_layout(cache, widths, rows):
    """The arrays a consumed training cache of a float32 net with
    ``widths`` and 64-unit hidden layers owns, beside its batch, for steps
    of up to ``rows`` rows, with their exact bytes (4 per float)."""

    def owner(array):
        while array.base is not None:
            array = array.base
        return array

    assert set(cache) == {"buffers", "positive", "scratch", "gradient", "grads", "inputs"}
    owners = {id(owner(a)): owner(a) for a in [
        *cache["buffers"], cache["positive"], cache["scratch"], cache["gradient"],
        *cache["grads"], *cache["inputs"]]}
    x = owner(cache["inputs"][0])
    scratch_rows = min(rows, INFERENCE_ROWS)
    n_params = sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))
    layout = sorted((a.shape, a.dtype.name) for a in owners.values() if a is not x)
    assert layout == sorted([((rows, 64), "float32")] * len(widths[1:-1])
                            + [((rows, 64), "bool"), ((scratch_rows, 64), "float32"),
                               ((n_params,), "float32")])
    assert sum(a.nbytes for a in owners.values()) == (
        len(widths[1:-1]) * rows * 64 * 4 + rows * 64 + scratch_rows * 64 * 4
        + n_params * 4 + x.nbytes)



class TestSinglePrecision:
    def test_a_float32_step_runs_no_float64_loop(self):
        # Every ufunc that a train-mode forward pass, backward, an Adam
        # step and a blocked inference pass apply to the net's arrays, its
        # cache's or its Adam state's is recorded with the loop numpy
        # resolves for it. The batch and the output gradient arrive in
        # float64, as the losses give them.
        loops = []

        class Recorded(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if method == "__call__":
                    dtypes = tuple(type(a) if isinstance(a, (bool, int, float))
                                   else np.asarray(a).dtype for a in inputs)
                    loop = ufunc.resolve_dtypes(dtypes + (None,) * ufunc.nout)
                else:
                    loop = (np.asarray(inputs[0]).dtype,)
                loops.append((ufunc.__name__, method, tuple(np.dtype(t).name for t in loop)))
                plain = [a.view(np.ndarray) if isinstance(a, Recorded) else a for a in inputs]
                if out is not None:
                    getattr(ufunc, method)(*plain, out=tuple(o.view(np.ndarray) for o in out),
                                           **kwargs)
                    return out[0] if len(out) == 1 else out
                return getattr(ufunc, method)(*plain, **kwargs).view(Recorded)

        model = init_mlp((3, 64, 64, 64, 1), Rng(0))
        model.flat = model.flat.view(Recorded)
        model.weights = [w.view(Recorded) for w in model.weights]
        model.biases = [b.view(Recorded) for b in model.biases]
        rows = INFERENCE_ROWS + 300
        cache = training_cache(model, rows)
        for key in ("positive", "scratch", "gradient"):
            cache[key] = cache[key].view(Recorded)
        cache["buffers"] = [b.view(Recorded) for b in cache["buffers"]]
        cache["grads"] = [g.view(Recorded) for g in cache["grads"]]
        adam = AdamState.for_params([model.flat])
        adam.parts = [tuple(a.view(Recorded) for a in part) for part in adam.parts]

        x = Rng(1).uniform(-1, 1, size=(rows, 3))
        out = forward_cached(model, x, train_mode=True, cache=cache)
        # The loss is scored outside the net, in float64.
        _, grad_out = PinballLoss(0.2).value_and_grad(Rng(2).uniform(size=(rows, 1)),
                                                      out.view(np.ndarray))
        assert grad_out.dtype == np.float64
        backward(model, cache, grad_out)
        # A TrainConfig may hold a numpy learning rate.
        adam_step([model.flat], [cache["gradient"]], adam, lr=np.float64(1e-3))
        forward_batch(model, x)
        forward_batch(model, x, cache)

        names = {name for name, _, _ in loops}
        assert {"matmul", "add", "multiply", "maximum", "greater", "sqrt", "divide",
                "subtract"} <= names
        assert [loop for loop in loops if "float64" in loop[2]] == []
        assert {dtype for _, _, loop in loops for dtype in loop} == {"float32", "bool"}


class TestOneCachePerNet:
    @pytest.mark.parametrize("method,nets", [("naive", 4), ("npdqr", 1)])
    def test_each_trained_net_makes_one_training_cache(self, method, nets, monkeypatch):
        # nn.train makes a net's cache at its first step and keeps it, so a
        # naive fit at d = 2 makes one per interval net and an NP-DQR fit
        # one for its threshold net; counting them leaves the bits alone.
        rng = Rng(41)
        x, y = rng.uniform(size=(400, 1)), rng.uniform(-1, 1, size=(400, 2))
        config = TrainConfig(batch_size=64, max_epochs=3, patience=3)
        pool = npdqr.sample_direction_pool(2, npdqr.MEMBERSHIP_DIRECTIONS, Rng(4))

        def fitted_nets():
            if method == "naive":
                model, _ = naive_qr.fit(x[:300], y[:300], x[300:], y[300:], alpha=0.1,
                                        config=config, seed=3)
                return model.nets_lo + model.nets_hi
            model, _ = npdqr.fit(x[:300], y[:300], x[300:], y[300:], alpha=0.1, pool=pool,
                                 config=config, seed=3)
            return [model.net]

        plain = fitted_nets()
        made, real = [], nn.training_cache
        monkeypatch.setattr(nn, "training_cache",
                            lambda net, rows: made.append(rows) or real(net, rows))
        counted = fitted_nets()
        assert len(made) == nets
        for got, want in zip(counted, plain, strict=True):
            _assert_same_bits(got.flat, want.flat)


def _clean_regression_setup(widths, seed, margin_guard=None):
    """Float64 model + batch with all hidden pre-activations away from the
    leaky-ReLU kink, so finite differences are valid."""
    for attempt in range(50):
        rng = Rng(seed + 1000 * attempt)
        model = as_float64(init_mlp(widths, rng))
        x = rng.uniform(-1, 1, size=(16, widths[0]))
        y = rng.uniform(-1, 1, size=(16, widths[-1]))
        out, cache = _reference_forward(model, x)
        if min(np.abs(z).min() for z in cache["pre_act"]) < 1e-3:
            continue
        if margin_guard is not None and not margin_guard(y, out):
            continue
        return model, x, y
    raise AssertionError("could not build a kink-free probe setup")


class TestGradients:
    @pytest.mark.parametrize("widths", [(2, 4, 1), (3, 8, 8, 2), (5, 6, 3)])
    def test_mse_matches_finite_differences(self, widths):
        model, x, y = _clean_regression_setup(widths, seed=42)
        loss = MseLoss()

        def loss_value():
            return loss.value(y, forward_batch(model, x))

        out, cache = _train_forward(model, x)
        _, grad_out = loss.value_and_grad(y, out)
        analytic, _ = backward(model, cache, grad_out)
        params = model.parameters()
        probes = sample_probes(params, 30, Rng(7))
        numeric = central_difference(loss_value, params, probes)
        flat_analytic = [analytic[p].reshape(-1)[i] for p, i in probes]
        assert relative_errors(flat_analytic, numeric).max() <= 1e-4

    def test_pinball_matches_finite_differences_away_from_kink(self):
        guard = lambda y, out: np.abs(y - out).min() > 1e-3
        model, x, y = _clean_regression_setup((3, 6, 1), seed=9, margin_guard=guard)
        loss = PinballLoss(0.8)

        def loss_value():
            return loss.value(y, forward_batch(model, x))

        out, cache = _train_forward(model, x)
        _, grad_out = loss.value_and_grad(y, out)
        analytic, _ = backward(model, cache, grad_out)
        params = model.parameters()
        probes = sample_probes(params, 30, Rng(8))
        numeric = central_difference(loss_value, params, probes)
        flat_analytic = [analytic[p].reshape(-1)[i] for p, i in probes]
        assert relative_errors(flat_analytic, numeric).max() <= 1e-4

    def test_input_gradient(self):
        model, x, y = _clean_regression_setup((3, 5, 2), seed=17)
        loss = MseLoss()
        out, cache = _train_forward(model, x)
        _, grad_out = loss.value_and_grad(y, out)
        _, delta = backward(model, cache, grad_out)
        grad_input = delta @ model.weights[0].T
        h = 1e-6
        for (i, j) in [(0, 0), (3, 1), (7, 2)]:
            x_up, x_dn = x.copy(), x.copy()
            x_up[i, j] += h
            x_dn[i, j] -= h
            numeric = (
                loss.value(y, forward_batch(model, x_up))
                - loss.value(y, forward_batch(model, x_dn))
            ) / (2 * h)
            assert grad_input[i, j] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


class TestTraining:
    def test_linear_regression_converges(self):
        rng = Rng(100)
        x = rng.uniform(-1, 1, size=(512, 1))
        y = 2.0 * x
        xv = rng.uniform(-1, 1, size=(128, 1))
        model = init_mlp((1, 1), Rng(5))
        config = TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=800,
                             patience=800)
        history = train(model, len(x), lambda idx: (x[idx], y[idx]), (xv, 2.0 * xv),
                        MseLoss(), config, Rng(0))
        assert history.best_val_loss <= 1e-4

    def test_constant_model_recovers_quantile(self):
        alpha = 0.75
        samples = Rng(31).standard_normal(size=1001)
        x = np.zeros((1001, 1))
        model = init_mlp((1, 1), Rng(2))
        config = TrainConfig(learning_rate=2e-3, batch_size=1001, max_epochs=4000,
                             patience=4000)
        train(model, len(x), lambda idx: (x[idx], samples[idx, None]), (x, samples[:, None]),
              PinballLoss(alpha), config, Rng(0))
        fitted = float(forward_batch(model, np.zeros((1, 1)))[0, 0])
        order = np.sort(samples)
        k = math.ceil(alpha * 1001)
        lo, hi = order[k - 2], order[k]  # one order statistic on each side
        assert lo <= fitted <= hi

    def test_patience_zero_runs_one_epoch(self):
        rng = Rng(0)
        x = rng.uniform(size=(64, 1))
        model = init_mlp((1, 4, 1), Rng(1))
        config = TrainConfig(batch_size=32, max_epochs=100, patience=0)
        history = train(model, len(x), lambda idx: (x[idx], x[idx]), (x, x), MseLoss(),
                        config, Rng(0))
        assert history.epochs_run == 1

    def test_returned_model_has_best_validation_loss(self):
        rng = Rng(10)
        x = rng.uniform(-1, 1, size=(128, 2))
        y = np.sin(3 * x[:, :1]) + x[:, 1:]
        xv = rng.uniform(-1, 1, size=(64, 2))
        yv = np.sin(3 * xv[:, :1]) + xv[:, 1:]
        model = init_mlp((2, 8, 1), Rng(3))
        config = TrainConfig(learning_rate=5e-3, batch_size=32, max_epochs=60,
                             patience=60)
        history = train(model, len(x), lambda idx: (x[idx], y[idx]), (xv, yv), MseLoss(),
                        config, Rng(0))
        final_val = MseLoss().value(yv, forward_batch(model, xv))
        assert final_val == pytest.approx(min(history.val_losses), abs=1e-12)
        assert all(final_val <= v + 1e-12 for v in history.val_losses)

    def test_divergence_raises_with_epoch(self):
        rng = Rng(0)
        x = rng.uniform(1.0, 2.0, size=(64, 1))
        model = init_mlp((1, 8, 1), Rng(1))
        config = TrainConfig(learning_rate=1e30, batch_size=64, max_epochs=50,
                             patience=50)
        with pytest.raises(TrainingDivergedError) as err, np.errstate(over="ignore"):
            train(model, len(x), lambda idx: (x[idx], 1e200 * x[idx]), (x, 1e200 * x),
                  MseLoss(), config, Rng(0))
        assert err.value.epoch >= 1

    def test_seeded_training_is_bit_reproducible(self):
        rng = Rng(8)
        x = rng.uniform(-1, 1, size=(256, 2))
        y = x[:, :1] - 0.5 * x[:, 1:]
        config = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=20, patience=20)
        m1, m2 = init_mlp((2, 8, 1), Rng(4)), init_mlp((2, 8, 1), Rng(4))
        for model in (m1, m2):
            train(model, len(x), lambda idx: (x[idx], y[idx]), (x, y), MseLoss(), config,
                  Rng(77))
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("widths", [(1, 4, 1), (1, 1)])
    def test_targets_of_the_wrong_width_raise(self, widths):
        # Nothing checks the targets up front: backward's matmul into the
        # last layer's weight gradient refuses them.
        x = Rng(2).uniform(size=(16, 1))
        y = np.hstack([x, x])
        config = TrainConfig(batch_size=8, max_epochs=2, patience=2)
        with pytest.raises(ValueError):
            train(init_mlp(widths, Rng(1)), len(x), lambda idx: (x[idx], y[idx]), (x, y),
                  PinballLoss(0.5), config, Rng(0))


class TestTrainConfig:
    @pytest.mark.parametrize("setting, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", 0.0),
        ("learning_rate", True), ("learning_rate", "0.001"), ("learning_rate", None),
        ("learning_rate", Fraction(1, 1000)),
        ("batch_size", 2.5), ("max_epochs", 3.5), ("patience", 1.5),
        ("batch_size", True), ("max_epochs", 0)])
    def test_bad_setting_is_rejected(self, setting, value):
        # A learning rate of True trained at rate 1.0, and one of "0.001" or
        # None raised TypeError; a Fraction trained into an object array
        # that the first Adam step could not cast.
        with pytest.raises(ValueError):
            TrainConfig(**{"max_epochs": 10, "patience": 2, setting: value})

    def test_a_fit_cannot_change_the_schedule(self):
        # One schedule serves the fits of every cell of a run.
        config = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_epochs = 5


class TestTrainMinibatches:
    def test_ragged_last_batch(self):
        # 10 rows in batches of 4: two full batches and one of 2 rows.
        params = [np.zeros(1)]
        seen = []

        def step(idx):
            seen.append(idx.copy())
            return float(idx.sum()), [np.zeros(1)]

        config = TrainConfig(batch_size=4, max_epochs=3, patience=3)
        history = train_minibatches(params, 10, step, lambda: 1.0, config, Rng(5))
        assert history.epochs_run == 3
        assert [len(idx) for idx in seen] == [4, 4, 2] * 3
        for epoch in range(3):
            batches = seen[3 * epoch : 3 * epoch + 3]
            assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(10))
            weighted = sum(float(idx.sum()) * len(idx) for idx in batches) / 10
            assert history.train_losses[epoch] == weighted


class TestSerialization:
    """What the ``MlpModel`` constructor refuses."""

    @pytest.mark.parametrize("biases", [
        [np.array([0.5]), np.zeros(1)], [np.zeros(3)], [np.zeros(3), np.zeros(2)]])
    def test_mis_shaped_biases_are_rejected(self, biases):
        model = init_mlp((2, 3, 1), Rng(1))
        with pytest.raises(ValueError, match="bias"):
            MlpModel(model.widths, model.weights, biases)

"""Minimal feed-forward network with manual backpropagation.

One fixed topology: dense layers, leaky-ReLU hidden activations, linear
output. Optimization is minibatch Adam with early stopping on a
validation loss; the snapshot with the best validation loss is what
training returns.

Everything is numpy and deterministic under a fixed seed, which makes
seeded training bit-reproducible on a given platform.

The training step avoids temporary arrays where it can. For a slope s in
[0, 1], a hidden layer's activation is a = max(z, s*z) and its derivative
max(a > 0, s), computed in place; they equal where(z > 0, z, s*z) and
where(z > 0, 1, s) bit for bit, signed zeros and NaN included (a > 0
exactly where z > 0), so a step keeps only the activations, as In-Place
Activated BatchNorm does (Rota Bulo et al. 2018), plus a bool mask of
a > 0 and a float scratch of at most ``INFERENCE_ROWS`` rows.

A net's weights and biases are views of one vector, ``MlpModel.flat``,
and ``backward`` writes their gradients into views of one vector its
training cache holds. Adam (Kingma & Ba 2015) updates each such vector in
place, with its moments and two scratch vectors held by its state, so a
step allocates nothing; every element goes through the same operations
in the same order as in a per-array update.

Inference runs in blocks of ``INFERENCE_ROWS`` rows. OpenBLAS picks its
kernel by row count, so a block can differ in the last bit from one pass
over all rows (seen for one-row tails and passes over ~7,000 rows).

A training loop makes one cache, ``training_cache``, with rows for its
largest step, and ``forward_cached`` only fills it. Between two epochs,
once ``backward`` has consumed the cache and before the next step
rewrites it, an inference pass may borrow the cache's per-layer buffers
for a block's matmul outputs and its ``scratch`` for s*z, if the cache
holds a block. ``train`` sizes its cache at the first step for that
step's rows or one validation block, whichever is more, so every
validation pass borrows; its peak memory hardly rises, since a pass
without the cache allocated a block's buffers itself.

Precision is mixed (Micikevicius et al. 2018). Every net that
``init_mlp`` makes holds ``NET_DTYPE`` (float32) weights and biases, and
a net computes in the dtype of its parameters: ``forward_cached`` casts
a batch once where it enters, ``backward`` casts the output gradient
once, and the training cache's buffers, the flat gradient and Adam's
moments and scratch share that dtype, so no step runs a float64 loop or
casts on the way. Single precision halves the bytes a step moves and
lets BLAS run its single-precision kernels. Everything outside a net
stays float64: ``forward_batch`` returns float64, so thresholds, decoded
responses, lattices, distances, conformal scores and areas keep the
precision a region's geometry needs, and losses are scored in float64
from a net's float32 outputs. A net built with float64 arrays
(``MlpModel``) computes in float64, as the gradient checks need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng

LEAKY_SLOPE = 0.2  # slope of the hidden layers' leaky ReLUs; must lie in [0, 1]
NET_DTYPE = np.float32  # dtype of every net init_mlp makes: parameters, buffers, Adam state


class TrainingDivergedError(RuntimeError):
    """Raised when a training or validation loss stops being finite."""

    def __init__(self, epoch: int, kind: str):
        self.epoch = epoch
        super().__init__(f"non-finite {kind} at epoch {epoch}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 10_000
    patience: int = 100

    def __post_init__(self):
        integers = (self.batch_size, self.max_epochs, self.patience)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in integers):
            raise ValueError("batch size, max epochs and patience must be integers")
        if (isinstance(self.learning_rate, bool)
                or not isinstance(self.learning_rate, (int, float, np.integer, np.floating))
                or not 0 < self.learning_rate < np.inf
                or min(self.batch_size, self.max_epochs) <= 0):
            raise ValueError("need a finite positive learning rate, batch size and max epochs")
        if not 0 <= self.patience <= self.max_epochs:
            raise ValueError("patience must lie in [0, max_epochs]")


class MlpModel:
    """Dense network parameters.

    ``widths`` lists every layer width including input and output, so a
    net with widths (3, 64, 64, 1) has two hidden layers. The constructor
    copies the weights and biases into one vector, ``flat``, and keeps
    views of it, so an in-place update of ``flat`` moves every parameter.
    """

    def __init__(self, widths, weights, biases):
        self.widths = tuple(int(w) for w in widths)
        if not len(weights) == len(biases) == len(self.widths) - 1:
            raise ValueError("one weight matrix and bias per layer transition expected")
        for k, (w, b) in enumerate(zip(weights, biases)):
            expected = (self.widths[k], self.widths[k + 1])
            if w.shape != expected or b.shape != expected[1:]:
                raise ValueError(f"layer {k} has weight {w.shape} and bias {b.shape}, "
                                 f"expected {expected} and {expected[1:]}")
        params = (*weights, *biases)
        self.flat = np.concatenate([np.ravel(p) for p in params])
        views = _views(self.flat, params)
        self.weights, self.biases = views[: len(weights)], views[len(weights) :]

    @property
    def in_width(self) -> int:
        return self.widths[0]

    @property
    def out_width(self) -> int:
        return self.widths[-1]

    def parameters(self) -> list:
        """Trainable arrays, in a fixed order shared with gradients: the
        views of ``flat``, every weight matrix before every bias."""
        return self.weights + self.biases


def _views(flat: np.ndarray, arrays) -> list:
    """Consecutive views of ``flat`` shaped like each of ``arrays``."""
    views, start = [], 0
    for a in arrays:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


def init_mlp(widths, rng: Rng) -> MlpModel:
    """Fan-in scaled uniform weight init (He-style for leaky ReLU), zero
    biases, both in ``NET_DTYPE``."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"need at least input and output widths >= 1, got {widths}")
    gain2 = 2.0 / (1.0 + LEAKY_SLOPE**2)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(3.0 * gain2 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(NET_DTYPE))
        biases.append(np.zeros(fan_out, dtype=NET_DTYPE))
    return MlpModel(widths, weights, biases)


INFERENCE_ROWS = 1024


def forward_batch(model: MlpModel, x: np.ndarray, cache=None) -> np.ndarray:
    """Eval-mode forward pass in blocks of ``INFERENCE_ROWS`` rows; the
    output is float64, whatever the net's dtype.

    ``cache`` lends the blocks the buffers of a consumed training cache of
    this model (see ``forward_cached``); the output bits are the same.
    """
    out = np.empty((len(x), model.out_width))
    # An empty batch still makes one call, which checks its shape.
    for start in range(0, max(len(x), 1), INFERENCE_ROWS):
        stop = start + INFERENCE_ROWS
        out[start:stop] = forward_cached(model, x[start:stop], train_mode=False, cache=cache)
    return out


def forward_cached(model: MlpModel, x: np.ndarray, train_mode: bool, cache) -> np.ndarray:
    """Forward pass of n rows in the buffers of ``cache``; returns the
    output, in the net's dtype, to which ``x`` is cast first.

    In train mode ``cache`` is a ``training_cache`` of this model with at
    least n rows: the pass writes into its first n rows and records in its
    ``inputs`` the batch and each hidden activation, for ``backward``. In
    eval mode ``cache`` is either None, and the pass allocates its
    temporaries, or a cache of this model that ``backward`` has consumed
    and that holds n rows, whose buffers and ``scratch`` the pass borrows;
    that cache is then fit only to go back to ``forward_cached`` in train
    mode.
    """
    if x.ndim != 2 or x.shape[1] != model.in_width:
        raise ValueError(f"batch has shape {x.shape}, expected (n, {model.in_width})")
    n, n_layers = x.shape[0], len(model.weights)
    x = x.astype(model.flat.dtype, copy=False)
    if train_mode:
        cache["inputs"] = [x]
    lent = cache is not None
    a = x
    for k in range(n_layers - 1):
        z = np.matmul(a, model.weights[k], out=cache["buffers"][k][:n] if lent else None)
        z += model.biases[k]
        for start in range(0, n, INFERENCE_ROWS):
            block = z[start : start + INFERENCE_ROWS]
            slope_z = cache["scratch"][: len(block), : z.shape[1]] if lent else None
            np.maximum(block, np.multiply(block, LEAKY_SLOPE, out=slope_z), out=block)
        a = z
        if train_mode:
            cache["inputs"].append(a)
    out = a @ model.weights[-1]
    out += model.biases[-1]
    return out


def training_cache(model: MlpModel, rows: int) -> dict:
    """Empty buffers, in the net's dtype, for training steps of up to
    ``rows`` rows: one activation buffer per hidden layer (``buffers``);
    ``positive`` (bool) and ``scratch`` (at most ``INFERENCE_ROWS`` rows),
    as wide as the widest, for ``backward`` and s*z; and the flat vector
    ``gradient`` that ``backward`` writes into through its views ``grads``."""
    hidden = model.widths[1:-1]
    width = max(hidden, default=0)
    dtype = model.flat.dtype
    gradient = np.empty(model.flat.size, dtype=dtype)
    return {"buffers": [np.empty((rows, w), dtype=dtype) for w in hidden],
            "positive": np.empty((rows, width), dtype=bool),
            "scratch": np.empty((min(rows, INFERENCE_ROWS), width), dtype=dtype),
            "gradient": gradient,
            "grads": _views(gradient, model.parameters())}


def backward(model: MlpModel, cache: dict, grad_out: np.ndarray):
    """Backpropagate d(loss)/d(output), cast to the net's dtype, through
    the cached forward pass.

    Returns (grads, delta): grads are the cache's ``grads``, the views of
    its flat ``gradient`` in model.parameters() ordering, valid until the
    next ``backward`` on the cache; delta is d(loss)/d(x @ W[0] + b[0]),
    so the input gradient is delta @ W[0].T, and may be a view into the
    cache, valid until its next forward pass. The cache is consumed: for
    k >= 1, ``positive`` takes a > 0 for the activation a = ``inputs[k]``
    before ``delta @ W[k].T`` overwrites a, and ``scratch`` then takes
    max(positive, slope) block by block, so the cache is fit only to go
    back to ``forward_cached``.
    """
    n_layers = len(model.weights)
    grads = cache["grads"]
    delta = grad_out.astype(model.flat.dtype, copy=False)
    # A slope of the net's dtype: with a Python float, max(bool, slope)
    # would run in float64 and cast its result.
    slope = model.flat.dtype.type(LEAKY_SLOPE)
    for k in reversed(range(n_layers)):
        a = cache["inputs"][k]
        np.matmul(a.T, delta, out=grads[k])
        delta.sum(axis=0, out=grads[n_layers + k])
        if k == 0:
            return grads, delta
        positive = np.greater(a, 0.0, out=cache["positive"][: a.shape[0], : a.shape[1]])
        delta = np.matmul(delta, model.weights[k].T, out=a)
        derivative = cache["scratch"][:, : a.shape[1]]
        for start in range(0, len(delta), INFERENCE_ROWS):
            rows = slice(start, start + INFERENCE_ROWS)
            block = delta[rows]
            block *= np.maximum(positive[rows], slope, out=derivative[: len(block)])


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def pinball_values(diff: np.ndarray, above: np.ndarray, alpha: float) -> np.ndarray:
    """Pinball losses of the residuals ``diff`` = y - yhat, given ``above``,
    their mask diff > 0."""
    return np.where(above, alpha * diff, (alpha - 1.0) * diff)


class PinballLoss:
    """Mean pinball loss at a fixed level, for scalar-output nets.

    At the kink (zero residual) the gradient takes the y < yhat branch.
    """

    def __init__(self, alpha: float):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"pinball level must be in (0,1), got {alpha}")
        self.alpha = alpha

    def value(self, y, yhat) -> float:
        diff = y - yhat
        return float(np.mean(pinball_values(diff, diff > 0, self.alpha)))

    def value_and_grad(self, y, yhat):
        diff = y - yhat
        above = diff > 0
        grad = np.where(above, -self.alpha, 1.0 - self.alpha) / diff.size
        return float(np.mean(pinball_values(diff, above, self.alpha))), grad


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Step count and, per parameter array, its first and second moment
    accumulators and two scratch arrays, shaped like it and of the
    parameters' dtype; each kind is one flat block over every parameter in
    order."""

    parts: list
    t: int = 0

    @staticmethod
    def for_params(params) -> "AdamState":
        blocks = np.zeros((4, sum(p.size for p in params)), dtype=np.result_type(*params))
        m, v, step, denom = (_views(block, params) for block in blocks)
        return AdamState(list(zip(m, v, step, denom)))


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One in-place Adam update of every parameter array.

    Each element goes through the operations of Kingma & Ba in their usual
    order, m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps), in the state's arrays, so a
    step allocates nothing. ``lr`` enters as a Python float, which takes
    the arrays' dtype: a numpy float64 rate would turn a float32 step's
    loops into float64 ones.
    """
    lr = float(lr)
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for p, g, (m, v, step, denom) in zip(params, grads, state.parts):
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        v += np.multiply(step, g, out=step)
        np.sqrt(np.divide(v, bc2, out=denom), out=denom)
        denom += ADAM_EPS
        np.divide(m, bc1, out=step)
        step *= lr
        step /= denom
        p -= step


@dataclass
class TrainHistory:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    max_epochs: int = 0

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)

    @property
    def hit_cap(self) -> bool:
        """Whether training ran to its epoch cap rather than stopping early."""
        return self.epochs_run >= self.max_epochs

    def summary(self, net: str) -> dict:
        """The report entry of one trained net."""
        return {"net": net, "epochs_run": self.epochs_run, "best_epoch": self.best_epoch,
                "best_val_loss": float(self.best_val_loss), "hit_cap": self.hit_cap}


def run_training_loop(params, run_epoch, val_loss, max_epochs: int,
                      patience: int) -> TrainHistory:
    """Generic epoch driver with early stopping.

    ``run_epoch(epoch)`` performs the in-place parameter updates for one
    epoch and returns its mean train loss; ``val_loss()`` scores the
    current parameters. Stops once the epochs elapsed since the last
    validation improvement reach ``patience``, then restores the best
    snapshot into ``params``.
    """
    history = TrainHistory(max_epochs=max_epochs)
    best_snapshot = [p.copy() for p in params]
    since_improvement = 0
    for epoch in range(1, max_epochs + 1):
        tr = run_epoch(epoch)
        if not np.isfinite(tr):
            raise TrainingDivergedError(epoch, "train loss")
        vl = val_loss()
        if not np.isfinite(vl):
            raise TrainingDivergedError(epoch, "validation loss")
        history.train_losses.append(tr)
        history.val_losses.append(vl)
        if vl < history.best_val_loss:
            history.best_val_loss = vl
            history.best_epoch = epoch
            best_snapshot = [p.copy() for p in params]
            since_improvement = 0
        else:
            since_improvement += 1
        if since_improvement >= patience:
            break
    for p, best in zip(params, best_snapshot):
        p[...] = best
    return history


def train_minibatches(params, n: int, step, val_loss, config: TrainConfig,
                      rng: Rng) -> TrainHistory:
    """Minibatch Adam over ``n`` rows with early stopping.

    Each epoch draws a permutation of the rows from ``rng`` and calls
    ``step(idx)`` once per batch of ``config.batch_size`` indices (the
    last batch may be shorter). ``step`` returns the batch's mean loss
    and its gradients in ``params`` order; a step may draw more from
    ``rng``, after the epoch's permutation. The epoch's train loss is the
    row-weighted mean of the batch losses. See ``run_training_loop`` for
    the stopping rule and the restored snapshot.
    """
    adam = AdamState.for_params(params)

    def run_epoch(epoch: int) -> float:
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch_loss, grads = step(idx)
            adam_step(params, grads, adam, config.learning_rate)
            total += batch_loss * len(idx)
            seen += len(idx)
        return total / seen

    return run_training_loop(params, run_epoch, val_loss, config.max_epochs,
                             config.patience)


def train(net: MlpModel, n: int, batch, val_xy, loss, config: TrainConfig,
          rng: Rng) -> TrainHistory:
    """Minibatch-train a supervised net over ``n`` rows, in place.

    ``batch(idx)`` returns the (inputs, targets) of one batch of row
    indices, targets shaped (rows, out_width); it runs after the epoch's
    permutation is drawn from ``rng`` and may draw more from it.
    ``val_xy`` is the (inputs, targets) pair the validation loss scores.
    The net ends with the parameter snapshot of the lowest validation
    loss; see ``train_minibatches`` for the epochs.
    """
    x_val, y_val = val_xy
    cache = None

    def step(idx):
        nonlocal cache
        inputs, targets = batch(idx)
        if cache is None:
            # Rows for one validation block too, so that validation passes
            # run in the consumed cache (see the module docstring).
            cache = training_cache(net, max(len(inputs), min(len(x_val), INFERENCE_ROWS)))
        out = forward_cached(net, inputs, train_mode=True, cache=cache)
        batch_loss, grad_out = loss.value_and_grad(targets, out)
        backward(net, cache, grad_out)
        return batch_loss, [cache["gradient"]]

    def val_loss() -> float:
        # Between epochs the last step's cache is consumed, so it is lent.
        return loss.value(y_val, forward_batch(net, x_val, cache))

    return train_minibatches([net.flat], n, step, val_loss, config, rng)

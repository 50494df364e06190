"""Per-dimension quantile regression baseline producing hyperrectangle
regions, with conformal widening of all faces by a single offset.

Each response dimension gets an independent lower and upper pinball
regressor so that the product of the per-dimension intervals reaches the
target coverage by a union bound. The conformity score of a response
is its worst per-dimension interval violation. Calibration sets the
offset to the empirical quantile of those scores, and a response is in
the region when its score is at most the offset: every interval widened
(or shrunk, when negative) by it.
"""

from __future__ import annotations

import numpy as np

from .calibration import check_paired_rows, conformal_rank
from .nn import (
    PinballLoss,
    TrainConfig,
    forward_batch,
    init_mlp,
    train,
)
from .numerics import Rng, empirical_quantile

HIDDEN = (64, 64, 64)  # hidden stack of every interval net


def quantile_levels(alpha: float, d: int):
    """Per-dimension levels (beta/2, 1 - beta/2) with beta = alpha / d, so
    each interval is a centered 1 - beta interval."""
    beta = alpha / d
    return beta / 2.0, 1.0 - beta / 2.0


class NaiveModel:
    """2d pinball nets (lower and upper per response dimension) plus the
    conformal widening offset once calibrated."""

    def __init__(self, nets_lo, nets_hi, offset=None):
        if len(nets_lo) != len(nets_hi):
            raise ValueError("need one lower and one upper net per dimension")
        self.nets_lo = nets_lo
        self.nets_hi = nets_hi
        self.offset = offset  # None until calibrated

    @property
    def d(self) -> int:
        return len(self.nets_lo)

    def bounds(self, x_rows: np.ndarray):
        """Per-dimension (lower, upper) quantile estimates, each (n, d)."""
        x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
        lo = np.column_stack([forward_batch(net, x_rows)[:, 0] for net in self.nets_lo])
        hi = np.column_stack([forward_batch(net, x_rows)[:, 0] for net in self.nets_hi])
        return lo, hi


def fit(x_train, y_train, x_val, y_val, alpha: float, config: TrainConfig,
        seed: int) -> tuple:
    """Train the 2d per-dimension pinball regressors, each with the hidden
    stack ``HIDDEN`` (read at call time), from ``Rng(seed)``.

    Returns ``(model, histories)``: ``histories`` maps ``lower_j`` and
    ``upper_j``, in training order, to each net's training history.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    d = y_train.shape[1]
    level_lo, level_hi = quantile_levels(alpha, d)
    widths = (x_train.shape[1], *HIDDEN, 1)
    seed_rng = Rng(seed)
    nets_lo, nets_hi, histories = [], [], {}
    for j in range(d):
        for side, level, bucket in (("lower", level_lo, nets_lo),
                                    ("upper", level_hi, nets_hi)):
            k = len(nets_lo) + len(nets_hi)
            net = init_mlp(widths, seed_rng.spawn(k))
            histories[f"{side}_{j}"] = train(
                net, len(x_train), lambda idx: (x_train[idx], y_train[idx, j : j + 1]),
                (x_val, y_val[:, j : j + 1]), PinballLoss(level), config,
                seed_rng.spawn(1000 + k))
            bucket.append(net)
    return NaiveModel(nets_lo, nets_hi), histories


def cqr_scores(model: NaiveModel, x_rows, y_rows) -> np.ndarray:
    """Worst per-dimension interval violation; negative inside the box."""
    if y_rows.shape[1] != model.d:
        raise ValueError(f"responses have {y_rows.shape[1]} dims, model has {model.d}")
    lo, hi = model.bounds(x_rows)
    return np.maximum(lo - y_rows, y_rows - hi).max(axis=1)


def calibrate(model: NaiveModel, x_cal, y_cal, alpha: float) -> tuple:
    """Set the widening offset to the conformity-score quantile; returns
    ``(model, report)``, the report holding the mode, offset and alpha."""
    check_paired_rows(x_cal, y_cal)
    k = conformal_rank(y_cal.shape[0], alpha)
    scores = cqr_scores(model, x_cal, y_cal)
    offset = empirical_quantile(scores, k)
    report = {"mode": "interval-widening", "offset": offset, "alpha": alpha}
    return NaiveModel(model.nets_lo, model.nets_hi, offset=offset), report


def membership_flags(model: NaiveModel, x_rows, y_rows) -> np.ndarray:
    """Whether each response's conformity score is at most the offset of
    a calibrated model; one x row broadcasts against many y rows."""
    return cqr_scores(model, x_rows, y_rows) <= model.offset

"""Reference implementations the tests compare the package against: a
raw-region membership test, the per-direction NP-DQR membership test, a
squared-error loss, the standard normal quantile, and float64 copies of
nets for the checks whose tolerances or hand-set values need double
precision."""

import math

import numpy as np

from qregions.nn import MlpModel
from qregions.npdqr import NpdqrModel, project
from qregions.regions import min_distances


def base_contains(region: np.ndarray, y, gamma: float) -> bool:
    """Whether y lies within distance gamma of the region's point set."""
    if gamma < 0:
        raise ValueError(f"dilation radius must be nonnegative, got {gamma}")
    if len(region) == 0:
        return False
    return bool(min_distances(np.atleast_2d(np.asarray(y, dtype=float)), region)[0] <= gamma)


def contains(model: NpdqrModel, x, y) -> bool:
    """Whether y satisfies u . y >= f(x, u) for every membership direction."""
    y = np.asarray(y, dtype=float)
    if y.shape != (model.d,):
        raise ValueError(f"response has shape {y.shape}, expected ({model.d},)")
    f = model.thresholds(np.atleast_2d(np.asarray(x, dtype=float)))[0]
    return bool(np.all(project(y[None, :], model.membership_directions)[:, 0] >= f))


class MseLoss:
    """Mean over the batch of the squared error summed over output dims."""

    def value(self, y, yhat) -> float:
        return float(np.mean(np.sum((y - yhat) ** 2, axis=1)))

    def value_and_grad(self, y, yhat):
        n = y.shape[0]
        return self.value(y, yhat), 2.0 * (yhat - y) / n


def normal_quantile(p: float) -> float:
    """Phi^-1(p) by bisection on Phi(z) = erfc(-z / sqrt 2) / 2."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def as_float64(model: MlpModel) -> MlpModel:
    """A float64 net with ``model``'s widths and parameter values; it
    computes in float64 (``init_mlp`` makes ``nn.NET_DTYPE`` nets)."""
    return MlpModel(model.widths, [w.astype(np.float64) for w in model.weights],
                    [b.astype(np.float64) for b in model.biases])

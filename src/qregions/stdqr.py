"""Quantile regions with arbitrary shape: directional quantile regression
run in a learned latent space.

Training fits a conditional VAE, transforms every training response to
its latent posterior mean, and fits the directional threshold net on
those latent codes, where the distribution is approximately spherical
and an intersection of half-spaces is an appropriate region. At query
time the latent region is extracted on a latent lattice and pushed
through the decoder pointwise, which can produce non-convex response
regions the directional method alone cannot represent.

A latent unit is inactive when its posterior means barely vary over the
training rows (Burda et al. 2016); the decoder ignores such a unit, so
lattice layers along it would decode onto the same responses. The
latent points, an ``(m, r)`` array built once by ``latent_lattice``, are
therefore the lattice's points on one layer per inactive unit, the layer
nearest that unit's mean training code. The latent net takes its pool
size, hidden stack and direction counts from ``npdqr.POOL_SIZE``,
``HIDDEN``, ``TRAIN_DIRECTIONS`` and ``MEMBERSHIP_DIRECTIONS``.
"""

from __future__ import annotations

import numpy as np

from . import npdqr
from .cvae import CvaeModel, decode_batch, encode_batch
from .cvae import fit as fit_cvae
from .nn import TrainConfig
from .npdqr import fit as fit_npdqr
from .numerics import Rng
from .regions import REGION_DISCRETIZATION, build_grid

# A latent unit is active when the variance of its posterior means over
# the training rows exceeds this (Burda et al. 2016).
ACTIVE_UNIT_VARIANCE = 0.01


class InactiveLatentError(ValueError):
    """Every latent unit is inactive, so each region would collapse to one
    lattice point."""


class StdqrModel:
    """Fitted pipeline: CVAE, latent threshold net, and the ``(m, r)``
    latent points its regions are extracted on, held by ``extractor``."""

    def __init__(self, cvae: CvaeModel, latent_model: npdqr.NpdqrModel,
                 latent_points: np.ndarray):
        if latent_model.d != cvae.r:
            raise ValueError(
                f"latent net dimension {latent_model.d} != latent size {cvae.r}")
        self.cvae = cvae
        self.extractor = npdqr.RegionExtractor(latent_model, latent_points)

    def region(self, x) -> np.ndarray:
        """Decoded latent region: one response point per latent point."""
        latent = self.extractor.extract(x)
        return decode_batch(self.cvae, np.repeat(x[None, :], len(latent), axis=0), latent)


def latent_lattice(z_train: np.ndarray) -> np.ndarray:
    """The points of the region lattice over the encoded training latents,
    held, along each inactive unit, on the layer nearest that unit's mean
    code.

    Raises InactiveLatentError when no unit is active.
    """
    grid = build_grid(z_train, REGION_DISCRETIZATION)
    inactive = np.nonzero(z_train.var(axis=0) <= ACTIVE_UNIT_VARIANCE)[0]
    if len(inactive) == grid.dim:
        raise InactiveLatentError(
            f"all {grid.dim} latent units are inactive: no posterior mean "
            f"varies by more than {ACTIVE_UNIT_VARIANCE} over the training rows")
    points = grid.points()
    for unit in inactive:
        centers = grid.axis_centers(unit)
        layer = centers[np.argmin(np.abs(centers - z_train[:, unit].mean()))]
        points = points[points[:, unit] == layer]
    return points


def fit(x_train, y_train, x_val, y_val, alpha: float, cvae_config: TrainConfig,
        dqr_config: TrainConfig, cvae_hidden: tuple, seed: int) -> tuple:
    """Fit the full pipeline at directional miscoverage ``alpha``.

    Responses are transformed to latent space with the deterministic
    posterior mean. The latent lattice spans the 1%/99% quantiles of the
    encoded training latents, widened like any region lattice. A unit
    whose posterior means vary by at most ``ACTIVE_UNIT_VARIANCE`` over
    the training rows is inactive, and its regions are realized on the
    single lattice layer nearest its mean code. Raises
    InactiveLatentError when every unit is inactive. The lattice is built
    after the threshold net is trained, so its points are not held while
    the net trains. The CVAE trains from ``Rng(seed)``, the latent net and
    its pool of ``npdqr.POOL_SIZE`` directions from ``Rng(seed + 1)``: the
    root stream of cell s + 1's CVAE, whose first epoch permutation cell
    s's latent net thus shares. Separating them would move every seeded
    ST-DQR output. Returns ``(model, histories)``: the CVAE's history
    under ``cvae``, then the latent net's under ``latent_threshold``.
    """
    cvae, histories = fit_cvae(x_train, y_train, x_val, y_val, config=cvae_config,
                               hidden=cvae_hidden, seed=seed)
    z_train = encode_batch(cvae, x_train, y_train)
    z_val = encode_batch(cvae, x_val, y_val)
    pool = npdqr.sample_direction_pool(cvae.r, npdqr.POOL_SIZE, Rng(seed + 1).spawn(100))
    latent_model, latent = fit_npdqr(x_train, z_train, x_val, z_val, alpha=alpha,
                                     pool=pool, config=dqr_config, seed=seed + 1)
    histories["latent_threshold"] = latent["threshold"]
    latent_points = latent_lattice(z_train)
    model = StdqrModel(cvae=cvae, latent_model=latent_model, latent_points=latent_points)
    return model, histories

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
lattice is therefore realized on one layer per inactive unit, the layer
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
from .regions import REGION_DISCRETIZATION, Grid, build_grid

# A latent unit is active when the variance of its posterior means over
# the training rows exceeds this (Burda et al. 2016).
ACTIVE_UNIT_VARIANCE = 0.01


class InactiveLatentError(ValueError):
    """Every latent unit is inactive, so each region would collapse to one
    lattice point."""


class StdqrModel:
    """Fitted pipeline: CVAE, latent threshold net, and the latent lattice.

    ``inactive_layers`` maps each inactive latent unit to the index of
    the lattice layer (along that unit's axis) its regions are realized
    on; units not in it are active and span the whole lattice.
    """

    def __init__(self, cvae: CvaeModel, latent_model: npdqr.NpdqrModel, latent_grid: Grid,
                 inactive_layers: dict):
        if latent_model.d != cvae.r:
            raise ValueError(
                f"latent net dimension {latent_model.d} != latent size {cvae.r}")
        if latent_grid.dim != cvae.r:
            raise ValueError(
                f"latent grid dimension {latent_grid.dim} != latent size {cvae.r}")
        inactive_layers = {int(u): int(k) for u, k in inactive_layers.items()}
        for unit, layer in inactive_layers.items():
            if not (0 <= unit < cvae.r and 0 <= layer < latent_grid.cells_per_dim):
                raise ValueError(f"inactive unit {unit} at layer {layer} is off the lattice")
        self.cvae = cvae
        self.latent_model = latent_model
        self.latent_grid = latent_grid
        self.inactive_layers = inactive_layers
        points = latent_grid.points()
        keep = np.ones(points.shape[0], dtype=bool)
        for unit, layer in inactive_layers.items():
            keep &= points[:, unit] == latent_grid.axis_centers(unit)[layer]
        self.extractor = npdqr.RegionExtractor(latent_model, points[keep])

    @property
    def histories(self) -> dict:
        """Training histories of the CVAE and of the latent threshold net."""
        latent = {f"latent_{net}": h for net, h in self.latent_model.histories.items()}
        return {**self.cvae.histories, **latent}

    def region(self, x) -> np.ndarray:
        """Decoded latent region: one response point per latent point."""
        latent = self.extractor.extract(x)
        if len(latent) == 0:
            return np.zeros((0, self.cvae.d))
        return decode_batch(self.cvae, x[None, :], latent)


def inactive_unit_layers(z_train: np.ndarray, latent_grid: Grid) -> dict:
    """Inactive units of the encoded training latents, each mapped to the
    lattice layer nearest its mean code.

    Raises InactiveLatentError when no unit is active.
    """
    layers = {}
    for unit in np.nonzero(z_train.var(axis=0) <= ACTIVE_UNIT_VARIANCE)[0]:
        centers = latent_grid.axis_centers(unit)
        layers[int(unit)] = int(np.argmin(np.abs(centers - z_train[:, unit].mean())))
    if len(layers) == latent_grid.dim:
        raise InactiveLatentError(
            f"all {latent_grid.dim} latent units are inactive: no posterior mean "
            f"varies by more than {ACTIVE_UNIT_VARIANCE} over the training rows")
    return layers


def fit(x_train, y_train, x_val, y_val, alpha: float, r: int, lam: float,
        cvae_config: TrainConfig, dqr_config: TrainConfig,
        cvae_hidden: tuple) -> StdqrModel:
    """Fit the full pipeline at directional miscoverage ``alpha``.

    Responses are transformed to latent space with the deterministic
    posterior mean. The latent lattice spans the 1%/99% quantiles of the
    encoded training latents, widened like any region lattice. A unit
    whose posterior means vary by at most ``ACTIVE_UNIT_VARIANCE`` over
    the training rows is inactive, and its regions are realized on the
    single lattice layer nearest its mean code. Raises
    InactiveLatentError, before the threshold net is trained, when every
    unit is inactive. The latent net's pool has ``npdqr.POOL_SIZE`` directions.
    """
    cvae = fit_cvae(x_train, y_train, x_val, y_val, r=r, lam=lam,
                    config=cvae_config, hidden=cvae_hidden)
    z_train = encode_batch(cvae, x_train, y_train)
    z_val = encode_batch(cvae, x_val, y_val)
    latent_grid = build_grid(z_train, REGION_DISCRETIZATION)
    inactive_layers = inactive_unit_layers(z_train, latent_grid)
    pool = npdqr.sample_direction_pool(r, npdqr.POOL_SIZE, Rng(dqr_config.seed).spawn(100))
    latent_model = fit_npdqr(x_train, z_train, x_val, z_val, alpha=alpha,
                             pool=pool, config=dqr_config)
    return StdqrModel(cvae=cvae, latent_model=latent_model, latent_grid=latent_grid,
                      inactive_layers=inactive_layers)

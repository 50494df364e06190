"""Conditional variational auto-encoder mapping responses to an
approximately standard-normal latent and back.

The encoder reads (features, response) and emits a Gaussian posterior
(mean, log-variance) over an r-dimensional latent; the decoder reads
(features, latent) and reconstructs the response. Training minimizes the
mean of squared reconstruction error plus a weighted KL pull of the
posterior toward N(0, I). Predicting log-variance keeps the
reparameterization numerically stable.
"""

from __future__ import annotations

import numpy as np

from .nn import (
    MlpModel,
    TrainConfig,
    backward,
    forward_batch,
    forward_cached,
    init_mlp,
    train_minibatches,
    training_cache,
)
from .numerics import Rng

# Encoder/decoder hidden stacks by feature dimension.
_HIDDEN_BY_P = (
    (5, (32, 64, 128, 256, 128, 64, 32)),
    (8, (64, 128, 256, 128, 64)),
    (10, (64, 128, 256, 512, 256, 128, 64)),
    (25, (64, 128, 256, 256, 128, 64)),
)
_HIDDEN_LARGE_P = (128, 256, 512, 512, 256, 128)

LATENT_DIM = 3  # r, the latent size
KL_WEIGHT = 0.01  # lambda, the weight of the KL term


def default_hidden(p: int) -> tuple:
    for bound, widths in _HIDDEN_BY_P:
        if p <= bound:
            return widths
    return _HIDDEN_LARGE_P


class CvaeModel:
    """Encoder/decoder pair with latent dimension r."""

    def __init__(self, encoder: MlpModel, decoder: MlpModel, r: int):
        if encoder.out_width != 2 * r:
            raise ValueError(f"encoder must emit 2r = {2 * r} values, emits {encoder.out_width}")
        self.encoder = encoder
        self.decoder = decoder
        self.r = int(r)

    def posterior(self, x_rows: np.ndarray, y_rows: np.ndarray):
        """Encoder output split into (mu, logvar), each (n, r)."""
        out = forward_batch(self.encoder, np.concatenate([x_rows, y_rows], axis=1))
        return out[:, : self.r], out[:, self.r :]


def encode_batch(model: CvaeModel, x_rows, y_rows) -> np.ndarray:
    """Latent codes: the posterior means."""
    return model.posterior(x_rows, y_rows)[0]


def decode_batch(model: CvaeModel, x_rows, z_rows) -> np.ndarray:
    """Decoded responses, one per paired (x, z) row."""
    return forward_batch(model.decoder, np.concatenate([x_rows, z_rows], axis=1))


def gaussian_kl_rows(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """KL divergence of N(mu, exp(logvar)) from N(0, I), one value per row."""
    if mu.shape != logvar.shape:
        raise ValueError(f"mu shape {mu.shape} != logvar shape {logvar.shape}")
    return -0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar), axis=1)


def composite_loss_and_grads(encoder: MlpModel, decoder: MlpModel, x, y, eps, caches):
    """Loss and parameter gradients of reconstruction + KL_WEIGHT * KL for
    one batch, with the (n, r) reparameterization noise ``eps`` held fixed.

    ``caches`` is the (encoder, decoder) pair of training caches the step
    runs in, each with at least n rows. Returns (loss, grads); grads are
    the caches' ``grads``, valid until their next step, ordered as
    encoder.parameters() + decoder.parameters().
    """
    n, r = eps.shape
    enc_cache, dec_cache = caches
    # The loss terms are float64, as in validation, whatever the nets' dtype.
    enc_out = forward_cached(
        encoder, np.concatenate([x, y], axis=1), train_mode=True,
        cache=enc_cache).astype(float)
    mu, logvar = enc_out[:, :r], enc_out[:, r:]
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps
    dec_out = forward_cached(
        decoder, np.concatenate([x, z], axis=1), train_mode=True, cache=dec_cache)
    residual = dec_out - y
    recon = float(np.mean(np.sum(residual**2, axis=1)))
    kl = float(np.mean(gaussian_kl_rows(mu, logvar)))
    loss = recon + KL_WEIGHT * kl

    dec_grads, dec_delta = backward(decoder, dec_cache, 2.0 * residual / n)
    dz = (dec_delta @ decoder.weights[0].T)[:, x.shape[1]:]
    dmu = dz + (KL_WEIGHT / n) * mu
    dlogvar = dz * (0.5 * sigma * eps) + (KL_WEIGHT / n) * 0.5 * (np.exp(logvar) - 1.0)
    enc_grads, _ = backward(encoder, enc_cache,
                            np.concatenate([dmu, dlogvar], axis=1))
    return loss, enc_grads + dec_grads


def fit(x_train, y_train, x_val, y_val, config: TrainConfig, hidden: tuple,
        seed: int) -> tuple:
    """Train encoder and decoder jointly from ``Rng(seed)``, each with the
    hidden stack ``hidden``; ``LATENT_DIM`` and ``KL_WEIGHT`` are read at call time.

    The validation loss scores the posterior mean (no sampling noise), so
    early stopping is deterministic. Returns ``(model, histories)``, with
    the pair's joint training history under ``cvae``.
    """
    r = LATENT_DIM
    n, p = x_train.shape
    d = y_train.shape[1]
    rng = Rng(seed)
    encoder = init_mlp((p + d, *hidden, 2 * r), rng.spawn(10))
    decoder = init_mlp((p + r, *hidden, d), rng.spawn(11))
    eps_rng = rng.spawn(12)
    model = CvaeModel(encoder, decoder, r)

    caches = [training_cache(net, min(config.batch_size, n)) for net in (encoder, decoder)]

    def step(idx):
        eps = eps_rng.standard_normal(size=(len(idx), r))
        loss, _ = composite_loss_and_grads(
            encoder, decoder, x_train[idx], y_train[idx], eps, caches)
        return loss, [cache["gradient"] for cache in caches]

    def val_loss() -> float:
        recon, mu, logvar = _reconstruction(model, x_val, y_val)
        return recon + KL_WEIGHT * float(np.mean(gaussian_kl_rows(mu, logvar)))

    history = train_minibatches([encoder.flat, decoder.flat], n, step, val_loss, config, rng)
    return model, {"cvae": history}


def _reconstruction(model: CvaeModel, x_rows, y_rows) -> tuple:
    """Mean squared reconstruction error through the posterior mean, with
    the posterior ``(mu, logvar)`` it decoded from."""
    mu, logvar = model.posterior(x_rows, y_rows)
    reconstructed = decode_batch(model, x_rows, mu)
    return float(np.mean(np.sum((reconstructed - y_rows) ** 2, axis=1))), mu, logvar


def reconstruction_mse(model: CvaeModel, x_rows, y_rows) -> float:
    """Mean squared reconstruction error through the posterior mean."""
    return _reconstruction(model, x_rows, y_rows)[0]

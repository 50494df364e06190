"""Directional quantile regression with a nonparametric threshold net.

A single network maps (features, unit direction) to a scalar threshold:
the level-alpha lower quantile of the response projected on that
direction. Each direction then carves the half-space
``{y : u . y >= f(x, u)}`` and the quantile region is the intersection
over a frozen set of membership directions, realized as the subset of a
lattice where every half-space constraint holds.

The direction pool, of ``POOL_SIZE`` directions, is a fit-time input:
each gradient step samples ``TRAIN_DIRECTIONS`` of them, and
``MEMBERSHIP_DIRECTIONS`` are frozen as the membership directions, which
the fitted model holds. The threshold net's hidden stack is ``HIDDEN``.
"""

from __future__ import annotations

import numpy as np

from .nn import (
    INFERENCE_ROWS,
    MlpModel,
    PinballLoss,
    TrainConfig,
    forward_batch,
    init_mlp,
    train,
)
from .numerics import Rng

POOL_SIZE = 2048
TRAIN_DIRECTIONS = 32
MEMBERSHIP_DIRECTIONS = 256
HIDDEN = (64, 64, 64)
PREFILTER_DIRECTIONS = 16


def sample_direction_pool(d: int, count: int, rng: Rng) -> np.ndarray:
    """(count, d) directions uniform on the sphere: normalized standard normals."""
    if d < 1 or count < 1:
        raise ValueError("pool needs a positive dimension and size")
    raw = rng.standard_normal(size=(count, d))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    # A zero draw is a measure-zero event; regenerate those rows defensively.
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        raw[bad] = rng.standard_normal(size=(int(bad.sum()), d))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / norms


def _pair_inputs(x_rows: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Threshold-net inputs for every (row, direction) pair, row-major:
    each row repeated once per direction, beside the directions."""
    (n, p), (m, d) = x_rows.shape, directions.shape
    pairs = np.empty((n, m, p + d))
    pairs[:, :, :p] = x_rows[:, None, :]
    pairs[:, :, p:] = directions
    return pairs.reshape(n * m, p + d)


class NpdqrModel:
    """Threshold net plus the ``(m, d)`` unit directions whose half-spaces
    make up its regions."""

    def __init__(self, net: MlpModel, membership_directions: np.ndarray):
        if (membership_directions.ndim != 2 or membership_directions.size == 0
                or not np.isfinite(membership_directions).all()):
            raise ValueError("membership directions must be a non-empty finite (m, d) "
                             f"array, got shape {membership_directions.shape}")
        self.net = net
        self.membership_directions = membership_directions

    @property
    def d(self) -> int:
        return self.membership_directions.shape[1]

    def thresholds(self, x_rows: np.ndarray) -> np.ndarray:
        """f(x, u) for each row and membership direction, shape (n, m)."""
        directions = self.membership_directions
        pairs = _pair_inputs(x_rows, directions)
        return forward_batch(self.net, pairs).reshape(len(x_rows), len(directions))


def fit(x_train, y_train, x_val, y_val, alpha: float, pool: np.ndarray,
        config: TrainConfig, seed: int) -> tuple:
    """Pinball-train the threshold net on direction projections.

    Each gradient step pairs one batch of rows with a fresh sample of
    ``TRAIN_DIRECTIONS`` rows of ``pool``, a (count, d) array of unit
    directions; the target for (row i, direction u) is the projection
    u . y_i and the loss level is alpha, so the net estimates the lower
    directional quantile. The model keeps ``MEMBERSHIP_DIRECTIONS`` pool
    rows; draws come from ``Rng(seed)``, constants are read at call time.
    Returns ``(model, histories)``, with the net's training history under
    ``threshold``.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"directional miscoverage must be in (0, 0.5), got {alpha}")
    if y_train.shape[1] != pool.shape[1]:
        raise ValueError(f"responses have {y_train.shape[1]} dims, pool has {pool.shape[1]}")
    if len(pool) < max(TRAIN_DIRECTIONS, MEMBERSHIP_DIRECTIONS):
        raise ValueError(f"{TRAIN_DIRECTIONS} train and {MEMBERSHIP_DIRECTIONS} membership "
                         f"directions must fit in the pool of {len(pool)}")
    n, p = x_train.shape
    rng = Rng(seed)
    membership_directions = pool[rng.spawn(2).subset(len(pool), MEMBERSHIP_DIRECTIONS)]
    val_dirs = pool[rng.spawn(3).subset(len(pool), TRAIN_DIRECTIONS)]

    net = init_mlp((p + pool.shape[1], *HIDDEN, 1), rng.spawn(4))
    loss = PinballLoss(alpha)

    # Validation inputs are fixed, so assemble them once.
    val_stack = _pair_inputs(x_val, val_dirs)
    val_targets = (y_val @ val_dirs.T).reshape(-1, 1)

    def batch(idx):
        dirs = pool[rng.subset(len(pool), TRAIN_DIRECTIONS)]
        targets = (y_train[idx] @ dirs.T).reshape(-1, 1)
        return _pair_inputs(x_train[idx], dirs), targets

    history = train(net, n, batch, (val_stack, val_targets), loss, config, rng)
    model = NpdqrModel(net=net, membership_directions=membership_directions)
    return model, {"threshold": history}


def project(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Projections u . p, shape (directions, points), direction-major.

    Each entry is the elementwise sum ((p0 u0 + p1 u1) + p2 u2) ..., in
    coordinate order and without BLAS, so a point gets the same bits
    whichever other points it is projected with.
    """
    out = np.multiply.outer(directions[:, 0], points[:, 0])
    term = np.empty_like(out)
    for j in range(1, points.shape[1]):
        out += np.multiply.outer(directions[:, j], points[:, j], out=term)
    return out


class RegionExtractor:
    """The points, of a lattice or a subset of one, that satisfy every
    membership half-space, kept in the order of ``points``.

    Membership is a conjunction over directions, tested with ``project``,
    so a point's answer does not depend on which other points are tested
    with it. The extractor keeps only ``head``, the projections of every
    point onto the first ``PREFILTER_DIRECTIONS`` membership directions
    (built ``INFERENCE_ROWS`` points at a time), which prune most points
    cheaply. The remaining directions are tested in blocks of that size
    on the points still in, and each block drops the points that fail it.
    """

    def __init__(self, model: NpdqrModel, points: np.ndarray):
        if points.ndim != 2 or points.shape[1] != model.d:
            raise ValueError(f"points have shape {points.shape}, expected (m, {model.d})")
        self.model = model
        self.points = points
        head_dirs = model.membership_directions[:PREFILTER_DIRECTIONS]
        self.head = np.empty((len(head_dirs), len(points)))
        for start in range(0, len(points), INFERENCE_ROWS):
            stop = start + INFERENCE_ROWS
            self.head[:, start:stop] = project(points[start:stop], head_dirs)

    def extract(self, x) -> np.ndarray:
        f = self.model.thresholds(np.atleast_2d(np.asarray(x, dtype=float)))[0]
        dirs = self.model.membership_directions
        block = self.head.shape[0]
        idx = np.flatnonzero(np.all(self.head >= f[:block, None], axis=0))
        for start in range(block, len(dirs), block):
            stop = start + block
            idx = idx[np.all(project(self.points[idx], dirs[start:stop]) >= f[start:stop, None],
                             axis=0)]
        return self.points[idx]

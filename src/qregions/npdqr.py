"""Directional quantile regression with a nonparametric threshold net.

A single network maps (features, unit direction) to a scalar threshold:
the level-alpha lower quantile of the response projected on that
direction. Each direction then carves the half-space
``{y : u . y >= f(x, u)}`` and the quantile region is the intersection
over a frozen set of membership directions, realized as the subset of a
lattice where every half-space constraint holds.

A region is extracted line by line, as in scan-line filling of convex
polygons (Foley et al. 1990). On a lattice line along the last axis,
``project`` computes fl(c + fl(u_d t)): c, the sum over the other
coordinates, is the same for every point of the line, and t increases
along it. Correctly rounded multiplication by a fixed u_d and addition
of a fixed c are monotone in t, so each half-space keeps a prefix, a
suffix, all or none of the line, and the region one interval of it.
``RegionExtractor`` finds that interval by testing points near its
ends, and returns exactly the points that pass every direction's
``project`` test.

The direction pool, of ``POOL_SIZE`` directions, is a fit-time input:
each gradient step samples ``TRAIN_DIRECTIONS`` of them, and
``MEMBERSHIP_DIRECTIONS`` are frozen as the membership directions, which
the fitted model holds. The threshold net's hidden stack is ``HIDDEN``.
"""

from __future__ import annotations

import numpy as np

from .nn import (
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
# The extractor tests this many membership directions first, then blocks
# twice as large as the one before, on the lattice lines still in the region.
FIRST_BLOCK = 8


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

    Each entry is the elementwise sum (((0 + p0 u0) + p1 u1) + p2 u2) ...,
    in coordinate order, with each product rounded before it is added and
    without BLAS, so a point gets the same bits whichever other points it
    is projected with. Points with no coordinates project to zero.
    """
    out = np.zeros((len(directions), len(points)))
    term = np.empty_like(out)
    for j in range(points.shape[1]):
        out += np.multiply.outer(directions[:, j], points[:, j], out=term)
    return out


def _first_change(c, u, f, t, a, b, at_a):
    """For each (direction, line) pair, the smallest point index i in
    (a, b] at which the test ``c + u t[i] >= f`` differs from ``at_a``,
    its value at a. The test differs at b and changes once in between.

    The first probes are the point before and the point after the place
    where the line meets the hyperplane in real arithmetic, as if the
    points from a to b were evenly spaced; bisection finishes the pairs
    those probes do not settle.
    """
    def changed(pairs, i):
        return (c[pairs] + u[pairs] * t[i] >= f[pairs]) != at_a[pairs]

    with np.errstate(all="ignore"):
        guess = a + ((f - c) / u - t[a]) / (t[b] - t[a]) * (b - a)
    before = np.fmax(np.fmin(np.floor(guess), b - 1), a).astype(np.intp)
    at_before, at_after = changed(slice(None), before), changed(slice(None), before + 1)
    b = np.where(at_before, before, np.where(at_after, before + 1, b))
    a = np.where(at_before, a, np.where(at_after, before, before + 1))
    pairs = np.flatnonzero(b - a > 1)
    while len(pairs):
        mid = (a[pairs] + b[pairs]) // 2
        at_mid = changed(pairs, mid)
        b[pairs[at_mid]] = mid[at_mid]
        a[pairs[~at_mid]] = mid[~at_mid]
        pairs = pairs[b[pairs] - a[pairs] > 1]
    return b


class RegionExtractor:
    """The points, of a lattice or a subset of one, that satisfy every
    membership half-space, kept in the order of ``points``.

    The extractor finds, on each line of ``points``, the one interval of
    it that the region keeps. A line is a maximal run of consecutive rows
    whose first d - 1 coordinates are bitwise equal and whose last
    coordinate t strictly increases; rows out of lattice order make
    one-point lines. On a line, ``project`` computes ``c + u_d t``, each
    operation rounded, with c the projection of the fixed coordinates,
    bitwise the same for every point of the line. Rounding is monotone,
    so each direction's test ``u . p >= f`` holds on a prefix, a suffix,
    all or none of the line, and the tests hold together on one interval.
    The extractor narrows each line's interval block of directions by
    block (``FIRST_BLOCK`` directions first, each later block twice the
    one before), on the lines still in the region: a direction that both
    ends pass keeps the interval, one that neither end passes empties the
    line, and for the others it finds the boundary by testing points near
    it. The answer is therefore exactly the points that pass every
    direction's ``project`` test.

    The extractor holds ``points`` and, per line, the indices of its first
    and last row, ``line_first`` and ``line_last``.
    """

    def __init__(self, model: NpdqrModel, points: np.ndarray):
        if points.ndim != 2 or points.shape[1] != model.d:
            raise ValueError(f"points have shape {points.shape}, expected (m, {model.d})")
        self.model = model
        self.points = points
        fixed, t = points[:, :-1].view(np.uint64), points[:, -1]
        breaks = ~(np.all(fixed[1:] == fixed[:-1], axis=1) & (t[1:] > t[:-1]))
        self.line_first = np.flatnonzero(np.concatenate(([len(points) > 0], breaks)))
        self.line_last = np.flatnonzero(np.concatenate((breaks, [len(points) > 0])))

    def extract(self, x) -> np.ndarray:
        f = self.model.thresholds(np.atleast_2d(np.asarray(x, dtype=float)))[0]
        dirs = self.model.membership_directions
        t = self.points[:, -1]
        first, lo, hi = self.line_first, self.line_first, self.line_last
        start, size = 0, FIRST_BLOCK
        while start < len(dirs) and len(first):
            block = slice(start, start + size)
            u, fb = dirs[block, -1], f[block]
            c = project(self.points[first, :-1], dirs[block, :-1])
            at_lo = c + np.multiply.outer(u, t[lo]) >= fb[:, None]
            at_hi = c + np.multiply.outer(u, t[hi]) >= fb[:, None]
            k, j = np.nonzero(at_lo != at_hi)
            b = _first_change(c[k, j], u[k], fb[k], t, lo[j], hi[j], at_lo[k, j])
            lo, hi = lo.copy(), hi.copy()
            suffix = ~at_lo[k, j]
            np.maximum.at(lo, j[suffix], b[suffix])
            np.minimum.at(hi, j[~suffix], b[~suffix] - 1)
            alive = np.all(at_lo | at_hi, axis=0) & (lo <= hi)
            first, lo, hi = first[alive], lo[alive], hi[alive]
            start, size = start + size, 2 * size
        counts = hi - lo + 1
        idx = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        return self.points[idx]

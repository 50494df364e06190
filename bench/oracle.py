"""Brute-force reference for the nearest-neighbour queries of ``qregions.regions``.

The oracle loops over query points and compares each one with the whole
carrier using the difference-based arithmetic of the definition,
sqrt(min_j sum_k (q_k - c_jk)^2).  A fast path (a KD-tree, a compiled
kernel) must agree with it to ``TOLERANCE_ULPS`` units in the last place
of the oracle's value; the numpy brute force agrees bit for bit.
"""

from __future__ import annotations

import numpy as np

TOLERANCE_ULPS = 2


def min_distances(points: np.ndarray, carrier: np.ndarray) -> np.ndarray:
    out = np.empty(points.shape[0])
    for i, query in enumerate(points):
        out[i] = np.sqrt(((carrier - query) ** 2).sum(axis=1).min())
    return out


def pairwise_nn_distances(points: np.ndarray) -> np.ndarray:
    out = np.empty(points.shape[0])
    for i, query in enumerate(points):
        sq = ((points - query) ** 2).sum(axis=1)
        sq[i] = np.inf
        out[i] = np.sqrt(sq.min())
    return out


def ulp_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| in units of the spacing at ``want``."""
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want) / np.spacing(np.abs(want)), initial=0.0))


def check(samples: dict) -> dict:
    """Rescore recorded (inputs..., output) samples of both query kinds.

    Returns a summary per kind plus ``ok`` (every sample within tolerance).
    """
    rescore = {"min_distances": min_distances, "pairwise_nn": pairwise_nn_distances}
    summary = {"tolerance_ulps": TOLERANCE_ULPS, "ok": True}
    for kind, records in samples.items():
        worst = 0.0
        exact = 0
        for *inputs, output in records:
            error = ulp_error(output, rescore[kind](*inputs))
            worst = max(worst, error)
            exact += error == 0.0
        summary[kind] = {"samples": len(records), "bit_exact": exact, "max_ulps": worst}
        summary["ok"] &= worst <= TOLERANCE_ULPS
    return summary

"""Workloads, one experiment cell, its correctness checks and its context.

A cell goes through the public ``qregions.experiment`` API:
``load_dataset`` -> ``prepare`` -> ``fit_and_calibrate`` -> ``evaluate_cell``.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import oracle
from qregions import experiment

ALPHA = 0.1
# Test coverage may fall this many standard errors below 1 - alpha; the
# error combines the binomial spread of the calibration and test splits.
COVERAGE_Z = 4.0
# Cell j of a run uses seed ``seed + j * CELL_SEED_STRIDE``.
CELL_SEED_STRIDE = 10_007
# Test rows and area rows whose outputs ``rescore`` recomputes by brute force.
RESCORED_TEST_ROWS = 16
RESCORED_AREA_ROWS = 2
# A rescored point this close to the region's boundary (a distance within
# NEAR of gamma_cal, or a coordinate within NEAR of an interval end) may
# round either way on a different distance path, so it is not compared.
NEAR = 1e-12


@dataclass(frozen=True)
class Workload:
    method: str
    n: int
    # Typical cell time on a 2-core desk machine; it sets how many cells
    # fit in the requested run length.
    nominal_cell_s: float
    # Seed-0 outputs of the unchanged program: coverage, area, delta
    # coverage and the digest of membership flags and area counts.
    reference: tuple | None = None
    # Overrides of the desk-scale training profile.
    training: dict | None = None
    # Cells a run takes however short ``--seconds`` is.  Cell cost varies
    # with the seed, and the mean over this many cells keeps the spread
    # between runs well inside the metrics' bounds.
    min_cells: int = 1


# Smoke workloads train for a few epochs on 200 rows; the
# benchmark's own tests use them.
_SMOKE_TRAINING = {section: {"max_epochs": 60, "patience": 60}
                   for section in ("cvae", "dqr", "naive")}

WORKLOADS = {
    "npdqr-d2": Workload("npdqr", 2000, 50.0,
                         (0.9325, 674.09375, 0.04790469777001479, "3cf847603840bc14")),
    "stdqr-d2": Workload("stdqr", 2000, 65.0,
                         (0.9175, 575.046875, 0.035009855706840044, "42813d0c0067fc29")),
    "stdqr-d2-n500": Workload("stdqr", 500, 25.0,
                              (0.91, 770.453125, 0.07719298245614033, "5a9e110566d893eb"),
                              min_cells=4),
    "naive-d2-n20k": Workload("naive", 20000, 18.0,
                              (0.8965, 880.609375, 0.008898837424199021, "3bd7708bf485992a"),
                              min_cells=2),
    # The naive nets train for exactly 60 epochs (patience equal to the
    # cap), so every seed does the same training work.
    "naive-d2-n20k-e60": Workload("naive", 20000, 11.0,
                                  (0.89575, 879.734375, 0.009138626104565875,
                                   "5a924448fcf96337"),
                                  training={"naive": {"max_epochs": 60, "patience": 60}}),
    "smoke-npdqr": Workload("npdqr", 200, 1.0, training=_SMOKE_TRAINING),
    "smoke-stdqr": Workload("stdqr", 200, 1.0, training=_SMOKE_TRAINING),
    "smoke-naive": Workload("naive", 200, 1.0, training=_SMOKE_TRAINING),
}


def cell_seeds(workload: Workload, seed: int, seconds: float) -> list:
    """Whole cells that fit in ``seconds`` at the nominal cell time, and at
    least the workload's ``min_cells``."""
    count = max(workload.min_cells, int(seconds // workload.nominal_cell_s))
    return [seed + j * CELL_SEED_STRIDE for j in range(count)]


def config_for(workload: Workload, seed: int) -> experiment.ExperimentConfig:
    return experiment.ExperimentConfig(
        dataset={"kind": "synthetic", "setting": "nonlinear", "d": 2, "p": 1,
                 "n": workload.n, "seed": seed},
        methods=(workload.method,), alpha=ALPHA, seeds=(seed,),
        training=experiment.desk_scale_profile().merged(workload.training))


def set_up(workload: Workload, seed: int):
    """Dataset and prepared splits: the part of a cell that ``setup_s`` times."""
    config = config_for(workload, seed)
    prep = experiment.prepare(experiment.load_dataset(config.dataset), seed)
    return config, prep


def prep_digest(prep) -> str:
    h = hashlib.sha256()
    for part in ("train", "calibration", "validation", "test"):
        h.update(np.ascontiguousarray(prep.x[part]).tobytes())
        h.update(np.ascontiguousarray(prep.y[part]).tobytes())
    return h.hexdigest()[:16]


def run_cell(workload: Workload, config, prep, seed: int) -> dict:
    """Fit, calibrate and evaluate one cell; returns its timings, outputs
    and the membership flags and area counts the evaluation produced."""
    captured = {}
    real_delta = experiment.delta_coverage

    def delta_recording_flags(rule, x_rows, y_rows, clusters, alpha, flags=None):
        captured["flags"] = np.asarray(flags, dtype=bool).copy()
        return real_delta(rule, x_rows, y_rows, clusters, alpha, flags=flags)

    start = perf_counter()
    rule, area_grid, info = experiment.fit_and_calibrate(workload.method, config, prep, seed)
    fitted = perf_counter()
    areas, area_inputs = [], []
    real_area_cells = rule.area_cells

    def area_recording(x, grid):
        area_inputs.append(np.array(x, dtype=float))
        areas.append(real_area_cells(x, grid))
        return areas[-1]

    rule.area_cells = area_recording
    experiment.delta_coverage = delta_recording_flags
    try:
        row = experiment.evaluate_cell(rule, area_grid, config, prep, seed)
    finally:
        experiment.delta_coverage = real_delta
        del rule.area_cells
    end = perf_counter()
    return {
        "seed": seed,
        "cell_s": end - start,
        "fit_and_calibrate_s": fitted - start,
        "evaluate_s": end - fitted,
        "coverage": row["coverage"],
        "area": row["area"],
        "delta_coverage": row["delta_coverage"],
        "calibration": info["calibration"],
        "n_cal": int(len(prep.y["calibration"])),
        "n_test": int(len(prep.y["test"])),
        "area_rows": len(areas),
        "flags": captured.get("flags"),
        "areas": np.asarray(areas, dtype=np.int64),
        "area_inputs": area_inputs,
        "rule": rule,
        "area_grid": area_grid,
    }


def output_digest(cell: dict) -> str:
    h = hashlib.sha256()
    h.update(np.packbits(cell["flags"]).tobytes())
    h.update(cell["areas"].tobytes())
    return h.hexdigest()[:16]


def coverage_tolerance(n_cal: int, n_test: int) -> float:
    return COVERAGE_Z * math.sqrt(ALPHA * (1 - ALPHA) * (1 / n_cal + 1 / n_test))


def check_cell(cell: dict) -> list:
    """Failed checks of one finished cell (empty when all pass)."""
    failures = []
    values = [cell["coverage"], cell["area"], cell["delta_coverage"]]
    if not all(math.isfinite(v) for v in values):
        failures.append(f"non-finite metrics {values}")
    floor = (1 - ALPHA) - coverage_tolerance(cell["n_cal"], cell["n_test"])
    if not cell["coverage"] >= floor:
        failures.append(f"coverage {cell['coverage']:.4f} below {floor:.4f}")
    flags = cell["flags"]
    if flags is None or len(flags) != cell["n_test"]:
        failures.append("membership flags of the test rows were not captured")
    elif flags.mean() != cell["coverage"]:
        failures.append("captured flags disagree with the reported coverage")
    if len(cell["areas"]) == 0 or cell["areas"].mean() != cell["area"]:
        failures.append("captured area counts disagree with the reported area")
    return failures


def _inside(rule, x, points) -> tuple:
    """Brute-force membership of ``points`` in the rule's region at ``x``,
    and which of them lie within NEAR of the boundary."""
    if isinstance(rule, experiment.RectangleRule):
        lower, upper = rule.model.bounds(np.atleast_2d(x))
        offset = rule.model.offset if rule.model.offset is not None else 0.0
        margin = np.minimum(points - (lower - offset), (upper + offset) - points).min(axis=1)
        return margin >= 0, np.abs(margin) <= NEAR
    calibrated = rule.rule
    gamma = calibrated.gamma_cal
    if calibrated.mode == "grow":
        distances = oracle.min_distances(points, calibrated.region_carrier(x))
        return distances <= gamma, np.abs(distances - gamma) <= NEAR
    complement = calibrated.complement_carrier(x)
    if complement.shape[0] == 0:
        return np.ones(len(points), dtype=bool), np.zeros(len(points), dtype=bool)
    distances = oracle.min_distances(points, complement)
    return distances >= gamma, np.abs(distances - gamma) <= NEAR


def rescore(cell: dict, prep) -> list:
    """Recompute a sample of the cell's membership flags and area counts
    from its fitted rule by brute force; returns the disagreements.

    Distance rules are rescored with the oracle's distances to the rule's
    carrier, interval rules with a direct test of the rule's bounds.  This
    checks the evaluation's flags and counts, not the fit: the rule itself
    is taken as the program made it.
    """
    rule = cell["rule"]
    x_te, y_te = prep.x["test"], prep.y["test"]
    failures = []
    for i in np.unique(np.linspace(0, len(y_te) - 1, RESCORED_TEST_ROWS).astype(int)):
        inside, near = _inside(rule, x_te[i], y_te[i][None, :])
        if not near[0] and inside[0] != cell["flags"][i]:
            failures.append(f"test row {i}: flag {bool(cell['flags'][i])}, "
                            f"brute force {bool(inside[0])}")
    points = cell["area_grid"].points()
    for j, x in enumerate(cell["area_inputs"][:RESCORED_AREA_ROWS]):
        inside, near = _inside(rule, x, points)
        if abs(int(inside.sum()) - int(cell["areas"][j])) > int(near.sum()):
            failures.append(f"area row {j}: {int(cell['areas'][j])} cells, "
                            f"brute force {int(inside.sum())}")
    return failures


def reference_note(workload: Workload, cell: dict) -> str:
    """Whether a seed-0 cell reproduces the recorded outputs (informational:
    a change may move output bits on purpose)."""
    if workload.reference is None:
        return "has no recorded outputs to compare with"
    coverage, area, delta, digest = workload.reference
    same = (cell["coverage"] == coverage and cell["area"] == area
            and cell["delta_coverage"] == delta
            and (digest is None or cell["digest"] == digest))
    return "match" if same else "differ from"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def context() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": numba_version or "absent",
        "machine": platform.machine(),
    }

"""Benchmark of one qregions experiment cell, end to end.

Run from the root of a source checkout:

    python3 bench/run.py --workload stdqr-d2-n500 --seed 0 --seconds 20 --trace 0

An untraced run (``--trace 0``) runs as many whole cells as fit in
``--seconds`` at the workload's nominal cell time, and at least the
workload's minimum (a run finishes its last cell), and reports the
end-to-end metrics.  Before, between and after the cells it sets up the
workload in fresh processes to time ``setup_s``.  A traced run
(``--trace 1``) runs one cell with every layer traced and reports the
per-layer metrics.  Both check the outputs; the last line of
standard output is one JSON object, and the exit code is 1 when a check
fails.  A full report goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9

END_TO_END_UNITS = {"cell_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "coverage_shortfall": "fraction", "area": "cells",
                    "delta_coverage": "fraction", "cell_error_frac": "fraction"}
# The end-to-end metrics of the result line.  The other three are printed
# and gated: coverage_shortfall by the coverage check, cell_error_frac by
# ``failed``; delta_coverage varies too much between seeds to bound.
RESULT_METRICS = ("cell_s", "setup_s", "peak_rss_mb", "area")
# Parts of a cell's result that stay out of the written report.
CELL_OBJECTS = ("flags", "areas", "area_inputs", "rule", "area_grid", "prep")


def limit_blas_threads() -> None:
    """At most one BLAS thread per available core; set before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cores:
            os.environ[var] = str(cores)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the prepared-data digest, exit")
    return parser.parse_args(argv)


def time_setup(args, repeats: int, times: list, digests: set) -> None:
    """Time ``repeats`` fresh processes that import, generate and prepare;
    add their wall times and the prepared-data digests they printed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(repeats):
        start = perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(perf_counter() - start)
        digests.add(done.stdout.strip())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qregions" / "experiment.py").is_file():
        print(f"error: no qregions sources under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import cells  # imports numpy, so only after the BLAS thread cap

    workload = cells.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(cells.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, prep = cells.set_up(workload, args.seed)
        print(cells.prep_digest(prep))
        return 0
    return run_traced(cells, workload, args) if args.trace else run_untraced(cells, workload, args)


def run_untraced(cells, workload, args) -> int:
    seeds = cells.cell_seeds(workload, args.seed, args.seconds)
    # The setup probes are split into groups before, between and after the
    # cells, so that setup_s samples the machine over the whole run.
    groups = len(seeds) + 1
    setup_times, probe_digests, results, failures = [], set(), [], []
    for k in range(groups):
        repeats = SETUP_REPEATS * (k + 1) // groups - SETUP_REPEATS * k // groups
        time_setup(args, repeats, setup_times, probe_digests)
        if k < len(seeds):
            done, problems = run_cells(cells, workload, [seeds[k]])
            # Rescore now and let go of the fitted model, so that peak_rss_mb
            # stays the footprint of one cell.
            problems += rescore_cells(cells, done)
            for cell in done:
                for key in CELL_OBJECTS:
                    cell.pop(key, None)
            results += done
            failures += problems
    if probe_digests != {results[0].get("prep_digest")}:
        failures.append(f"setup probes prepared other data: {sorted(probe_digests)}")
    done = [r for r in results if "error" not in r]

    # Cell metrics are medians over the run's cells, so that one cell with
    # unusually large regions does not move the run's value.
    def median(key):
        return statistics.median(r[key] for r in done) if done else float("nan")

    values = {
        "cell_s": median("cell_s"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": cells.peak_rss_mb(),
        "coverage_shortfall": max((max(0.0, 1 - cells.ALPHA - r["coverage"]) for r in done),
                                  default=float("nan")),
        "area": median("area"),
        "delta_coverage": median("delta_coverage"),
        "cell_error_frac": (len(results) - len(done)) / len(results),
    }
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    return finish(cells, args, results, failures, metrics, RESULT_METRICS,
                  {"setup_times_s": setup_times})


def run_traced(cells, workload, args) -> int:
    from trace_layers import Tracer

    import oracle

    with Tracer() as tracer:
        left = tracer.unwrapped_bindings()
        results, failures = run_cells(cells, workload, [args.seed])
    failures += [f"binding left unwrapped: {name}" for name in left]
    failures += [f"no binding found for {span}" for span, found in tracer.bindings.items()
                 if not found]
    layers = tracer.layer_metrics()
    # Rescoring queries the rule's regions again, so it runs after the
    # traced counts are taken.
    failures += rescore_cells(cells, results)
    oracle_summary = oracle.check(tracer.samples)
    if not oracle_summary["ok"]:
        failures.append(f"distance oracle mismatch: {oracle_summary}")
    cell = results[0]
    if "error" not in cell:
        failures += count_checks(workload, cell, layers)
    cell_s = cell.get("cell_s", float("nan"))
    layers["trace.cell_s"] = (cell_s, "s")
    share = (layers["regions.min_distances.self_s"][0]
             + layers["regions.pairwise_nn.self_s"][0]) / cell_s
    print(f"trace regions self time share of cell_s {share:.3f}")
    print(f"trace bindings {json.dumps(tracer.bindings)}")
    for net in tracer.nets:
        print(f"trace net {json.dumps(net)}")
    print(f"trace oracle {json.dumps(oracle_summary)}")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.span_records()))
    report = {"bindings": tracer.bindings, "nets": tracer.nets, "oracle": oracle_summary,
              "regions_self_share": share}
    return finish(cells, args, results, failures, layers, tuple(layers), report)


def run_cells(cells, workload, seeds) -> tuple:
    results, failures = [], []
    for seed in seeds:
        try:
            config, prep = cells.set_up(workload, seed)
            cell = cells.run_cell(workload, config, prep, seed)
        except Exception as exc:  # a failed cell is counted, not fatal
            results.append({"seed": seed, "error": traceback.format_exc()})
            failures.append(f"cell seed {seed} raised {type(exc).__name__}: {exc}")
            continue
        cell["prep"] = prep
        cell["prep_digest"] = cells.prep_digest(prep)
        problems = cells.check_cell(cell)
        failures += [f"cell seed {seed}: {p}" for p in problems]
        if not problems:
            cell["digest"] = cells.output_digest(cell)
        cal = cell["calibration"]
        print(f"cell seed={seed} method={workload.method} mode={cal.get('mode')} "
              f"c_init={cal.get('c_init')!r} gamma_cal={cal.get('gamma_cal', cal.get('offset'))!r} "
              f"n_cal={cell['n_cal']} n_test={cell['n_test']} coverage={cell['coverage']!r} "
              f"area={cell['area']!r} delta_coverage={cell['delta_coverage']!r} "
              f"digest={cell.get('digest')} cell_s={cell['cell_s']:.3f} "
              f"fit_and_calibrate_s={cell['fit_and_calibrate_s']:.3f} "
              f"evaluate_s={cell['evaluate_s']:.3f}")
        if seed == 0 and not problems:
            print(f"reference seed 0 outputs {cells.reference_note(workload, cell)} "
                  f"{workload.reference}")
        results.append(cell)
    return results, failures


def rescore_cells(cells, results) -> list:
    """Brute-force rescoring of each finished cell's sampled outputs."""
    failures = []
    for cell in results:
        if "flags" in cell and cell["flags"] is not None:
            failures += [f"cell seed {cell['seed']}: rescored {problem}"
                         for problem in cells.rescore(cell, cell["prep"])]
    return failures


def count_checks(workload, cell, layers) -> list:
    """Traced counts that must follow from the cell's split sizes."""
    count = {name: value for name, (value, _) in layers.items()}
    failures = []
    mode = cell["calibration"].get("mode")
    if workload.method == "naive":
        nonzero = [name for name, value in count.items()
                   if name.startswith(("regions.", "calibration.")) and value != 0]
        if nonzero:
            failures.append(f"naive cell touched regions or calibration: {nonzero}")
        return failures
    per_cal_row = {"grow": 1, "shrink": 2}[mode]
    expected = per_cal_row * cell["n_cal"] + cell["n_test"] + cell["area_rows"]
    if count["calibration.provider_calls"] != expected:
        failures.append(f"{mode} mode made {count['calibration.provider_calls']} provider "
                        f"calls, expected {expected}")
    spaced = cell["n_cal"] - count["calibration.fallback_rows"]
    if count["regions.pairwise_nn.calls"] != spaced:
        failures.append(f"{count['regions.pairwise_nn.calls']} spacing queries for "
                        f"{spaced} calibration regions with at least 2 points")
    return failures


def finish(cells, args, results, failures, metrics, result_names, report) -> int:
    """Print every metric and the checks, write the report, print the result line."""
    kind = "layer" if args.trace else "metric"
    for name, (value, unit) in metrics.items():
        print(f"{kind} {name} {value!r} {unit}")
    attempted = len(results)
    failed = sum(1 for r in results if "error" in r)
    for failure in failures:
        print(f"check FAILED {failure}")
    print(f"check {'ok' if not failures else 'FAILED'}: {attempted} cells, {failed} failed")
    as_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": cells.context(), "failures": failures,
        "cells": [{k: v for k, v in r.items() if k not in CELL_OBJECTS} for r in results],
        "metrics": as_json,
    })
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    print(f"context {json.dumps(report['context'])}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {name: as_json[name] for name in result_names}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

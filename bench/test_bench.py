"""Tests of the benchmark itself, on the smoke workloads (200 rows, 60 epochs).

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
from qregions import calibration, experiment, regions  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def _counts(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] == "count"}


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    code, lines, result = _run(capsys, "smoke-naive", trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 and math.isfinite(m["value"])
               for m in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    assert printed == run.END_TO_END_UNITS


def test_traced_run_passes_its_count_self_check(capsys):
    code, lines, result = _run(capsys, "smoke-npdqr", trace=1)
    assert code == 0, [line for line in lines if "FAILED" in line]
    assert result["correct"] is True
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = _counts(result)
    assert counts["regions.pairwise_nn.calls"] > 0
    assert counts["npdqr.extract.calls"] == counts["calibration.provider_calls"]
    assert counts["nn.epochs"] > 0


def test_traced_naive_cell_makes_no_distance_queries(capsys):
    code, _, first = _run(capsys, "smoke-naive", trace=1)
    assert code == 0
    counts = _counts(first)
    assert all(value == 0 for name, value in counts.items()
               if name.startswith(("regions.", "calibration.")))
    assert counts["nn.epochs"] > 0 and counts["nn.adam.calls"] > 0
    _, _, second = _run(capsys, "smoke-naive", trace=1)
    assert _counts(second) == counts


def test_oracle_check_fails_on_a_wrong_distance_function(capsys, monkeypatch):
    real = regions.min_distances

    def slightly_wrong(points, carrier):
        return real(points, carrier) * (1 + 1e-9)

    for module in (regions, calibration):
        monkeypatch.setattr(module, "min_distances", slightly_wrong)
    code, lines, result = _run(capsys, "smoke-npdqr", trace=1)
    assert code == 1 and result["correct"] is False
    assert any("distance oracle mismatch" in line for line in lines)


def test_oracle_matches_package_distances_bit_for_bit():
    rng = np.random.default_rng(0)
    points, carrier = rng.normal(size=(50, 2)), rng.normal(size=(300, 3))[:, :2]
    summary = oracle.check({
        "min_distances": [(points, carrier, regions.min_distances(points, carrier))],
        "pairwise_nn": [(carrier, regions.pairwise_nn_distances(carrier))],
    })
    assert summary["ok"]
    assert summary["min_distances"]["bit_exact"] == summary["pairwise_nn"]["bit_exact"] == 1


def test_run_without_sources_fails_before_printing_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "smoke-naive"]) != 0
    assert capsys.readouterr().out == ""


def test_rescoring_fails_on_wrong_outputs(capsys, monkeypatch):
    real_flags = experiment.RectangleRule.membership_rows

    def first_flag_flipped(self, x_rows, y_rows):
        flags = real_flags(self, x_rows, y_rows).copy()
        flags[0] = not flags[0]
        return flags

    monkeypatch.setattr(experiment.RectangleRule, "membership_rows", first_flag_flipped)
    code, lines, result = _run(capsys, "smoke-naive", trace=0)
    assert code == 1 and result["correct"] is False
    assert any("rescored test row 0" in line for line in lines)

    real_area = experiment.DistanceRule.area_cells
    monkeypatch.setattr(experiment.DistanceRule, "area_cells",
                        lambda self, x, grid: real_area(self, x, grid) + 1)
    code, lines, result = _run(capsys, "smoke-npdqr", trace=0)
    assert code == 1 and result["correct"] is False
    assert any("rescored area row 0" in line for line in lines)

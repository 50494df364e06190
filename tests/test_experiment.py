import importlib.util
import json
import math
import os
import subprocess
import sys
from contextlib import suppress
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qregions
from linetrace import counted_statements, record_lines, unrun_statements
from qregions import cvae, experiment, npdqr
from qregions.calibration import calibrate
from qregions.data import Dataset, gen_synthetic, split
from qregions.nn import forward_batch, init_mlp
from qregions.numerics import Rng
from qregions.regions import AREA_MEASUREMENT, build_grid
from test_data import write_csv

PACKAGE = Path(qregions.__file__).parent

ROW_KEYS = {"seed", "coverage", "area", "delta_coverage", "per_cluster_coverage",
            "n_test", "method", "config_digest", "calibration",
            "fit_s", "calibrate_s", "evaluate_s", "training"}
TRAINED_NETS = {"naive": ["lower_0", "upper_0", "lower_1", "upper_1"],
                "npdqr": ["threshold"], "stdqr": ["cvae", "latent_threshold"]}
AGGREGATE_KEYS = {"method", "coverage", "coverage_se", "area", "area_se",
                  "delta_coverage", "delta_coverage_se", "per_cluster_coverage", "seeds"}


def smoke_config(methods):
    """Three-method run on 200 synthetic rows with every net capped at 60 epochs."""
    capped = {section: {"max_epochs": 60, "patience": 60}
              for section in ("cvae", "dqr", "naive")}
    return experiment.ExperimentConfig(
        dataset={"kind": "synthetic", "setting": "nonlinear", "d": 2, "p": 1,
                 "n": 200, "seed": 0},
        methods=methods, seeds=(0,),
        training=experiment.desk_scale_profile().merged(capped))


@pytest.fixture(scope="module")
def reached():
    """``(file, line)`` of each package line that the traced runs of this
    module execute."""
    return set()


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory, reached):
    out_dir = tmp_path_factory.mktemp("run")
    with record_lines(PACKAGE, reached):
        result = experiment.run_experiment(smoke_config(experiment.METHODS), out_dir)
    return result, out_dir


@pytest.fixture(scope="module")
def smoke_refit():
    """Each smoke cell fitted again from its config and seed: (config,
    prep, {method: (rule, area grid, info)})."""
    config = smoke_config(experiment.METHODS)
    prep = experiment.prepare(experiment.load_dataset(config.dataset), 0)
    cells = {method: experiment.fit_and_calibrate(method, config, prep, 0)
             for method in experiment.METHODS}
    return config, prep, cells


class TestRunExperiment:
    def test_report_schema(self, smoke_run):
        result, out_dir = smoke_run
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report) == {"config_digest", "rows", "aggregate"}
        assert [row["method"] for row in report["rows"]] == list(experiment.METHODS)
        extra = {"stdqr": {"directional_level", "reconstruction_mse"},
                 "npdqr": {"directional_level"}, "naive": set()}
        for row in report["rows"]:
            assert set(row) == ROW_KEYS | extra[row["method"]]
            for phase in ("fit_s", "calibrate_s", "evaluate_s"):
                assert math.isfinite(row[phase]) and row[phase] >= 0.0
        assert [a["method"] for a in report["aggregate"]] == sorted(experiment.METHODS)
        assert all(set(a) == AGGREGATE_KEYS for a in report["aggregate"])

    def test_run_directory_holds_one_table(self, smoke_run):
        _, out_dir = smoke_run
        report = json.loads((out_dir / "report.json").read_text())
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(
            ["report.json", *experiment.METHODS])
        for method, row in zip(experiment.METHODS, report["rows"]):
            assert [path.name for path in (out_dir / method).iterdir()] == ["0"]
            cell_dir = out_dir / method / "0"
            assert [path.name for path in cell_dir.iterdir()] == ["report.json"]
            assert json.loads((cell_dir / "report.json").read_text()) == row

    def test_rows_carry_training_history(self, smoke_run):
        result, _ = smoke_run
        for row in result["rows"]:
            assert [net["net"] for net in row["training"]] == TRAINED_NETS[row["method"]]
            for net in row["training"]:
                # Patience equals the 60-epoch cap, so every net runs to it.
                assert net["epochs_run"] == 60 and net["hit_cap"] is True
                assert 1 <= net["best_epoch"] <= 60
                assert math.isfinite(net["best_val_loss"])
        naive = next(row for row in result["rows"] if row["method"] == "naive")
        assert math.isfinite(naive["calibration"]["offset"])

    def test_refit_reproduces_each_row(self, smoke_run, smoke_refit):
        # A cell rebuilt from its config and seed gives its row bit for
        # bit, wall times aside: the run keeps no model to reload.
        result, _ = smoke_run
        config, prep, cells = smoke_refit
        timings = {"fit_s", "calibrate_s", "evaluate_s"}
        for row in result["rows"]:
            rule, area_grid, info = cells[row["method"]]
            refit = experiment.evaluate_cell(rule, area_grid, config, prep, 0)
            refit.update(info, config_digest=config.digest())
            assert set(refit) == set(row) - {"evaluate_s"}
            assert {k: v for k, v in refit.items() if k not in timings} == {
                k: v for k, v in row.items() if k not in timings}

    def test_rows_carry_calibration_counts(self, smoke_run, smoke_refit):
        result, _ = smoke_run
        _, prep, cells = smoke_refit
        rows = {row["method"]: row for row in result["rows"]}
        for method in ("npdqr", "stdqr"):
            provider = cells[method][0].rule.provider
            sizes = np.array([len(provider(x)) for x in prep.x["calibration"]])
            report = rows[method]["calibration"]
            assert report["n2"] == len(sizes)
            assert report["empty_regions"] == int((sizes == 0).sum())
            assert report["fallback_rows"] == int((sizes < 2).sum())
            assert report["region_size_min"] == int(sizes.min())
            assert report["region_size_median"] == float(np.median(sizes))
            assert report["region_size_max"] == int(sizes.max())

    def test_cells_train_float32_nets_and_keep_float64_geometry(self, smoke_refit):
        # Every net a smoke cell trains holds float32 parameters; what leaves
        # a net, the thresholds, regions and scores built on it, is float64.
        _, prep, cells = smoke_refit
        naive = cells["naive"][0].model
        npdqr_model = cells["npdqr"][0].rule.provider.__self__.model
        stdqr_model = cells["stdqr"][0].rule.provider.__self__
        nets = [*naive.nets_lo, *naive.nets_hi, npdqr_model.net, stdqr_model.cvae.encoder,
                stdqr_model.cvae.decoder, stdqr_model.extractor.model.net]
        assert len(nets) == 8
        assert {net.flat.dtype for net in nets} == {np.dtype(np.float32)}
        assert all(forward_batch(net, np.zeros((3, net.in_width))).dtype == np.float64
                   for net in nets)
        x, y = prep.x["calibration"], prep.y["calibration"]
        for model in (npdqr_model, stdqr_model.extractor.model):
            assert model.thresholds(x[:3]).dtype == np.float64
        region = stdqr_model.region(x[0])
        assert len(region) > 0 and region.dtype == np.float64
        for method in ("npdqr", "stdqr"):
            assert cells[method][0].rule.scores(x[0], y[:5]).dtype == np.float64

    def test_failed_cell_keeps_its_traceback(self, tmp_path, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise RuntimeError("broken naive fit")

        monkeypatch.setattr(experiment.naive_qr, "fit", broken_fit)
        result = experiment.run_experiment(smoke_config(("naive", "npdqr")), tmp_path)
        failed, finished = result["rows"]
        assert failed["error"] == "RuntimeError: broken naive fit"
        assert "broken_fit" in failed["traceback"]
        assert "error" not in finished and 0.0 <= finished["coverage"] <= 1.0
        assert failed["config_digest"] == finished["config_digest"] == result["config_digest"]
        assert [a["method"] for a in result["aggregate"]] == ["npdqr"]
        # The failed cell's directory holds its error row, not nothing.
        saved = json.loads((tmp_path / "naive" / "0" / "report.json").read_text())
        assert saved["error"] == failed["error"]
        assert saved["traceback"] == failed["traceback"]


class TestDigest:
    def test_smoke_config_digest_is_pinned(self):
        assert smoke_config(experiment.METHODS).digest() == "f919821c648f"

    def test_every_field_but_seeds_moves_it(self):
        config = smoke_config(experiment.METHODS)
        assert replace(config, seeds=(3, 1, 4)).digest() == config.digest()
        changed = {
            "dataset": {**config.dataset, "n": 201},
            "methods": ("naive", "npdqr"),
            "alpha": 0.2,
            "directional_levels": {"npdqr": 0.96},
            "training": config.training.merged({"dqr": {"patience": 7}}),
        }
        # A field added to the config needs a line here.
        assert set(changed) == {f.name for f in fields(config)} - {"seeds"}
        for name, value in changed.items():
            assert replace(config, **{name: value}).digest() != config.digest(), name


@pytest.fixture(scope="module")
def blanket_row(tmp_path_factory, reached):
    """The row of an NP-DQR cell at directional level 0.995, which
    calibrates in shrink mode."""
    with record_lines(PACKAGE, reached):
        config = experiment.ExperimentConfig(
            dataset={"kind": "synthetic", "setting": "nonlinear", "d": 2, "p": 1,
                     "n": 600, "seed": 0},
            methods=("npdqr",), directional_levels={"npdqr": 0.995}, seeds=(0,),
            training=experiment.desk_scale_profile())
        (row,) = experiment.run_experiment(config, tmp_path_factory.mktemp("blanket"))["rows"]
    return row


@pytest.fixture(scope="module")
def csv_run(tmp_path_factory, reached):
    """The smoke run's naive and NP-DQR cells on its rows, read back from a
    CSV file."""
    run_dir = tmp_path_factory.mktemp("csv")
    path = run_dir / "data.csv"
    write_csv(gen_synthetic("nonlinear", 2, 1, 200, seed=0), path)
    with record_lines(PACKAGE, reached):
        config = replace(smoke_config(("naive", "npdqr")), dataset={
            "kind": "csv", "path": str(path), "response_columns": ["y0", "y1"]})
        return experiment.run_experiment(config, run_dir / "run")


@pytest.fixture(scope="module")
def published_row(tmp_path_factory, reached):
    """The row of an ST-DQR cell on the published profile with every epoch
    cap cut to 5, so the auto-encoder takes its default stack."""
    capped = {section: {"max_epochs": 5, "patience": 5} for section in ("cvae", "dqr", "naive")}
    with record_lines(PACKAGE, reached):
        config = experiment.ExperimentConfig(
            dataset={"kind": "synthetic", "setting": "nonlinear", "d": 2, "p": 1,
                     "n": 200, "seed": 0},
            methods=("stdqr",), training=experiment.TrainingProfile().merged(capped))
        (row,) = experiment.run_experiment(config, tmp_path_factory.mktemp("published"))["rows"]
    return row


def test_cell_whose_region_blankets_the_grid_finishes(blanket_row):
    # At directional level 0.995 some calibration regions leave no
    # complement carrier; they score +inf and the cell still calibrates.
    assert "error" not in blanket_row, blanket_row.get("traceback")
    assert blanket_row["calibration"]["mode"] == "shrink"
    assert 0.0 <= blanket_row["coverage"] <= 1.0 and blanket_row["area"] > 0.0
    json.dumps(blanket_row, allow_nan=False)


def test_csv_cells_give_the_synthetic_rows(smoke_run, csv_run):
    # The CSV holds the smoke rows to the bit, so its cells repeat the smoke
    # run's rows; only the digest of the dataset spec and the times differ.
    result, _ = smoke_run
    synthetic = {row["method"]: row for row in result["rows"]}
    differ = {"config_digest", "fit_s", "calibrate_s", "evaluate_s"}
    assert [row["method"] for row in csv_run["rows"]] == ["naive", "npdqr"]
    for row in csv_run["rows"]:
        assert "error" not in row, row.get("traceback")
        expected = synthetic[row["method"]]
        assert {k: v for k, v in row.items() if k not in differ} == {
            k: v for k, v in expected.items() if k not in differ}


def test_published_profile_cell_runs_to_its_caps(published_row):
    assert "error" not in published_row, published_row.get("traceback")
    assert [(net["net"], net["epochs_run"]) for net in published_row["training"]] == [
        ("cvae", 5), ("latent_threshold", 5)]


class TestDirectionalLevels:
    @staticmethod
    def config(**kwargs):
        return experiment.ExperimentConfig(
            dataset={"kind": "synthetic", "setting": "nonlinear", "d": 2, "p": 1,
                     "n": 200, "seed": 0},
            methods=("stdqr", "npdqr"), **kwargs)

    def test_defaults_follow_the_dataset(self):
        assert self.config().resolve_levels() == {"npdqr": 0.95, "stdqr": 0.93}
        # Nonlinear d=4 has its own levels, and the wide ones from p=10 on.
        for p, levels in ((9, {"npdqr": 0.98, "stdqr": 0.93}),
                          (10, {"npdqr": 0.98, "stdqr": 0.95})):
            spec = {"setting": "nonlinear", "d": 4, "p": p, "n": 200}
            assert experiment.ExperimentConfig(dataset=spec).resolve_levels() == levels

    def test_partial_override_keeps_the_other_default(self):
        levels = self.config(directional_levels={"npdqr": 0.995}).resolve_levels()
        assert levels == {"npdqr": 0.995, "stdqr": 0.93}

    def test_unknown_method_key_raises(self):
        with pytest.raises(ValueError, match="npqdr"):
            self.config(directional_levels={"npqdr": 0.99})

    @pytest.mark.parametrize("method, level", [
        ("npdqr", 1.5), ("npdqr", 0.3), ("npdqr", 1.0), ("stdqr", 0.5),
        ("stdqr", -0.1), ("stdqr", math.nan)])
    def test_out_of_range_level_raises(self, method, level):
        # Accepted levels used to fail every DQR cell of the run.
        with pytest.raises(ValueError, match=method):
            self.config(directional_levels={method: level})

    def test_spec_without_kind_is_synthetic(self):
        # load_dataset reads a spec without "kind" as synthetic; so must
        # the levels.
        spec = {"setting": "linear", "d": 2, "p": 1, "n": 200}
        bare = experiment.ExperimentConfig(dataset=spec).resolve_levels()
        tagged = experiment.ExperimentConfig(
            dataset={**spec, "kind": "synthetic"}).resolve_levels()
        assert bare == tagged == {"npdqr": 0.95, "stdqr": 0.95}


@pytest.mark.parametrize("kwargs", [
    {"methods": ("naive", "naive")}, {"methods": ()}, {"seeds": (0, 0)},
    {"seeds": (0.5,)}, {"seeds": (True,)}, {"seeds": ("0",)}, {"seeds": ()},
    {"seeds": (-1,)}],
    ids=["repeated-method", "no-method", "repeated-seed", "fractional-seed",
         "bool-seed", "string-seed", "no-seed", "negative-seed"])
def test_repeated_or_non_integer_cells_raise(kwargs):
    # Repeated cells used to run as copies of one cell, a seed of 0.5 ran
    # seed 0 while reporting 0.5, and a seed of -1 failed in every cell.
    with pytest.raises(ValueError):
        experiment.ExperimentConfig(
            dataset={"kind": "synthetic", "setting": "nonlinear", "d": 2, "p": 1,
                     "n": 200, "seed": 0}, **kwargs)


@pytest.mark.parametrize("spec, key", [
    ({"seed": 0.5}, "seed"), ({"seed": True}, "seed"), ({"sed": 3}, "sed"),
    ({"n": 200.0}, "n"), ({"d": True}, "d"), ({"p": "1"}, "p"),
    ({"pca_components": True}, "pca_components"), ({"kind": "parquet"}, "parquet"),
    ({"kind": "csv", "path": "data.csv"}, "response_columns"),
    ({"kind": "csv", "path": "data.csv", "response_columns": ["y0"], "seed": 1}, "seed"),
    ({"kind": "csv", "path": "data.csv", "response_columns": "y0"}, "response_columns"),
    ({"kind": "csv", "path": 3, "response_columns": ["y0"]}, "path"),
    ({"seed": -3}, "seed")],
    ids=["fractional-seed", "bool-seed", "misspelt-seed", "float-n", "bool-d", "string-p",
         "bool-pca", "unknown-kind", "csv-without-responses", "csv-with-seed",
         "string-responses", "number-path", "negative-seed"])
def test_misread_dataset_spec_raises_naming_the_key(spec, key):
    # Each of these used to construct: a seed of 0.5 generated the seed-0
    # data, "sed" was ignored, a csv spec failed later with a KeyError, a
    # string of response names was read one character at a time, and a
    # seed of -3 crashed the run outside its cells.
    synthetic = {"kind": "synthetic", "setting": "nonlinear", "d": 2, "p": 1, "n": 200}
    base = synthetic if spec.get("kind", "synthetic") == "synthetic" else {}
    with pytest.raises(ValueError, match=key):
        experiment.ExperimentConfig(dataset={**base, **spec})
    with pytest.raises(ValueError, match=key):
        experiment.load_dataset({**base, **spec})


@pytest.mark.parametrize("kwargs, overrides, message", [
    ({"methods": "naive"}, None, "need a list of distinct methods, got 'naive'"),
    ({"seeds": 5}, None, "need a list of distinct integer seeds >= 0, got 5"),
    ({}, ["dqr"], "training overrides must be a mapping"),
    ({}, "dqr", "training overrides must be a mapping"),
    ({"dataset": [1]}, None, "dataset must be a mapping"),
    ({"training": {"naive": {"max_epochs": 5}}}, None, "training must be a TrainingProfile"),
    ({}, {"dqr": 5}, "training section 'dqr' must be a mapping"),
    ({}, {"dqr": None}, "training section 'dqr' must be a mapping"),
    ({}, {"dqr": ["max_epochs"]}, "training section 'dqr' must be a mapping"),
    ({}, {"dqr": "max_epochs"}, "training section 'dqr' must be a mapping"),
    ({"directional_levels": ["npdqr"]}, None, "directional_levels must be a mapping"),
    ({"directional_levels": {"npdqr": "0.9"}}, None, "npdqr directional level must be a number"),
    ({"directional_levels": {"stdqr": None}}, None, "stdqr directional level must be a number"),
    ({"alpha": "0.1"}, None, "alpha must be a number"),
    ({"alpha": None}, None, "alpha must be a number"),
    ({"alpha": True}, None, "alpha must be a number")],
    ids=["string-methods", "number-seeds", "list-overrides", "string-overrides",
         "list-dataset", "dict-training",
         "number-section", "none-section", "list-section", "string-section",
         "list-levels", "string-level", "none-level", "string-alpha", "none-alpha",
         "bool-alpha"])
def test_misread_experiment_setting_raises_naming_the_key(kwargs, overrides, message):
    # Each of these used to raise TypeError or AttributeError, or construct
    # (a training dict then crashed the run outside its cells), and a string
    # of methods or a string section was read one character at a time.
    with pytest.raises(ValueError, match=message):
        experiment.ExperimentConfig(**{
            "dataset": {"setting": "nonlinear", "d": 2, "p": 1, "n": 200},
            "training": experiment.desk_scale_profile().merged(overrides), **kwargs})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=3),
    max_leaves=6)
SYNTHETIC_SPEC = {"setting": "nonlinear", "d": 2, "p": 1, "n": 200}
CSV_SPEC = {"kind": "csv", "path": "data.csv", "response_columns": ["y0"]}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from([f.name for f in fields(experiment.ExperimentConfig)]),
       value=JSON_VALUES)
def test_json_shaped_config_field_builds_or_raises_value_error(name, value):
    # A config read from JSON can hold any of these values in any field; a
    # list inside methods used to raise TypeError from the set of names.
    with suppress(ValueError):
        experiment.ExperimentConfig(**{"dataset": SYNTHETIC_SPEC, name: value})


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([SYNTHETIC_SPEC, CSV_SPEC]),
       key=st.sampled_from(["kind", "setting", "d", "p", "n", "seed", "path",
                            "response_columns"]),
       value=JSON_VALUES)
def test_json_shaped_dataset_value_builds_or_raises_value_error(base, key, value):
    # A list as the kind used to raise TypeError from the kind lookup. A
    # spec the config rejects, load_dataset rejects before it reads data.
    spec = {**base, key: value}
    try:
        experiment.ExperimentConfig(dataset=spec)
    except ValueError:
        with pytest.raises(ValueError):
            experiment.load_dataset(spec)


def test_complete_dataset_specs_construct():
    experiment.ExperimentConfig(dataset={"setting": "linear", "d": 2, "p": 1, "n": 200,
                                         "seed": 3})
    experiment.ExperimentConfig(dataset={"kind": "csv", "path": "data.csv",
                                         "response_columns": ["y0", "y1"]})


class TestAggregate:
    def test_means_and_standard_errors_skip_failed_cells(self):
        rows = [
            {"method": "npdqr", "seed": 0, "coverage": 0.9, "area": 100.0,
             "delta_coverage": 0.02, "per_cluster_coverage": [0.9]},
            {"method": "npdqr", "seed": 1, "coverage": 0.8, "area": 300.0,
             "delta_coverage": 0.04, "per_cluster_coverage": [0.8]},
            {"method": "npdqr", "seed": 2, "error": "RuntimeError: x"},
            {"method": "naive", "seed": 0, "error": "RuntimeError: x"},
        ]
        (report,) = experiment.aggregate(rows)
        assert set(report) == AGGREGATE_KEYS
        assert report["method"] == "npdqr" and report["seeds"] == [0, 1]
        assert report["coverage"] == pytest.approx(0.85)
        assert report["coverage_se"] == pytest.approx(0.05)
        assert report["area"] == pytest.approx(200.0)
        assert report["area_se"] == pytest.approx(100.0)
        assert report["delta_coverage"] == pytest.approx(0.03)
        assert report["per_cluster_coverage"] == [[0.9], [0.8]]

    def test_one_cell_has_zero_standard_error(self):
        (report,) = experiment.aggregate([
            {"method": "naive", "seed": 4, "coverage": 0.9, "area": 1.0,
             "delta_coverage": 0.0, "per_cluster_coverage": [0.9]}])
        assert report["coverage_se"] == report["area_se"] == report["delta_coverage_se"] == 0.0


class TestPrepare:
    def test_zscore_fits_on_train_rows_only(self):
        dataset = gen_synthetic("nonlinear", 2, 6, 300, seed=3)
        prep = experiment.prepare(dataset, seed=1)
        assert prep.x["train"].shape == (len(prep.y["train"]), 6)
        # Prepared train features have mean 0 and population std 1.
        assert np.allclose(prep.x["train"].mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(prep.x["train"].std(axis=0), 1.0)

        held_out = np.setdiff1d(np.arange(dataset.n), split(dataset.n, 1)["train"])
        x, y = dataset.x.copy(), dataset.y.copy()
        x[held_out] = 40.0 * x[held_out][:, ::-1] + 7.0
        y[held_out] *= -5.0
        moved = experiment.prepare(Dataset(x=x, y=y), seed=1)
        assert np.array_equal(moved.x["train"], prep.x["train"])
        assert np.array_equal(moved.y["train"], prep.y["train"])
        assert not np.allclose(moved.x["test"], prep.x["test"])


class TestTrainingProfile:
    def test_desk_scale_profile_merges(self):
        profile = experiment.desk_scale_profile()
        assert profile.dqr.max_epochs == 120
        merged = profile.merged({"dqr": {"patience": 7}})
        assert (merged.dqr.patience, merged.dqr.max_epochs) == (7, 120)
        assert merged.cvae == profile.cvae and profile.dqr.patience == 25

    @pytest.mark.parametrize("make_profile, expected", [
        (experiment.desk_scale_profile,
         {"cvae": (2e-3, 256, 600, 100), "dqr": (2e-3, 256, 120, 25),
          "naive": (2e-3, 256, 200, 40), "cvae_hidden": (64, 64, 64)}),
        (experiment.TrainingProfile,
         {"cvae": (1e-3, 512, 10_000, 200), "dqr": (1e-3, 256, 10_000, 100),
          "naive": (1e-3, 256, 10_000, 100), "cvae_hidden": None}),
    ])
    def test_profiles_are_pinned(self, make_profile, expected):
        profile = make_profile()
        for section in ("cvae", "dqr", "naive"):
            config = getattr(profile, section)
            assert (config.learning_rate, config.batch_size, config.max_epochs,
                    config.patience) == expected[section]
        assert profile.cvae_hidden == expected["cvae_hidden"]

    def test_bad_override_raises_at_merge(self):
        # A cap below the profile's patience used to fail inside every DQR cell.
        with pytest.raises(ValueError, match="patience"):
            experiment.desk_scale_profile().merged({"dqr": {"max_epochs": 10}})
        with pytest.raises(ValueError):
            experiment.TrainingProfile().merged({"naive": {"learning_rate": math.nan}})
        with pytest.raises(ValueError):
            experiment.desk_scale_profile().merged({"dqr": {"learning_rate": True}})

    def test_unknown_section_raises(self):
        with pytest.raises(ValueError, match="'decoder'"):
            experiment.TrainingProfile().merged({"decoder": {"max_epochs": 5}})

    def test_unknown_key_raises(self):
        for key, value in (("batch_norm", True), ("dropout", 0.1), ("hidden", (8,)),
                           ("seed", 3)):
            with pytest.raises(ValueError, match=key):
                experiment.TrainingProfile().merged({"cvae": {key: value}})


def test_import_loads_no_scipy():
    # regions and numerics import scipy inside the functions that need it,
    # so loading the driver stays cheap.
    src = str(Path(qregions.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, qregions.experiment; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "[]"


# Statements of the package's function bodies that the traced runs and
# probes below do not execute, as (function, first line, statement count),
# each with the degenerate input it guards and the tier-1 test that reaches
# it. A raise statement and an exception class's methods need no entry.
UNRUN_ON_PURPOSE = {
    ("stdqr.latent_lattice", "centers = grid.axis_centers(unit)", 3):
        "an inactive latent unit: test_stdqr.py::TestInactiveUnits::"
        "test_inactive_unit_sits_on_the_layer_nearest_its_mean",
    ("experiment.run_experiment", 'row = {"method": method, "seed": seed,', 1):
        "a cell that raises: TestRunExperiment::test_failed_cell_keeps_its_traceback",
    ("experiment.aggregate", "continue", 1):
        "a method with no finished cell: "
        "TestAggregate::test_means_and_standard_errors_skip_failed_cells",
    ("npdqr.sample_direction_pool", "bad = norms[:, 0] == 0.0", 3):
        "a zero normal draw: test_npdqr.py::TestPoolSampling::test_zero_draw_is_redrawn",
    ("numerics.dqr_theoretical_coverage", "from scipy.special import gammainc, ndtri", 4):
        "no caller in the package until ROADMAP item 8 or 20 gives it one: "
        "test_numerics.py::TestTheoreticalCoverage",
}


def test_every_package_statement_runs_or_is_a_named_guard(
        reached, smoke_run, blanket_row, csv_run, published_row):
    # The runs recorded what a run executes; cheap direct calls reach the
    # guards no run does: d=4 responses, the wide levels, each hidden stack,
    # a shrink rule whose provider answers one input with no points, and a
    # region end on an unevenly spaced line, which the first probes miss.
    y = Rng(0).uniform(size=(20, 2))
    grid = build_grid(y, AREA_MEASUREMENT)
    net = init_mlp((2, 1), Rng(0))
    net.weights[0][...], net.biases[0][...] = 0.0, 2.5
    uneven = npdqr.RegionExtractor(npdqr.NpdqrModel(net, np.ones((1, 1))),
                                   np.array([[0.0], [1.0], [2.0], [3.0], [100.0]]))
    with record_lines(PACKAGE, reached):
        gen_synthetic("nonlinear", 4, 1, 20, seed=0)
        experiment.ExperimentConfig(
            dataset={"setting": "nonlinear", "d": 4, "p": 10, "n": 200}).resolve_levels()
        for p in (1, 6, 9, 11, 26):
            cvae.default_hidden(p)
        rule, _ = calibrate(lambda x: grid.points() if x[0] else np.zeros((0, 2)),
                            np.arange(20.0)[:, None], y, alpha=0.1, area_grid=grid)
        region = uneven.extract(np.zeros(1))
    assert rule.mode == "shrink"
    assert region[:, 0].tolist() == [3.0, 100.0]
    unrun = unrun_statements(PACKAGE, reached)
    assert set(unrun) == set(UNRUN_ON_PURPOSE), sorted(unrun.items())


def test_line_trace_forms_are_recognized(tmp_path):
    # On a probe module: a branch no call takes is reported, while an
    # unreached raise, the methods of an exception class and of its
    # subclass, a docstring and a nonlocal declaration are not counted.
    source = tmp_path / "probe.py"
    source.write_text("class ProbeError(ValueError):\n"
                      "    def __init__(self):\n"
                      "        super().__init__('probe')\n"
                      "class RowError(ProbeError):\n"
                      "    def __init__(self, row):\n"
                      "        self.row = row\n"
                      "def clip(a):\n"
                      "    'Docstring.'\n"
                      "    if a < 0:\n"
                      "        raise ProbeError()\n"
                      "    if a > 10:\n"
                      "        a = 10\n"
                      "        a -= 1\n"
                      "    def half(b):\n"
                      "        nonlocal a\n"
                      "        return b / 2\n"
                      "    return [half(v) for v in (a,\n"
                      "                              a)]\n")
    spec = importlib.util.spec_from_file_location("probe", source)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    previous, lines = sys.gettrace(), set()
    with record_lines(tmp_path, lines):
        assert probe.clip(3) == [1.5, 1.5]
    assert sys.gettrace() is previous
    assert [(name, statement.lineno) for name, statement in counted_statements(source)] == [
        ("clip", 9), ("clip", 11), ("clip", 12), ("clip", 13), ("clip", 14),
        ("clip.half", 16), ("clip", 17)]
    assert unrun_statements(tmp_path, lines) == {("probe.clip", "a = 10", 2): [12, 13]}

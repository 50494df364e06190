"""End-to-end experiment driver: per-seed training, calibration, and
evaluation of each region method, plus cross-seed aggregation.

One (method, seed) cell runs: seeded split -> train-only z-scoring ->
method fit on the train split (validation split drives early stopping)
-> conformal calibration on the calibration split -> coverage on the
full test split, region size on an evaluation subsample of test inputs,
and cluster-conditional coverage deviation.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace
from numbers import Real
from pathlib import Path
from time import perf_counter

import numpy as np

from . import naive_qr, npdqr, stdqr
from .calibration import CalibratedRule, calibrate, check_paired_rows
from .cvae import default_hidden, reconstruction_mse
from .data import Dataset, gen_synthetic, load_csv, split, zscore_fit_apply
from .metrics import cluster_coverages, delta_coverage, kmeans
from .nn import TrainConfig
from .numerics import Rng
from .regions import AREA_MEASUREMENT, REGION_DISCRETIZATION, build_grid

METHODS = ("stdqr", "npdqr", "naive")

# Test inputs whose region size is averaged, and k-means clusters of the
# test features for the coverage deviation.
AREA_EVAL_COUNT = 64
CLUSTER_COUNT = 3

# Pre-calibration directional coverage levels of each (setting, d, p>=10)
# that departs from the default: the threshold nets aim above the nominal
# 90% because intersecting half-spaces undercover; calibration corrects.
_DIRECTIONAL_LEVELS = {
    ("linear", 2): {"npdqr": 0.95, "stdqr": 0.95},
    ("nonlinear", 4): {"npdqr": 0.98, "stdqr": 0.93},
    ("nonlinear", 4, "wide"): {"npdqr": 0.98, "stdqr": 0.95},
}
_DEFAULT_LEVELS = {"npdqr": 0.95, "stdqr": 0.93}


@dataclass
class TrainingProfile:
    """Training settings of the three model families and the auto-encoder
    stack ``cvae_hidden`` (None takes ``cvae.default_hidden`` of the
    feature count).

    Defaults follow the published protocol: ``TrainConfig``'s Adam 1e-3,
    batch 256 and patience 100, with batch 512 and patience 200 for the
    auto-encoder. A cell passes its seed to each fit. The nets' other
    settings are constants of ``npdqr``, ``naive_qr`` and ``cvae``.
    """

    cvae: TrainConfig = field(
        default_factory=lambda: TrainConfig(batch_size=512, patience=200))
    dqr: TrainConfig = field(default_factory=TrainConfig)
    naive: TrainConfig = field(default_factory=TrainConfig)
    cvae_hidden: tuple | None = None

    def merged(self, overrides: dict | None) -> "TrainingProfile":
        """Copy with ``overrides`` ({section: {key: value}}) applied.

        Raises ValueError on overrides or a section that is not a mapping,
        a section or key the profile does not have (a seed among them) and
        a value ``TrainConfig`` rejects.
        """
        if overrides is not None and not isinstance(overrides, Mapping):
            raise ValueError(f"training overrides must be a mapping, got {overrides!r}")
        sections = {name: getattr(self, name) for name in ("cvae", "dqr", "naive")}
        for section, values in (overrides or {}).items():
            if section not in sections:
                raise ValueError(f"unknown training section {section!r}")
            if not isinstance(values, Mapping):
                raise ValueError(f"training section {section!r} must be a mapping, got {values!r}")
            unknown = sorted(set(values) - set(asdict(sections[section])))
            if unknown:
                raise ValueError(f"unknown {section} training keys {unknown}")
            sections[section] = replace(sections[section], **values)
        return TrainingProfile(**sections, cvae_hidden=self.cvae_hidden)


def desk_scale_profile() -> TrainingProfile:
    """Reduced-budget profile: same architectures and optimizer, capped
    epochs/patience and a lighter auto-encoder stack, sized so one seed
    of one method runs in minutes on one core."""
    return TrainingProfile(
        cvae=TrainConfig(learning_rate=2e-3, max_epochs=600),
        dqr=TrainConfig(learning_rate=2e-3, max_epochs=120, patience=25),
        naive=TrainConfig(learning_rate=2e-3, max_epochs=200, patience=40),
        cvae_hidden=(64, 64, 64))


@dataclass
class ExperimentConfig:
    dataset: dict
    methods: tuple = METHODS
    alpha: float = 0.1
    directional_levels: dict | None = None
    seeds: tuple = (0,)
    training: TrainingProfile = field(default_factory=TrainingProfile)

    def __post_init__(self):
        _check_dataset_spec(self.dataset)
        _check_number("alpha", self.alpha, 0.0, 1.0)
        if (not isinstance(self.methods, (list, tuple)) or not self.methods
                or len(set(self.methods)) < len(self.methods)):
            raise ValueError(f"need a list of distinct methods, got {self.methods!r}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if (not isinstance(self.seeds, (list, tuple)) or not self.seeds
                or not all(isinstance(s, int) and not isinstance(s, bool) for s in self.seeds)
                or len(set(self.seeds)) < len(self.seeds) or min(self.seeds) < 0):
            raise ValueError(f"need a list of distinct integer seeds >= 0, got {self.seeds!r}")
        if not isinstance(self.training, TrainingProfile):
            raise ValueError(f"training must be a TrainingProfile, got {self.training!r}")
        levels = {} if self.directional_levels is None else self.directional_levels
        if not isinstance(levels, Mapping):
            raise ValueError(f"directional_levels must be a mapping, got {levels!r}")
        unknown = set(levels) - set(_DEFAULT_LEVELS)
        if unknown:
            raise ValueError(f"unknown directional level methods: {sorted(unknown)}")
        for method, level in levels.items():
            _check_number(f"{method} directional level", level, 0.5, 1.0)

    def digest(self) -> str:
        """Short SHA-256 of every field but ``seeds``, so a run's cells share it."""
        payload = asdict(self)
        del payload["seeds"]
        text = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def resolve_levels(self) -> dict:
        """Directional level of each DQR method: the dataset's defaults,
        with ``directional_levels`` merged over them."""
        levels = _DEFAULT_LEVELS
        spec = self.dataset
        if spec.get("kind", "synthetic") == "synthetic":
            key = (spec["setting"], spec["d"])
            if key == ("nonlinear", 4) and spec["p"] >= 10:
                key += ("wide",)
            levels = _DIRECTIONAL_LEVELS.get(key, _DEFAULT_LEVELS)
        return {**levels, **(self.directional_levels or {})}


def _check_number(name: str, value, low: float, high: float) -> None:
    """Reject, naming it, a bool or any value but a number in (low, high)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not low < value < high:
        raise ValueError(f"{name} must be a number in ({low}, {high}), got {value!r}")


def _check_dataset_spec(spec: dict) -> None:
    """Reject, naming the key, a spec that ``load_dataset`` would misread."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"dataset must be a mapping, got {spec!r}")
    kind = spec.get("kind", "synthetic")
    required = {"synthetic": {"setting", "d", "p", "n"}, "csv": {"path", "response_columns"}}
    if kind not in required:
        raise ValueError(f"unknown dataset kind {kind!r}")
    optional = {"kind"} | ({"seed"} if kind == "synthetic" else set())
    missing, unknown = required[kind] - set(spec), set(spec) - required[kind] - optional
    if missing or unknown:
        raise ValueError(f"{kind} spec: missing {sorted(missing)}, unknown {sorted(unknown)}")
    for key in ("seed", "n", "d", "p"):
        if key in spec and (not isinstance(spec[key], int) or isinstance(spec[key], bool)
                            or spec[key] < 0):
            raise ValueError(f"dataset {key!r} must be a non-negative integer, got {spec[key]!r}")
    if kind == "csv":
        if not isinstance(spec["path"], str):
            raise ValueError(f"dataset 'path' must be a string, got {spec['path']!r}")
        columns = spec["response_columns"]
        if (not isinstance(columns, (list, tuple)) or not columns
                or not all(isinstance(c, str) for c in columns)):
            raise ValueError(
                f"dataset 'response_columns' must be a non-empty list of names, got {columns!r}")


def load_dataset(spec: dict) -> Dataset:
    _check_dataset_spec(spec)
    if spec.get("kind", "synthetic") == "synthetic":
        return gen_synthetic(spec["setting"], spec["d"], spec["p"], spec["n"],
                             spec.get("seed", 0))
    return load_csv(spec["path"], spec["response_columns"])


@dataclass
class PreparedData:
    x: dict
    y: dict


def prepare(dataset: Dataset, seed: int) -> PreparedData:
    """Split, then z-score every row with the train rows' statistics."""
    parts = split(dataset.n, seed)
    normalized = zscore_fit_apply(dataset, parts["train"])
    return PreparedData(x={name: normalized.x[rows] for name, rows in parts.items()},
                        y={name: normalized.y[rows] for name, rows in parts.items()})


class DistanceRule:
    """Membership and area counts of a grow/shrink-calibrated provider."""

    def __init__(self, rule: CalibratedRule):
        self.rule = rule

    def membership_rows(self, x_rows, y_rows) -> np.ndarray:
        check_paired_rows(x_rows, y_rows)
        return np.array([self.rule.membership(x, y[None])[0]
                         for x, y in zip(x_rows, y_rows)], dtype=bool)

    def area_cells(self, x, area_grid) -> int:
        return int(self.rule.membership(x, area_grid.points()).sum())


class RectangleRule:
    """Membership and area counts of the calibrated per-dimension interval model."""

    def __init__(self, model: naive_qr.NaiveModel):
        self.model = model

    def membership_rows(self, x_rows, y_rows) -> np.ndarray:
        check_paired_rows(x_rows, y_rows)
        return naive_qr.membership_flags(self.model, x_rows, y_rows)

    def area_cells(self, x, area_grid) -> int:
        return int(naive_qr.membership_flags(self.model, x, area_grid.points()).sum())


def fit_and_calibrate(method: str, config: ExperimentConfig, prep: PreparedData,
                      seed: int):
    """Train one method and calibrate it; returns (rule adapter, area grid,
    info), with the wall times ``fit_s`` and ``calibrate_s`` in ``info``,
    the calibrator's report in its ``calibration`` and one
    ``TrainHistory.summary`` per trained net in its ``training``."""
    start = perf_counter()
    levels = config.resolve_levels()
    x_tr, y_tr = prep.x["train"], prep.y["train"]
    x_v, y_v = prep.x["validation"], prep.y["validation"]
    x_cal, y_cal = prep.x["calibration"], prep.y["calibration"]
    area_grid = build_grid(y_tr, AREA_MEASUREMENT)
    info = {"method": method, "seed": seed}

    if method == "naive":
        model, histories = naive_qr.fit(x_tr, y_tr, x_v, y_v, alpha=config.alpha,
                                        config=config.training.naive, seed=seed)
    elif method == "npdqr":
        alpha_dir = 1.0 - levels["npdqr"]
        pool = npdqr.sample_direction_pool(y_tr.shape[1], npdqr.POOL_SIZE, Rng(seed).spawn(41))
        model, histories = npdqr.fit(x_tr, y_tr, x_v, y_v, alpha=alpha_dir, pool=pool,
                                     config=config.training.dqr, seed=seed)
        region_grid = build_grid(y_tr, REGION_DISCRETIZATION)
        provider = npdqr.RegionExtractor(model, region_grid.points()).extract
        info["directional_level"] = levels["npdqr"]
    elif method == "stdqr":
        alpha_dir = 1.0 - levels["stdqr"]
        hidden = config.training.cvae_hidden
        model, histories = stdqr.fit(
            x_tr, y_tr, x_v, y_v, alpha=alpha_dir, cvae_config=config.training.cvae,
            dqr_config=config.training.dqr, seed=seed,
            cvae_hidden=default_hidden(x_tr.shape[1]) if hidden is None else hidden)
        provider = model.region
        info["directional_level"] = levels["stdqr"]
        info["reconstruction_mse"] = reconstruction_mse(model.cvae, x_cal, y_cal)
    else:
        raise ValueError(f"unknown method {method!r}")

    fitted = perf_counter()
    if method == "naive":
        model, report = naive_qr.calibrate(model, x_cal, y_cal, config.alpha)
        rule = RectangleRule(model)
    else:
        calibrated, report = calibrate(provider, x_cal, y_cal, config.alpha, area_grid)
        rule = DistanceRule(calibrated)
    info.update(fit_s=fitted - start, calibrate_s=perf_counter() - fitted,
                calibration=report,
                training=[history.summary(net) for net, history in histories.items()])
    return rule, area_grid, info


def evaluate_cell(rule, area_grid, config: ExperimentConfig, prep: PreparedData,
                  seed: int) -> dict:
    """Coverage, region size, and cluster deviation for one fitted cell."""
    x_te, y_te = prep.x["test"], prep.y["test"]
    flags = rule.membership_rows(x_te, y_te)
    cov = float(flags.mean())

    eval_count = min(AREA_EVAL_COUNT, len(x_te))
    stride = max(1, len(x_te) // eval_count)
    eval_idx = np.arange(0, len(x_te), stride)[:eval_count]
    areas = [rule.area_cells(x_te[i], area_grid) for i in eval_idx]

    labels = kmeans(x_te, k=CLUSTER_COUNT, seed=seed)
    delta = delta_coverage(rule, x_te, y_te, labels, config.alpha, flags=flags)
    per_cluster = cluster_coverages(flags, labels)
    return {
        "seed": seed,
        "coverage": cov,
        "area": float(np.mean(areas)),
        "delta_coverage": delta,
        "per_cluster_coverage": per_cluster,
        "n_test": int(len(y_te)),
    }


def run_cell(method: str, config: ExperimentConfig, dataset: Dataset, seed: int) -> dict:
    prep = prepare(dataset, seed)
    rule, area_grid, info = fit_and_calibrate(method, config, prep, seed)
    evaluating = perf_counter()
    row = evaluate_cell(rule, area_grid, config, prep, seed)
    row.update(info, evaluate_s=perf_counter() - evaluating)
    return row


def aggregate(rows: list) -> list:
    """Cross-seed means and standard errors, one dict per method."""
    reports = []
    for method in sorted({row["method"] for row in rows}):
        cells = [r for r in rows if r["method"] == method and "error" not in r]
        if not cells:
            continue
        n = len(cells)
        report = {"method": method}
        for metric in ("coverage", "area", "delta_coverage"):
            values = np.array([r[metric] for r in cells])
            report[metric] = float(values.mean())
            report[f"{metric}_se"] = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        report["per_cluster_coverage"] = [r["per_cluster_coverage"] for r in cells]
        report["seeds"] = [r["seed"] for r in cells]
        reports.append(report)
    return reports


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Every (method, seed) cell; a failure in one cell is recorded and
    does not stop the others. Each cell's row goes to
    ``out_dir/<method>/<seed>/report.json`` as the cell ends, and the
    whole result to ``out_dir/report.json``."""
    dataset = load_dataset(config.dataset)
    digest = config.digest()
    out_dir = Path(out_dir)
    rows = []
    for seed in config.seeds:
        for method in config.methods:
            try:
                row = run_cell(method, config, dataset, seed)
            except Exception as exc:  # cell isolation
                row = {"method": method, "seed": seed,
                       "error": f"{type(exc).__name__}: {exc}",
                       "traceback": traceback.format_exc()}
            row["config_digest"] = digest
            rows.append(row)
            cell_dir = out_dir / method / str(seed)
            cell_dir.mkdir(parents=True, exist_ok=True)
            (cell_dir / "report.json").write_text(json.dumps(row, indent=2))
    result = {"config_digest": digest, "rows": rows, "aggregate": aggregate(rows)}
    (out_dir / "report.json").write_text(json.dumps(result, indent=2))
    return result

"""Data handling: synthetic v-shaped generators, deterministic splits,
z-score normalization with train-only statistics, and CSV ingestion for
user-supplied datasets."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng

LINEAR = "linear"
NONLINEAR = "nonlinear"

_SPLIT_NAMES = ("train", "calibration", "validation", "test")
_SPLIT_FRACTIONS = (0.384, 0.256, 0.16, 0.2)


class CsvParseError(ValueError):
    """Malformed CSV content, carrying the 1-based row and column."""

    def __init__(self, message: str, row: int, column):
        super().__init__(f"{message} (row {row}, column {column})")
        self.row = row
        self.column = column


@dataclass
class Dataset:
    """Paired feature and response matrices with aligned rows."""

    x: np.ndarray
    y: np.ndarray
    feature_names: list = field(default_factory=list)
    response_names: list = field(default_factory=list)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("features and responses disagree on row count")
        if not self.feature_names:
            self.feature_names = [f"x{j}" for j in range(self.x.shape[1])]
        if not self.response_names:
            self.response_names = [f"y{j}" for j in range(self.y.shape[1])]

    @property
    def n(self) -> int:
        return self.x.shape[0]


def gen_synthetic(setting: str, d: int, p: int, n: int, seed: int) -> Dataset:
    """Synthetic regression data whose conditional response traces a
    v-shaped curve that sharpens and shifts with the features.

    The direction vector beta is drawn once per dataset and normalized to
    unit L1 norm; everything else is drawn per row.
    """
    if setting not in (LINEAR, NONLINEAR):
        raise ValueError(f"unknown synthetic setting {setting!r}")
    if d not in (2, 3, 4):
        raise ValueError(f"response dimension must be 2, 3 or 4, got {d}")
    if p < 1 or n < 1:
        raise ValueError("feature dimension and sample count must be positive")
    rng = Rng(seed)
    beta_hat = rng.uniform(0.0, 1.0, size=p)
    beta = beta_hat / np.sum(np.abs(beta_hat))
    z = rng.uniform(-np.pi, np.pi, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    radius = rng.uniform(-0.1, 0.1, size=n)
    x = rng.uniform(0.8, 3.2, size=(n, p))
    scaled = z / (x @ beta)
    y0 = scaled + radius * np.cos(phi)
    y1 = 0.5 * (-np.cos(z) + 1.0) + radius * np.sin(phi)
    if setting == NONLINEAR:
        y1 = y1 + np.sin(x.mean(axis=1))
    columns = [y0, y1]
    if d >= 3:
        columns.append(np.sin(scaled))
    if d == 4:
        columns.append(np.cos(np.sin(scaled)) + radius * np.cos(phi) * np.sin(phi))
    return Dataset(x=x, y=np.stack(columns, axis=1))


def split(n: int, seed: int) -> dict:
    """Seeded permutation split: the row indices of train, calibration,
    validation and test, keyed by those names in that order.

    Sizes are the floors of the split fractions, with leftover rows
    assigned by largest fractional part (ties broken in train,
    calibration, validation, test order).
    """
    if n < 10:
        raise ValueError(f"need at least 10 rows to split, got {n}")
    floors = [int(np.floor(f * n)) for f in _SPLIT_FRACTIONS]
    remainder = n - sum(floors)
    fracs = [f * n - fl for f, fl in zip(_SPLIT_FRACTIONS, floors)]
    for slot in sorted(range(4), key=lambda j: (-fracs[j], j))[:remainder]:
        floors[slot] += 1
    perm = Rng(seed).permutation(n)
    bounds = np.cumsum([0, *floors])
    return {name: perm[lo:hi] for name, lo, hi in zip(_SPLIT_NAMES, bounds, bounds[1:])}


def _zscore(values: np.ndarray, train_indices, names) -> np.ndarray:
    """Columns of ``values`` z-scored by the mean and population (1/n)
    standard deviation of their train rows."""
    train = values[train_indices]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    for j, s in enumerate(std):
        if s <= 0.0:
            raise ValueError(f"zero variance in training column {names[j]!r}")
    return (values - mean) / std


def zscore_fit_apply(dataset: Dataset, train_indices) -> Dataset:
    """The dataset with every column normalized by train-only mean/std."""
    if len(train_indices) < 2:
        raise ValueError("need at least 2 training rows to fit normalization")
    return Dataset(
        x=_zscore(dataset.x, train_indices, dataset.feature_names),
        y=_zscore(dataset.y, train_indices, dataset.response_names),
        feature_names=list(dataset.feature_names),
        response_names=list(dataset.response_names),
    )


def load_csv(path, response_columns) -> Dataset:
    """Read a headed CSV, routing the named columns to the response matrix
    and everything else to the features.

    Raises CsvParseError when no response column is named, a name is
    given twice, the header repeats a column name, or every column is a
    response.
    """
    if not response_columns:
        raise CsvParseError("no response columns named", 1, "-")
    for j, name in enumerate(response_columns):
        if name in response_columns[:j]:
            raise CsvParseError(f"response column {name!r} named twice", 1, name)
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # stick to the first column name; plain UTF-8 reads the same.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("empty file", 1, "-") from None
        for j, name in enumerate(header):
            if name in header[:j]:
                raise CsvParseError(f"duplicate column name {name!r}", 1, name)
        for name in response_columns:
            if name not in header:
                raise CsvParseError(f"missing response column {name!r}", 1, name)
        response_idx = [header.index(name) for name in response_columns]
        feature_idx = [j for j in range(len(header)) if j not in response_idx]
        if not feature_idx:
            raise CsvParseError("no feature columns", 1, "-")
        x_rows, y_rows = [], []
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} fields, found {len(row)}",
                    row_number, "-")
            values = []
            for j, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"non-numeric value {cell!r}", row_number, header[j]
                    ) from None
                if not math.isfinite(value):
                    raise CsvParseError(f"non-finite value {cell!r}", row_number, header[j])
                values.append(value)
            x_rows.append([values[j] for j in feature_idx])
            y_rows.append([values[j] for j in response_idx])
    if not x_rows:
        raise CsvParseError("no data rows", 2, "-")
    return Dataset(
        x=np.array(x_rows, dtype=float),
        y=np.array(y_rows, dtype=float),
        feature_names=[header[j] for j in feature_idx],
        response_names=[header[j] for j in response_idx],
    )

import csv
import hashlib

import numpy as np
import pytest

from qregions.data import (
    LINEAR,
    NONLINEAR,
    CsvParseError,
    Dataset,
    gen_synthetic,
    load_csv,
    split,
    zscore_fit_apply,
)
from qregions.numerics import Rng


def write_csv(dataset: Dataset, path) -> None:
    """Write features then responses with a header row; floats use repr so
    a read-back is bit-exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + list(dataset.response_names))
        for xi, yi in zip(dataset.x, dataset.y):
            writer.writerow([repr(float(v)) for v in xi]
                            + [repr(float(v)) for v in yi])


def denormalize(values: np.ndarray, train: np.ndarray) -> np.ndarray:
    """Undo a z-score by the mean and population std of the train rows."""
    return values * train.std(axis=0) + train.mean(axis=0)


def synthetic_responses(setting, d, z, phi, radius, x, beta):
    """Direct one-row evaluation of the generator formulas, used as the
    forced-draw oracle."""
    scaled = z / float(x @ beta)
    y = [scaled + radius * np.cos(phi),
         0.5 * (-np.cos(z) + 1.0) + radius * np.sin(phi)]
    if setting == NONLINEAR:
        y[1] += np.sin(np.mean(x))
    if d >= 3:
        y.append(np.sin(scaled))
    if d == 4:
        y.append(np.cos(np.sin(scaled)) + radius * np.cos(phi) * np.sin(phi))
    return np.array(y)


class TestGenSynthetic:
    def test_forced_draws_match_formulas(self):
        # Z=0, phi=0, R=0 makes both responses vanish in the linear setting.
        assert np.allclose(
            synthetic_responses(LINEAR, 2, 0.0, 0.0, 0.0, np.array([2.0]), np.array([1.0])),
            [0.0, 0.0],
        )
        # Z=pi/2 with p=1 and unit beta gives (pi/(2x), 1/2).
        got = synthetic_responses(LINEAR, 2, np.pi / 2, 0.0, 0.0,
                                  np.array([2.0]), np.array([1.0]))
        assert np.allclose(got, [np.pi / 4, 0.5])
        # Z=0, R=0 pins the higher responses at (0, 1).
        got = synthetic_responses(LINEAR, 4, 0.0, 1.3, 0.0,
                                  np.array([1.5]), np.array([1.0]))
        assert np.allclose(got[2:], [0.0, 1.0])

    def test_rows_satisfy_generator_identities(self):
        # Reconstruct the per-row latent draws is impossible, but algebraic
        # identities relating the columns must hold for every row.
        data = gen_synthetic(NONLINEAR, 3, 2, 500, seed=4)
        # y2 = sin(z/(beta.x)) lies in [-1, 1].
        assert np.all(np.abs(data.y[:, 2]) <= 1.0)
        # y0 deviates from z/(beta.x) by at most the noise radius 0.1;
        # |z/(beta.x)| <= pi / min(beta.x) and beta.x >= 0.8.
        assert np.all(np.abs(data.y[:, 0]) <= np.pi / 0.8 + 0.1)
        assert np.all((data.x >= 0.8) & (data.x <= 3.2))

    def test_mean_of_second_response_matches_population(self):
        # E[(1 - cos Z)/2] = 1/2 for Z uniform on (-pi, pi).
        data = gen_synthetic(LINEAR, 2, 2, 100_000, seed=11)
        assert abs(float(data.y[:, 1].mean()) - 0.5) <= 0.01

    def test_beta_is_shared_and_l1_normalized(self):
        # With a shared beta, y2 = sin(y0 - noise) is a deterministic map of
        # z/(beta.x); verify by regenerating with the same seed.
        d1 = gen_synthetic(LINEAR, 3, 4, 50, seed=9)
        d2 = gen_synthetic(LINEAR, 3, 4, 50, seed=9)
        assert np.array_equal(d1.y, d2.y)
        beta_hat = Rng(9).uniform(0.0, 1.0, size=4)
        beta = beta_hat / np.abs(beta_hat).sum()
        assert np.sum(np.abs(beta)) == pytest.approx(1.0)

    @pytest.mark.parametrize("setting, d, p, n, seed, digest", [
        (NONLINEAR, 2, 1, 200, 0, "f4ab65999dcd9edc"),
        (LINEAR, 2, 3, 50, 7, "7c6d5e719cff7ea8"),
        (NONLINEAR, 3, 2, 100, 4, "ecbf99b338e37219"),
        (NONLINEAR, 4, 1, 60, 0, "e4748da8ae6256fd"),
        (NONLINEAR, 4, 10, 80, 3, "f2120a5bd3b2f541"),
        (LINEAR, 4, 2, 40, 11, "9ec5f63223b972e4")])
    def test_datasets_are_pinned(self, setting, d, p, n, seed, digest):
        # A change to the formulas or to the order of the draws moves these
        # bits, and with them every seeded run on synthetic data.
        data = gen_synthetic(setting, d, p, n, seed)
        assert data.x.shape == (n, p) and data.y.shape == (n, d)
        assert hashlib.sha256(data.x.tobytes() + data.y.tobytes()).hexdigest()[:16] == digest

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            gen_synthetic(LINEAR, 5, 1, 100, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic("quadratic", 2, 1, 100, seed=0)


def split_sizes(s):
    return (len(s["train"]), len(s["calibration"]), len(s["validation"]), len(s["test"]))


class TestSplit:
    def test_thousand_rows(self):
        s = split(1000, seed=0)
        assert list(s) == ["train", "calibration", "validation", "test"]
        assert split_sizes(s) == (384, 256, 160, 200)

    def test_ten_rows(self):
        assert split_sizes(split(10, seed=3)) == (4, 2, 2, 2)

    def test_partition_property(self):
        for n in (10, 37, 1000, 12345):
            s = split(n, seed=1)
            merged = np.concatenate([s["train"], s["calibration"], s["validation"], s["test"]])
            assert sorted(merged.tolist()) == list(range(n))

    def test_deterministic(self):
        a, b = split(500, seed=9), split(500, seed=9)
        assert np.array_equal(a["train"], b["train"])
        assert np.array_equal(a["test"], b["test"])
        assert not np.array_equal(split(500, 1)["train"], split(500, 2)["train"])


class TestZscore:
    def test_train_statistics_only(self):
        data = Dataset(x=np.array([[0.0], [2.0], [10.0]]),
                       y=np.array([[1.0], [3.0], [100.0]]))
        normalized = zscore_fit_apply(data, [0, 1])
        # Train column {0, 2} has mean 1 and population std 1, so the
        # train rows map to -1 and 1 and the third row to 9.
        assert normalized.x[:, 0] == pytest.approx([-1.0, 1.0, 9.0])
        # Train column {1, 3} has mean 2 and population std 1.
        assert normalized.y[:, 0] == pytest.approx([-1.0, 1.0, 98.0])

    def test_value_three_maps_to_two(self):
        data = Dataset(x=np.array([[0.0], [2.0], [3.0]]), y=np.zeros((3, 1)) + [[1], [2], [3]])
        normalized = zscore_fit_apply(data, [0, 1])
        assert normalized.x[2, 0] == pytest.approx(2.0)

    def test_round_trip(self):
        rng = Rng(5)
        data = Dataset(x=rng.uniform(size=(50, 3)), y=rng.uniform(size=(50, 2)))
        normalized = zscore_fit_apply(data, np.arange(30))
        assert normalized.x[:30].mean(axis=0) == pytest.approx(0.0, abs=1e-12)
        assert normalized.x[:30].std(axis=0) == pytest.approx(1.0)
        assert np.max(np.abs(denormalize(normalized.x, data.x[:30]) - data.x)) <= 1e-12
        assert np.max(np.abs(denormalize(normalized.y, data.y[:30]) - data.y)) <= 1e-12

    def test_constant_column_outside_train_is_fine(self):
        x = np.array([[0.0], [1.0], [5.0], [5.0]])
        data = Dataset(x=x, y=x.copy())
        normalized = zscore_fit_apply(data, [0, 1])
        assert np.isfinite(normalized.x).all()

    def test_zero_variance_column_raises_with_name(self):
        data = Dataset(x=np.array([[1.0], [1.0]]), y=np.array([[0.0], [1.0]]),
                       feature_names=["flat"])
        with pytest.raises(ValueError, match="flat"):
            zscore_fit_apply(data, [0, 1])


class TestCsv:
    def test_response_column_routing(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        data = load_csv(path, ["b", "c"])
        assert data.feature_names == ["a"]
        assert np.array_equal(data.x, [[1.0], [4.0]])
        assert np.array_equal(data.y, [[2.0, 3.0], [5.0, 6.0]])

    @pytest.mark.parametrize("cell", ["oops", "nan", "inf", "-inf"])
    def test_parse_error_location(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(path, ["b"])
        assert err.value.row == 3
        assert err.value.column == "b"

    def test_byte_order_mark_leaves_first_column_name(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" export starts with a BOM, which used
        # to stick to the first name and hide the response column y0.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy0,x0,y1\n1,2,3\n4,5,6\n")
        data = load_csv(path, ["y0", "y1"])
        assert data.feature_names == ["x0"] and data.response_names == ["y0", "y1"]
        assert np.array_equal(data.x, [[2.0], [5.0]])
        assert np.array_equal(data.y, [[1.0, 3.0], [4.0, 6.0]])

    def test_missing_response_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CsvParseError):
            load_csv(path, ["z"])

    @pytest.mark.parametrize("header, responses, column", [
        ("a,b,c", ["c", "c"], "c"),
        ("a,b,c", [], "-"),
        ("a,b,a", ["b"], "a"),
        ("a,b,a", ["a"], "a"),
        ("a,b,c", ["a", "b", "c"], "-"),  # no feature column left
    ])
    def test_ambiguous_columns_raise(self, tmp_path, header, responses, column):
        path = tmp_path / "ambiguous.csv"
        path.write_text(f"{header}\n1,2,3\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(path, responses)
        assert err.value.row == 1
        assert err.value.column == column

    def test_write_read_round_trip_bit_exact(self, tmp_path):
        rng = Rng(17)
        data = Dataset(x=rng.standard_normal(size=(25, 3)),
                       y=rng.standard_normal(size=(25, 2)))
        path = tmp_path / "round.csv"
        write_csv(data, path)
        back = load_csv(path, data.response_names)
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.y, data.y)

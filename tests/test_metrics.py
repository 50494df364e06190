import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qregions import naive_qr
from qregions.calibration import GROW, CalibratedRule
from qregions.experiment import DistanceRule, RectangleRule
from qregions.metrics import (
    MIN_FRACTION,
    ConstraintUnsatisfiedError,
    cluster_coverages,
    delta_coverage,
    kmeans,
)
from qregions.naive_qr import NaiveModel
from qregions.nn import init_mlp
from qregions.numerics import Rng


def ball_rule(radius):
    """Grow rule around the origin: covers y when |y| <= radius."""
    return DistanceRule(CalibratedRule(
        mode=GROW, gamma_cal=radius,
        provider=lambda _x: np.zeros((1, 2)), anchor=np.zeros(2),
        complement_threshold=None, complement_points=None))


def constant_net(value):
    net = init_mlp((1, 1), Rng(0))
    net.weights[0][...] = 0.0
    net.biases[0][...] = value
    return net


def always_rule():
    return ball_rule(np.inf)


def never_rule():
    # A distance is never negative.
    return ball_rule(-1.0)


def coverage(rule, x_rows, y_rows) -> float:
    """Fraction of test pairs whose response falls in the region."""
    flags = rule.membership_rows(x_rows, y_rows)
    if len(flags) == 0:
        raise ValueError("coverage over an empty test set is undefined")
    return float(np.mean(flags))


class TestCoverage:
    def test_extremes(self):
        x = np.zeros((10, 1))
        y = Rng(0).uniform(size=(10, 2))
        assert coverage(always_rule(), x, y) == 1.0
        assert coverage(never_rule(), x, y) == 0.0

    def test_matches_flag_mean(self):
        rng = Rng(1)
        x = np.zeros((200, 1))
        y = rng.standard_normal(size=(200, 2))
        rule = ball_rule(1.2)
        flags = rule.membership_rows(x, y)
        assert coverage(rule, x, y) == pytest.approx(flags.mean())

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            coverage(always_rule(), np.zeros((0, 1)), np.zeros((0, 2)))


def separated_blobs():
    rng = Rng(5)
    blobs = [np.array([0.0, 0.0]), np.array([10.0, 0.0]), np.array([0.0, 10.0])]
    return np.concatenate([
        center + 0.3 * rng.standard_normal(size=(100, 2)) for center in blobs
    ])


class TestKmeans:
    def test_recovers_separated_blobs(self):
        x = separated_blobs()
        truth = np.repeat([0, 1, 2], 100)
        labels = kmeans(x, k=3, seed=0)
        # Compare up to relabeling: each blob takes one label, and no two
        # blobs share one.
        order = [int(labels[100 * blob]) for blob in range(3)]
        assert sorted(order) == [0, 1, 2]
        relabeled = np.array([order[t] for t in truth])
        assert np.mean(relabeled == labels) == 1.0

    def test_single_cluster_is_mean(self):
        x = Rng(2).uniform(size=(50, 3))
        labels = kmeans(x, k=1, seed=0)
        assert np.all(labels == 0)

    def test_duplicate_rows_collapse(self):
        x = np.tile([1.5, -2.0], (40, 1))
        labels = kmeans(x, k=3, seed=0)
        assert np.unique(labels).tolist() == [0]

    def test_rows_too_close_to_separate_raise(self):
        # Squared gaps of 1e-170 underflow to zero, so seeding finds no mass
        # left after the first centroid, draws a threshold of 0 and takes
        # row 0; no attempt separates the rows, and the restarts run out.
        x = np.array([[0.0], [1e-170], [2e-170]])
        with pytest.raises(ConstraintUnsatisfiedError):
            kmeans(x, k=2, seed=0)

    def test_restart_budget_exhausted_raises(self):
        # 96% of mass in one blob: no 3-clustering has all clusters >= 20%.
        rng = Rng(9)
        x = np.concatenate([
            0.1 * rng.standard_normal(size=(480, 2)),
            np.array([50.0, 50.0]) + 0.1 * rng.standard_normal(size=(10, 2)),
            np.array([-50.0, 50.0]) + 0.1 * rng.standard_normal(size=(10, 2)),
        ])
        with pytest.raises(ConstraintUnsatisfiedError):
            kmeans(x, k=3, seed=0)

    def test_objective_nonincreasing_over_restarts_winner(self):
        x = Rng(11).uniform(size=(300, 2))
        labels = kmeans(x, k=3, seed=1)
        # At a Lloyd fixpoint the centroids are the means of the clusters,
        # and the fixpoint cannot be improved by one more Lloyd sweep.
        centroids = np.stack([x[labels == j].mean(axis=0) for j in range(3)])
        dist_sq = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        reassigned = dist_sq.argmin(axis=1)
        recentred = np.stack([x[reassigned == j].mean(axis=0) for j in range(3)])
        after = float(((x - recentred[reassigned]) ** 2).sum())
        before = float(((x - centroids[labels]) ** 2).sum())
        assert after <= before + 1e-9

    @pytest.mark.parametrize("x, seed, digest", [
        (separated_blobs(), 0,
         "1fe40fd24058609a0ca4da4e13815c3303d394ae5f6c509ee8c887d6e999ff6a"),
        (Rng(11).uniform(size=(300, 2)), 1,
         "5f3f7db02b4ba3c91c4573e334801bd87d7af1b590907054b99c965496b1a802"),
        # Six distinct rows, repeated 30, 25, 20, 15, 6 and 4 times.
        (np.repeat(Rng(4).uniform(size=(6, 2)), [30, 25, 20, 15, 6, 4], axis=0), 0,
         "dabc2a7a3ea785ec5981a98a9263613a3ed652daf1949460d4cb02fad28e458f"),
    ], ids=["blobs", "uniform", "duplicates"])
    def test_labels_are_pinned(self, x, seed, digest):
        labels = kmeans(x, k=3, seed=seed)
        assert hashlib.sha256(labels.tobytes()).hexdigest() == digest

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=3, max_size=24),
           seed=st.integers(0, 2**16))
    def test_labels_fill_every_cluster(self, rows, seed):
        # The contract cluster_coverages relies on: labels 0 ... c-1, each
        # holding at least MIN_FRACTION of the rows, or a named failure.
        x = np.array(rows, dtype=float)
        try:
            labels = kmeans(x, k=3, seed=seed)
        except ConstraintUnsatisfiedError:
            return
        distinct = len(set(rows))
        assert np.unique(labels).tolist() == list(range(min(3, distinct)))
        assert np.all(np.bincount(labels) >= MIN_FRACTION * len(rows))


class TestDeltaCoverage:
    def test_exact_nominal_coverage_gives_zero(self):
        flags = np.array([True] * 9 + [False])  # 90% in every cluster
        labels = np.tile(np.arange(1), 10)
        x = np.zeros((10, 1))
        y = np.zeros((10, 2))
        got = delta_coverage(None, x, y, labels, alpha=0.1, flags=flags)
        assert got == pytest.approx(0.0)

    def test_hand_computed_value(self):
        # Cluster coverages 1.0, 0.8, 0.9 at alpha=0.1.
        flags = np.array([True] * 10 + [True] * 8 + [False] * 2 + [True] * 9 + [False])
        labels = np.repeat([0, 1, 2], 10)
        got = delta_coverage(None, np.zeros((30, 1)), np.zeros((30, 2)),
                             labels, alpha=0.1, flags=flags)
        assert got == pytest.approx((0.1 + 0.1 + 0.0) / 3)

    def test_empty_cluster_rejected(self):
        # Label 1 has no rows between labels 0 and 2.
        flags = np.ones(5, dtype=bool)
        labels = np.array([0, 0, 2, 2, 2])
        with pytest.raises(ValueError, match="cluster 1 is empty"):
            delta_coverage(None, np.zeros((5, 1)), np.zeros((5, 2)),
                           labels, alpha=0.1, flags=flags)
        # No rows at all leave cluster 0 empty.
        with pytest.raises(ValueError, match="cluster 0 is empty"):
            delta_coverage(None, np.zeros((0, 1)), np.zeros((0, 2)),
                           np.zeros(0, dtype=int), alpha=0.1, flags=flags[:0])

    def test_total_coverage_is_size_weighted_cluster_mean(self):
        rng = np.random.Generator(np.random.PCG64(3))
        flags = rng.uniform(size=100) < 0.85
        labels = rng.integers(0, 3, size=100)
        per_cluster = cluster_coverages(flags, labels)
        assert per_cluster == [float(flags[labels == c].mean()) for c in range(3)]
        sizes = np.bincount(labels)
        weighted = float(np.dot(per_cluster, sizes) / sizes.sum())
        assert weighted == pytest.approx(float(flags.mean()))


@pytest.mark.parametrize("x_rows, y_rows", [(1, 5), (3, 5), (5, 3)])
@pytest.mark.parametrize("kind", ["distance", "rectangle"])
def test_unpaired_rows_raise_before_any_membership(monkeypatch, kind, x_rows, y_rows):
    # A distance rule zipped the extra rows away (1 against 5 gave one
    # flag), and a rectangle rule broadcast one input against every response.
    def refuse(*_args, **_kwargs):
        raise AssertionError("a region or net was evaluated on unpaired rows")

    if kind == "distance":
        rule = ball_rule(1.0)
        rule.rule = dataclasses.replace(rule.rule, provider=refuse)
    else:
        rule = RectangleRule(NaiveModel([constant_net(-1.0)] * 2, [constant_net(1.0)] * 2,
                                        offset=0.0))
        monkeypatch.setattr(naive_qr, "forward_batch", refuse)
    with pytest.raises(ValueError, match="rows"):
        rule.membership_rows(np.zeros((x_rows, 1)), np.zeros((y_rows, 2)))

import math

import numpy as np
import pytest

from oracles import normal_quantile
from qregions.numerics import Rng, dqr_theoretical_coverage, empirical_quantile


def chi2_cdf_quadrature(x: float, r: int, steps: int = 40_000) -> float:
    """Simpson integration of the chi-squared density on [0, x].

    Substituting t = s^2 removes the endpoint singularity for r < 2, so
    the integrand 2 s^(r-1) exp(-s^2/2) is smooth for every r >= 1.
    """
    s = np.linspace(0.0, math.sqrt(x), 2 * steps + 1)
    f = 2.0 * s ** (r - 1) * np.exp(-0.5 * s * s)
    f /= 2.0 ** (r / 2.0) * math.exp(math.lgamma(r / 2.0))
    h = math.sqrt(x) / (2 * steps)
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


class TestEmpiricalQuantile:
    def test_small_cases(self):
        assert empirical_quantile(np.array([3.0, 1.0, 2.0]), 2) == 2
        assert empirical_quantile(np.array([5.0]), 1) == 5

    def test_matches_full_sort_oracle(self):
        draws = Rng(7).uniform(size=100)
        oracle = sorted(draws.tolist())
        assert empirical_quantile(draws, 90) == oracle[89]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            empirical_quantile(np.array([]), 1)
        with pytest.raises(ValueError):
            empirical_quantile(np.array([1.0, 2.0]), 0)
        with pytest.raises(ValueError):
            empirical_quantile(np.array([1.0, 2.0]), 3)

    def test_ties_are_kept(self):
        assert empirical_quantile(np.array([2.0, 1.0, 2.0, 1.0]), 2) == 1.0
        assert empirical_quantile(np.array([2.0, 1.0, 2.0, 1.0]), 3) == 2.0


def radius(alpha: float) -> float:
    """-Phi^-1(alpha), read back from the r=2 coverage 1 - exp(-z^2 / 2)."""
    return math.sqrt(-2.0 * math.log1p(-dqr_theoretical_coverage(alpha, 2)))


class TestInverseNormal:
    """The normal quantile inside ``dqr_theoretical_coverage``, read through
    its closed forms: 1 - 2 alpha at r=1 and 1 - exp(-z^2 / 2) at r=2."""

    def test_median_is_zero(self):
        assert radius(0.5) == 0.0

    def test_extreme_directional_level(self):
        # The 99.38% point sits near 2.50.
        assert radius(0.0062) == pytest.approx(2.50, abs=0.005)

    def test_against_bisection_oracle(self):
        for alpha in (0.05, 0.01, 0.3, 0.1, 0.025):
            assert radius(alpha) == pytest.approx(-normal_quantile(alpha), abs=1e-6)
        assert radius(0.05) == pytest.approx(1.6449, abs=1e-4)

    def test_roundtrip_accuracy(self):
        # At r=1 the ball is the interval |Z| <= -Phi^-1(alpha).
        for alpha in np.linspace(1e-6, 0.5, 101):
            assert abs(dqr_theoretical_coverage(alpha, 1) - (1.0 - 2.0 * alpha)) <= 2e-8

    def test_domain_errors(self):
        for alpha in (0.0, 1.0, -0.1, 1.1, 0.6):
            with pytest.raises(ValueError):
                dqr_theoretical_coverage(alpha, 2)


class TestChiSquaredCdf:
    """The chi-squared CDF inside ``dqr_theoretical_coverage``, at
    x = Phi^-1(alpha)^2."""

    def test_zero_mass_at_origin(self):
        for r in (1, 2, 3, 7):
            assert dqr_theoretical_coverage(0.5, r) == 0.0

    def test_two_dof_closed_form(self):
        # alpha = Phi(-sqrt x) puts x at z^2, and for r=2 the CDF is 1 - exp(-x/2).
        def at(x):
            return dqr_theoretical_coverage(0.5 * math.erfc(math.sqrt(x / 2.0)), 2)

        assert at(2 * math.log(2)) == pytest.approx(0.5, abs=1e-12)
        for x in (0.3, 1.0, 5.0):
            assert at(x) == pytest.approx(1 - math.exp(-x / 2), abs=1e-12)

    def test_against_quadrature_oracle(self):
        z = normal_quantile(0.0062)
        assert dqr_theoretical_coverage(0.0062, 3) == pytest.approx(
            chi2_cdf_quadrature(z * z, 3), abs=1e-8
        )
        assert dqr_theoretical_coverage(0.0062, 3) == pytest.approx(0.90, abs=0.001)
        for alpha, r in ((0.2, 1), (0.05, 4), (0.01, 6)):
            z = normal_quantile(alpha)
            assert dqr_theoretical_coverage(alpha, r) == pytest.approx(
                chi2_cdf_quadrature(z * z, r), abs=1e-7
            )


class TestTheoreticalCoverage:
    def test_alpha_half_gives_zero(self):
        assert dqr_theoretical_coverage(0.5, 3) == 0.0

    def test_extreme_level_reaches_ninety_percent(self):
        assert dqr_theoretical_coverage(0.0062, 3) == pytest.approx(0.90, abs=0.005)

    def test_one_dimension_is_two_sided_interval(self):
        # r=1 reduces to P(|Z| <= -Phi^-1(alpha)) = 1 - 2 alpha.
        assert dqr_theoretical_coverage(0.1, 1) == pytest.approx(0.80, abs=1e-9)

    def test_two_dimension_closed_form(self):
        for alpha in (0.01, 0.05, 0.1, 0.25):
            z = normal_quantile(alpha)
            assert abs(
                dqr_theoretical_coverage(alpha, 2) - (1 - math.exp(-z * z / 2))
            ) <= 1e-7

    def test_monotone_in_alpha_and_dimension(self):
        alphas = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5]
        for r in (1, 2, 3, 4):
            covs = [dqr_theoretical_coverage(a, r) for a in alphas]
            assert all(c1 > c2 for c1, c2 in zip(covs, covs[1:]))
        for alpha in (0.05, 0.1, 0.25):
            covs = [dqr_theoretical_coverage(alpha, r) for r in (1, 2, 3, 4)]
            assert all(c1 > c2 for c1, c2 in zip(covs, covs[1:]))

    def test_matches_monte_carlo_oracle(self):
        rng = Rng(20240)
        for r in (1, 2, 3, 4):
            z = rng.standard_normal(size=(1_000_000 // 4, r))
            norms = np.linalg.norm(z, axis=1)
            for alpha in (0.05, 0.1):
                radius = -normal_quantile(alpha)
                mc = float(np.mean(norms <= radius))
                assert mc == pytest.approx(
                    dqr_theoretical_coverage(alpha, r), abs=0.003
                )


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(123), Rng(123)
        assert np.array_equal(a.uniform(size=10_000), b.uniform(size=10_000))
        assert np.array_equal(a.standard_normal(size=101), b.standard_normal(size=101))
        assert np.array_equal(a.permutation(500), b.permutation(500))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(size=100), Rng(2).uniform(size=100))

    def test_spawn_is_order_independent(self):
        parent = Rng(9)
        child_a = parent.spawn(3).uniform(size=5)
        parent.uniform(size=100)  # consume parent state
        child_b = Rng(9).spawn(3).uniform(size=5)
        assert np.array_equal(child_a, child_b)
        assert not np.array_equal(child_a, Rng(9).spawn(4).uniform(size=5))

    def test_normal_moments(self):
        z = Rng(5).standard_normal(size=200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    @pytest.mark.parametrize("seed", [2.9, 0.5, 1.0, True, np.True_, "3", None, -1])
    def test_non_integer_seed_raises(self, seed):
        # Rng(2.9) used to run seed 2, and Rng(True) seed 1; Rng(-1) raised
        # numpy's error, which does not say "seed".
        with pytest.raises(ValueError, match="seed"):
            Rng(seed)

    def test_numpy_integer_seed_is_the_same_stream(self):
        assert Rng(np.int64(7)).seed == 7 and type(Rng(np.uint32(7)).seed) is int
        assert np.array_equal(Rng(np.int64(7)).uniform(size=8), Rng(7).uniform(size=8))

    def test_subset_distinct(self):
        idx = Rng(11).subset(50, 32)
        assert len(set(idx.tolist())) == 32
        assert idx.min() >= 0 and idx.max() < 50

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from senslab import (
    GaussianModel,
    IneqCheckResult,
    RngStream,
    binomial_point_mass,
    binomial_tail,
    chernoff_tail_bound,
    chi2_gaussian_products,
    chi2_localshift_bound,
    chi2_localshift_mc,
    chi2_products_mc,
    cramer_rao_check,
    efron_stein_check,
    gaussian_lr_identity_check,
    hcr_check,
    hypergeom_mgf_check,
    mean_estimator,
    median_estimator,
    tv_gaussian_shift,
    uniform_spacing_check,
)
from senslab import analysis
from senslab.analysis import _MC_SIGMAS, _log_esp_k, _mc_verdict, _mean_se, _var_se
from senslab.estimators import Estimator


def tv_quadrature_oracle(eta: float) -> float:
    """Numerical integration of 0.5 * |phi(x) - phi(x - eta)| dx."""
    def integrand(x):
        phi0 = math.exp(-0.5 * x * x)
        phi1 = math.exp(-0.5 * (x - eta) ** 2)
        return abs(phi0 - phi1) / math.sqrt(2 * math.pi)
    val, _ = integrate.quad(integrand, -12, 12, limit=200)
    return 0.5 * val


def constant_estimator(value: float) -> Estimator:
    return Estimator(
        name="const", output_dim=1,
        stack_fn=lambda stack: np.full((stack.shape[0], 1), value),
    )


class TestTvGaussianShift:
    def test_zero(self):
        assert tv_gaussian_shift(0.0) == 0.0

    @pytest.mark.parametrize("eta", [0.1, 0.5, 2.0])
    def test_matches_quadrature_oracle(self, eta):
        assert tv_gaussian_shift(eta) == pytest.approx(tv_quadrature_oracle(eta), abs=1e-6)

    def test_frozen_value_at_point_one(self):
        assert tv_gaussian_shift(0.1) == pytest.approx(0.039878, abs=1e-6)

    def test_strictly_below_eta_and_increasing(self):
        grid = np.linspace(1e-4, 6.0, 200)
        vals = [tv_gaussian_shift(float(e)) for e in grid]
        assert all(v < e for v, e in zip(vals, grid))
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert tv_gaussian_shift(60.0) > 1 - 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tv_gaussian_shift(-0.1)


class TestChi2GaussianProducts:
    def test_zero_delta(self):
        assert chi2_gaussian_products(0.0, 100) == 0.0

    def test_unit_exponent_is_e_minus_one(self):
        for n in (25, 100):
            assert chi2_gaussian_products(1 / math.sqrt(n), n) == pytest.approx(
                math.e - 1, abs=1e-12)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            chi2_gaussian_products(2.0, 200)

    def test_monte_carlo_oracle(self):
        closed = chi2_gaussian_products(0.2, 25)  # n delta^2 = 1
        mc, se = chi2_products_mc(0.2, 25, 200_000, RngStream(20, 0))
        assert abs(mc - closed) < 4 * se

    def test_monte_carlo_oracle_is_exactly_zero_at_zero_delta(self):
        assert chi2_products_mc(0.0, 100, 1000, RngStream(0, 0)) == (0.0, 0.0)

    @pytest.mark.parametrize("draws", [1000, 100_000])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.2, 1.25, 2.4, 2.6, 5.0])
    def test_monte_carlo_oracle_runs_where_its_relative_stderr_is_at_most_half(self, s, draws):
        # Relative stderr from the raw moments: Var (LR - 1)^2 = E(LR - 1)^4 - chi2^2,
        # with E LR^m = e^(s m (m - 1) / 2) under P.
        x, chi2 = math.exp(s), math.expm1(s)
        fourth = x ** 6 - 4 * x ** 3 + 6 * x - 3
        rel = math.sqrt((fourth - chi2 * chi2) / draws) / chi2
        if s == 1.0:
            assert round(rel, 3) == {1000: 0.336, 100_000: 0.034}[draws]

        class Drawn(Exception):
            pass

        class Stream:
            def generator(self):
                raise Drawn

        with pytest.raises(Drawn if rel <= 0.5 else ValueError):
            chi2_products_mc(math.sqrt(s / 100), 100, draws, Stream())


class TestChi2LocalShift:
    def test_zero_delta(self):
        assert chi2_localshift_bound(10, 100, 0.0) == 0.0

    def test_frozen_value(self):
        # (k^2/n)(e - 2) exponent at k=10, n=100, delta=1
        assert chi2_localshift_bound(10, 100, 1.0) == pytest.approx(
            math.expm1(math.e - 2), abs=1e-12)
        assert chi2_localshift_bound(10, 100, 1.0) == pytest.approx(1.0509064, abs=1e-6)

    def test_monotone_in_k_and_delta(self):
        ks = [chi2_localshift_bound(k, 100, 0.7) for k in range(1, 101, 7)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))
        ds = [chi2_localshift_bound(10, 100, d) for d in np.linspace(0, 2, 15)]
        assert all(a <= b for a, b in zip(ds, ds[1:]))

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            chi2_localshift_bound(1000, 1000, 3.0)

    def test_log_esp_matches_brute_force(self):
        # oracle: sum of products over all k-subsets
        gen = np.random.default_rng(21)
        w = gen.uniform(0.5, 2.0, size=(4, 6))
        for k in (1, 2, 3):
            got = np.exp(_log_esp_k(w, k))
            from itertools import combinations
            want = np.array([
                sum(np.prod(row[list(c)]) for c in combinations(range(6), k))
                for row in w
            ])
            assert np.allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("k,n,delta", [(3, 50, 0.5), (5, 100, 0.8)])
    def test_mixture_chi2_below_bound(self, k, n, delta):
        bound = chi2_localshift_bound(k, n, delta)
        mc, se = chi2_localshift_mc(k, n, delta, 30_000, RngStream(22, k))
        assert mc <= bound + 4 * se


class TestGaussianLrIdentity:
    def test_orthogonal_directions_give_one(self):
        r = gaussian_lr_identity_check([1.0, 0.0], [0.0, 1.0], 50_000, RngStream(23, 0))
        assert r.rhs == 1.0
        assert r.holds

    def test_aligned_gives_e(self):
        r = gaussian_lr_identity_check([1.0], [1.0], 100_000, RngStream(23, 1))
        assert r.rhs == pytest.approx(math.e, abs=1e-12)
        assert r.holds

    def test_opposite_gives_inverse_e(self):
        r = gaussian_lr_identity_check([1.0], [-1.0], 50_000, RngStream(23, 2))
        assert r.rhs == pytest.approx(1 / math.e, abs=1e-12)
        assert r.holds

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            gaussian_lr_identity_check([1.0], [1.0], 100, RngStream(0, 0))


class TestHypergeomMgf:
    def test_lambda_zero_is_degenerate_one(self):
        r = hypergeom_mgf_check(100, 10, 0.0, 1000, RngStream(24, 0))
        assert r.lhs == 1.0 and r.rhs == 1.0 and r.holds

    def test_main_grid_point(self):
        r = hypergeom_mgf_check(100, 10, 1.0, 100_000, RngStream(24, 1))
        assert r.rhs == pytest.approx(math.exp(math.e - 2), abs=1e-12)
        assert r.lhs <= r.rhs + 4 * r.mc_stderr
        assert r.holds

    def test_full_subsets_are_degenerate(self):
        r = hypergeom_mgf_check(10, 10, 1.0, 1000, RngStream(24, 2))
        assert r.lhs == 1.0
        assert r.holds

    def test_mc_matches_exact_overlap_mgf(self):
        # oracle: exact E exp(lam (H - k^2/n)) from the hypergeometric pmf
        n, k, lam = 12, 4, 0.8
        exact = 0.0
        for h in range(0, k + 1):
            pmf = Fraction(math.comb(k, h) * math.comb(n - k, k - h), math.comb(n, k))
            exact += float(pmf) * math.exp(lam * (h - k * k / n))
        r = hypergeom_mgf_check(n, k, lam, 200_000, RngStream(24, 3))
        assert abs(r.lhs - exact) < 4 * r.mc_stderr


class TestChernoff:
    def test_vacuous_when_t_below_mean(self):
        assert chernoff_tail_bound(100, 0.5, 10) == 1.0

    def test_frozen_value(self):
        assert chernoff_tail_bound(100, 0.01, 10) == pytest.approx(
            (math.e / 10) ** 10, rel=1e-12)
        assert chernoff_tail_bound(100, 0.01, 10) == pytest.approx(2.2026466e-06, rel=1e-6)

    def test_exact_tail_below_bound(self):
        # oracle: exact rational binomial tail
        n, t = 100, 10
        p = Fraction(1, 100)
        tail = sum(
            Fraction(math.comb(n, j)) * p ** j * (1 - p) ** (n - j)
            for j in range(t, n + 1)
        )
        assert float(tail) <= chernoff_tail_bound(n, 0.01, t)
        assert binomial_tail(n, 0.01, t) == pytest.approx(float(tail), rel=1e-10)

    def test_a_nonnegative_log_bound_caps_at_one_without_forming_exp(self):
        # log bound t (1 - log(t / lambda)) = 6e5 (1 - log 1.2) = 490,607: its exp
        # overflows a double, and min(1, e^x) is 1.
        assert chernoff_tail_bound(1_000_000, 0.5, 600_000) == 1.0

    def test_sharp_form_is_sharper(self):
        simple = chernoff_tail_bound(2000, 0.039878, 200)
        sharp = chernoff_tail_bound(2000, 0.039878, 200, sharp=True)
        assert sharp < simple
        # sharp exponent: (t - lam) - t log(t / lam) ~ -63.6
        lam = 2000 * 0.039878
        assert math.log(sharp) == pytest.approx((200 - lam) - 200 * math.log(200 / lam), rel=1e-12)
        assert binomial_tail(2000, 0.039878, 200) <= sharp


class TestBinomialPointMass:
    def test_edges_use_zero_power_zero_convention(self):
        assert binomial_point_mass(7, 0) == 1.0
        assert binomial_point_mass(7, 7) == 1.0

    def test_small_exact_values(self):
        assert binomial_point_mass(4, 2) == pytest.approx(0.375, abs=1e-12)
        oracle = Fraction(math.comb(9, 3)) * Fraction(3, 9) ** 3 * Fraction(6, 9) ** 6
        assert oracle == Fraction(5376, 19683)
        assert binomial_point_mass(9, 3) == pytest.approx(float(oracle), abs=1e-12)

    def test_floor_constant_over_desk_grid(self):
        # exhaustive confirmation of the measured floor before freezing it
        worst = min(
            binomial_point_mass(n, r) * math.sqrt(r + 1)
            for n in range(1, 201)
            for r in range(n + 1)
        )
        assert worst >= 0.24

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binomial_point_mass(5, 6)


class TestEfronStein:
    def test_linear_statistic_saturates(self):
        r = efron_stein_check(mean_estimator(1), GaussianModel(np.zeros(1)), 25,
                              20_000, RngStream(25, 0))
        # analytic: Var = 1/25 and half-sum of squared gaps = 1/25
        assert r.lhs == pytest.approx(0.04, abs=0.003)
        assert r.rhs == pytest.approx(0.04, abs=0.003)
        assert r.holds

    def test_median_obeys_inequality(self):
        r = efron_stein_check(median_estimator(1), GaussianModel(np.zeros(1)), 101,
                              5_000, RngStream(25, 1))
        assert r.holds
        assert r.lhs > 0

    def test_constant_gives_zeros(self):
        r = efron_stein_check(constant_estimator(0.7), GaussianModel(np.zeros(1)), 10,
                              2_000, RngStream(25, 2))
        assert abs(r.lhs) < 1e-15 and abs(r.rhs) < 1e-15 and r.holds

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            efron_stein_check(mean_estimator(1), GaussianModel(np.zeros(1)), 5,
                              10, RngStream(0, 0))


class TestHcr:
    def test_mean_case_matches_analytic_values(self):
        n = 25
        r = hcr_check(mean_estimator(1), 0.0, 1 / math.sqrt(n), n, 50_000, RngStream(26, 0))
        assert r.lhs == pytest.approx(0.04 / (math.e - 1), abs=0.001)
        assert r.rhs == pytest.approx(0.04, abs=0.002)
        assert r.holds

    def test_constant_statistic(self):
        r = hcr_check(constant_estimator(0.3), 0.0, 0.2, 25, 2_000, RngStream(26, 1))
        assert abs(r.lhs) < 1e-15 and abs(r.rhs) < 1e-15 and r.holds

    def test_median_case(self):
        n = 101
        r = hcr_check(median_estimator(1), 0.0, 1 / math.sqrt(n), n, 5_000, RngStream(26, 2))
        assert r.holds

    def test_rejects_zero_h(self):
        with pytest.raises(ValueError):
            hcr_check(mean_estimator(1), 0.0, 0.0, 25, 2_000, RngStream(0, 0))


class TestCramerRao:
    def test_mean_is_efficient(self):
        r = cramer_rao_check(mean_estimator(1), 0.0, 25, 50_000, RngStream(27, 0))
        assert r.lhs == pytest.approx(0.04, abs=0.003)
        assert r.rhs == pytest.approx(0.04, abs=0.003)
        assert r.holds

    def test_scaled_mean(self):
        scaled = Estimator(
            "2x-mean", 1,
            stack_fn=lambda s: 2.0 * s.mean(axis=1),
        )
        r = cramer_rao_check(scaled, 0.0, 25, 50_000, RngStream(27, 1))
        assert r.lhs == pytest.approx(0.16, abs=0.01)
        assert r.rhs == pytest.approx(0.16, abs=0.01)
        assert r.holds

    def test_constant_statistic(self):
        r = cramer_rao_check(constant_estimator(1.0), 0.0, 25, 2_000, RngStream(27, 2))
        assert abs(r.lhs) < 1e-15 and r.holds


class TestUniformSpacing:
    def test_single_point_spacing(self):
        r = uniform_spacing_check(1, 1, 50_000, RngStream(28, 0))
        assert r.holds

    def test_beta_moments_n9(self):
        r = uniform_spacing_check(9, 5, 100_000, RngStream(28, 1))
        assert r.holds

    def test_spacings_telescope_to_one(self):
        gen = RngStream(28, 2).generator()
        u = np.sort(gen.random((100, 9)), axis=1)
        padded = np.concatenate([np.zeros((100, 1)), u, np.ones((100, 1))], axis=1)
        sums = np.diff(padded, axis=1).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-12)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            uniform_spacing_check(5, 7, 1_000, RngStream(0, 0))


class TestTooFewDraws:
    """Every Monte Carlo checker raises below 1000 draws instead of returning a
    NaN stderr (one draw) or a verdict left to noise."""

    CHECKERS = {
        "hcr_check": lambda t: hcr_check(mean_estimator(1), 0.0, 0.2, 25, t, RngStream(0, 0)),
        "hypergeom_mgf_check": lambda t: hypergeom_mgf_check(100, 10, 1.0, t, RngStream(0, 0)),
        "uniform_spacing_check": lambda t: uniform_spacing_check(9, 5, t, RngStream(0, 0)),
        "chi2_products_mc": lambda t: chi2_products_mc(0.1, 100, t, RngStream(0, 0)),
        "chi2_localshift_mc": lambda t: chi2_localshift_mc(3, 50, 0.5, t, RngStream(0, 0)),
        "efron_stein_check": lambda t: efron_stein_check(
            mean_estimator(1), GaussianModel(np.zeros(1)), 5, t, RngStream(0, 0)),
        "cramer_rao_check": lambda t: cramer_rao_check(mean_estimator(1), 0.0, 25, t,
                                                       RngStream(0, 0)),
    }

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    @pytest.mark.parametrize("draws", [0, 1, 999])
    def test_rejects_fewer_than_1000(self, name, draws):
        param = "draws" if name.startswith("chi2_") else "trials"
        with pytest.raises(ValueError, match=rf"^{param} must be an integer >= 1000, got {draws}$"):
            self.CHECKERS[name](draws)


class TestTooFewSamples:
    """Every Monte Carlo checker that takes a free n raises below n = 1,
    before drawing, instead of dividing by zero or taking sqrt(n < 0)."""

    CHECKERS = {
        "hcr_check": lambda n: hcr_check(mean_estimator(1), 0.0, 0.2, n, 1000, RngStream(0, 0)),
        "uniform_spacing_check": lambda n: uniform_spacing_check(n, 1, 1000, RngStream(0, 0)),
        "chi2_products_mc": lambda n: chi2_products_mc(0.1, n, 1000, RngStream(0, 0)),
        "efron_stein_check": lambda n: efron_stein_check(
            mean_estimator(1), GaussianModel(np.zeros(1)), n, 1000, RngStream(0, 0)),
        "cramer_rao_check": lambda n: cramer_rao_check(mean_estimator(1), 0.0, n, 1000,
                                                       RngStream(0, 0)),
    }

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_n_below_1(self, name, n):
        with pytest.raises(ValueError, match=rf"^n must be an integer >= 1, got {n}$"):
            self.CHECKERS[name](n)


class TestClosedFormsRejectNBelow1:
    """The closed forms raise below n = 1 instead of a negative chi-square,
    a ZeroDivisionError or a tail of 0."""

    FORMS = {
        "chi2_gaussian_products": lambda n: chi2_gaussian_products(0.1, n),
        "chernoff_tail_bound": lambda n: chernoff_tail_bound(n, 0.5, 1.0),
        "binomial_tail": lambda n: binomial_tail(n, 0.5, 1),
    }

    @pytest.mark.parametrize("name", sorted(FORMS))
    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_rejects_n_below_1(self, name, n):
        with pytest.raises(ValueError, match=rf"^n must be an integer >= 1, got {n}$"):
            self.FORMS[name](n)

    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_n_equal_1_is_accepted(self, name):
        assert 0.0 <= self.FORMS[name](1) <= 1.0


class TestMcVerdict:
    """The one Monte Carlo pass rule: tol = max(4 se + extra, floor)."""

    def test_one_sided_boundary(self):
        # tol = 4 * 0.25 = 1, so lhs = rhs + tol = 2 exactly.
        r = _mc_verdict(2.0, 1.0, 0.25, 100)
        assert r == IneqCheckResult(lhs=2.0, rhs=1.0, holds=True, mc_stderr=0.25, trials=100)
        assert not _mc_verdict(math.nextafter(2.0, math.inf), 1.0, 0.25, 100).holds
        assert _mc_verdict(-5.0, 1.0, 0.25, 100).holds

    def test_extra_adds_to_the_sigmas(self):
        # tol = 4 * 0.125 + 0.5 = 1.
        assert _mc_verdict(2.0, 1.0, 0.125, 10, extra=0.5).holds
        assert not _mc_verdict(math.nextafter(2.0, math.inf), 1.0, 0.125, 10, extra=0.5).holds

    def test_two_sided_boundary(self):
        # tol = 4 * 0.125 = 0.5 on both sides of rhs = 1; |lhs - rhs| is exact.
        above, below = math.nextafter(1.5, math.inf), 1.0 - math.nextafter(0.5, math.inf)
        for lhs, outside in ((1.5, above), (0.5, below)):
            assert _mc_verdict(lhs, 1.0, 0.125, 10, two_sided=True).holds
            assert not _mc_verdict(outside, 1.0, 0.125, 10, two_sided=True).holds

    def test_floor_boundary(self):
        # 4 * 0.01 = 0.04 is below the floor, so tol = 0.5.
        assert _mc_verdict(1.5, 1.0, 0.01, 10, floor=0.5, two_sided=True).holds
        assert not _mc_verdict(math.nextafter(1.5, math.inf), 1.0, 0.01, 10, floor=0.5,
                               two_sided=True).holds
        assert not _mc_verdict(1.05, 1.0, 0.01, 10, two_sided=True).holds

    def test_mean_se_and_var_se(self):
        values = np.array([[1.0, 2.0], [3.0, 6.0], [5.0, 7.0]])
        mean, se = _mean_se(values)
        assert type(mean) is float and type(se) is float
        assert mean == 4.0 and se == pytest.approx(math.sqrt(5.6 / 6), rel=1e-15)
        means, ses = _mean_se(values, axis=0)
        assert np.array_equal(means, [3.0, 5.0])
        assert np.array_equal(ses, values.std(axis=0, ddof=1) / math.sqrt(3))
        var, se = _var_se(np.array([0.0, 0.0, 3.0, 3.0]))
        assert var == 3.0
        # m4 = 81/16 and var^2 = 9: the stderr's radicand is clipped at 0.
        assert se == 0.0

    def test_the_multiplier_is_written_once(self):
        assert _MC_SIGMAS == 4.0
        source = Path(analysis.__file__).parent
        literal = re.compile(r"(?<![\w.])4\.0(?![\d])")
        hits = [(path.name, line.strip()) for path in sorted(source.glob("*.py"))
                for line in path.read_text().splitlines() if literal.search(line)]
        assert hits == [("analysis.py", "_MC_SIGMAS = 4.0")]

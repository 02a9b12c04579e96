import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import special, stats

import senslab.adversaries as adversaries_mod

from senslab import (
    BernoulliModel,
    CorruptionBudget,
    Dataset,
    GaussianModel,
    RngStream,
    block_layout,
    block_resample,
    couple_gaussian_pair,
    hamming_ball_sup,
    hamming_distance,
    local_shift_adversary,
    mean_estimator,
    median_estimator,
    median_worst_case,
    plugin_estimator,
    resampling_adversary,
    tv_gaussian_shift,
    tv_coupling_adversary,
)
from senslab.estimators import Estimator


def outcome_digest(outcomes) -> str:
    """sha256 over each outcome's corrupted bytes and its (achieved_hamming, feasible)."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.corrupted.samples.tobytes())
        h.update(repr((out.achieved_hamming, out.feasible)).encode())
    return h.hexdigest()


def resample_case(model, n, eta):
    budget = CorruptionBudget.from_eta(eta, n)
    return [resampling_adversary(model.sample(n, RngStream(s, 0)), budget, model, RngStream(s, 1))
            for s in range(4)]


def shift_case(n, eta, delta):
    budget = CorruptionBudget.from_eta(eta, n)
    return [local_shift_adversary(GaussianModel(np.zeros(1)).sample(n, RngStream(s, 0)), budget,
                                  delta, RngStream(s, 1))
            for s in range(4)]


def block_case(model, n, eta):
    """Every block of the layout, each from its own adversary stream."""
    budget = CorruptionBudget.from_eta(eta, n)
    x = model.sample(n, RngStream(7, 0))
    return [block_resample(x, budget, b, model, RngStream(7, 2 * b + 1))
            for b in range(len(block_layout(n, budget.k)))]


# Computed from the public adversaries before they shared the engine's
# stacked bodies; the draws each call makes must not move.
OUTCOME_PINS = {
    "resample/d3": (lambda: resample_case(GaussianModel(np.full(3, 0.25)), 60, 0.1),
        "55d71f3f3cba6ec738477b32b5415ecac4206dae185c0cf0ab7a459a826bb420"),
    "resample/k0": (lambda: resample_case(GaussianModel(np.zeros(2)), 50, 0.01),
        "5224f2ba55c9d9e3b9abe58d6b7ed19ea76e1bff696b859015cef53de4e36aee"),
    "resample/bernoulli": (lambda: resample_case(BernoulliModel(0.3), 40, 0.15),
        "bc91ebddf23b0287042f2e83fe9ab6cd07d09839d3dc4e9520fb31868b057da9"),
    "local-shift": (lambda: shift_case(80, 0.1, 0.7),
        "0b9fbd35e5f2d3d07b7035fcf68a95904cf5a84dc92479f1a16068f392f06381"),
    # k = 4 at n = 41: ten blocks of 4 rows and a last block of 1.
    "block/n41-k4": (lambda: block_case(GaussianModel(np.full(2, -0.5)), 41, 0.1),
        "bd1aec62227228214e6549bb494a41fd9bba376459ea77498c7583ad72aa07e4"),
    "block/bernoulli": (lambda: block_case(BernoulliModel(0.6), 45, 0.07),
        "dcd868ce90b29d47f3a761a1a36bd3f019004900d6a6058d4ba9add0274a09cc"),
}


@pytest.mark.parametrize("name", sorted(OUTCOME_PINS))
def test_public_adversary_pins(name):
    run, digest = OUTCOME_PINS[name]
    assert outcome_digest(run()) == digest


def brute_force_median_sup(values: np.ndarray, k: int, sentinel: float = 1e6) -> float:
    """Independent oracle: enumerate every k-subset of rows and every +-sentinel
    assignment, and take the sup of the median displacement."""
    base = float(np.median(values))
    best = 0.0
    n = values.size
    for subset in itertools.combinations(range(n), k):
        for signs in itertools.product((-sentinel, sentinel), repeat=k):
            y = values.copy()
            y[list(subset)] = signs
            best = max(best, abs(float(np.median(y)) - base))
    return best


class TestResampling:
    def test_zero_budget_is_identity(self):
        x = GaussianModel(np.zeros(2)).sample(50, RngStream(0, 0))
        out = resampling_adversary(x, CorruptionBudget.from_eta(0.01, 50),
                                   GaussianModel(np.zeros(2)), RngStream(0, 1))
        assert hamming_distance(x, out.corrupted) == 0
        assert out.feasible and out.achieved_hamming == 0

    def test_mean_shift_second_moment(self):
        # E || mean(X^res) - mean(X) ||^2 = 2 k d / n^2
        n, k, d, trials = 100, 10, 4, 3000
        model = GaussianModel(np.zeros(d))
        budget = CorruptionBudget.from_eta(k / n + 1e-12, n)
        assert budget.k == k
        mean = mean_estimator(d)
        vals = np.empty(trials)
        for t in range(trials):
            x = model.sample(n, RngStream(4, 2 * t))
            out = resampling_adversary(x, budget, model, RngStream(4, 2 * t + 1))
            assert out.achieved_hamming == k
            vals[t] = float(((mean(out.corrupted) - mean(x)) ** 2).sum())
        target = 2 * k * d / n ** 2
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - target) < 4 * se

    def test_mean_shift_per_coordinate_variance(self):
        # conditional on the subset, the shift is N(0, (2k/n^2) I_d)
        n, k, d, trials = 50, 5, 3, 4000
        model = GaussianModel(np.ones(d))
        budget = CorruptionBudget.from_eta(0.1, n)
        shifts = np.empty((trials, d))
        mean = mean_estimator(d)
        for t in range(trials):
            x = model.sample(n, RngStream(5, 2 * t))
            out = resampling_adversary(x, budget, model, RngStream(5, 2 * t + 1))
            shifts[t] = mean(out.corrupted) - mean(x)
        target = 2 * k / n ** 2
        var = shifts.var(axis=0, ddof=1)
        tol = 4 * target * math.sqrt(2 / trials)
        assert np.all(np.abs(var - target) < tol)
        assert np.all(np.abs(shifts.mean(axis=0)) < 4 * math.sqrt(target / trials))


class TestLocalShift:
    def test_zero_delta_is_bitwise_identity(self):
        x = GaussianModel(np.zeros(1)).sample(30, RngStream(1, 0))
        out = local_shift_adversary(x, CorruptionBudget.from_eta(0.2, 30), 0.0, RngStream(1, 1))
        assert np.array_equal(out.corrupted.samples, x.samples)
        assert out.achieved_hamming == 0

    def test_mean_displacement_is_k_delta_over_n(self):
        n, delta = 100, 0.5
        budget = CorruptionBudget.from_eta(0.1, n)
        x = GaussianModel(np.zeros(1)).sample(n, RngStream(2, 0))
        out = local_shift_adversary(x, budget, delta, RngStream(2, 1))
        mean = mean_estimator(1)
        shift = float(mean(out.corrupted)[0] - mean(x)[0])
        assert shift == pytest.approx(budget.k * delta / n, abs=1e-12)
        assert out.achieved_hamming == budget.k

    def test_rejects_multivariate(self):
        x = GaussianModel(np.zeros(2)).sample(10, RngStream(0, 0))
        with pytest.raises(ValueError):
            local_shift_adversary(x, CorruptionBudget.from_eta(0.5, 10), 1.0, RngStream(0, 1))


class TestTvCoupling:
    def test_vanishing_eta_couples_everything(self):
        clean, out = tv_coupling_adversary(0.0, 1e-9, 5000, RngStream(3, 0))
        assert out.achieved_hamming == 0
        assert np.array_equal(clean.samples, out.corrupted.samples)

    def test_disagreement_count_matches_binomial_mean(self):
        eta, n, trials = 0.1, 500, 400
        tv = tv_gaussian_shift(eta)
        counts = np.empty(trials)
        for t in range(trials):
            _, out = tv_coupling_adversary(0.3, eta, n, RngStream(6, t))
            counts[t] = out.achieved_hamming
        tol = 4 * math.sqrt(tv * (1 - tv) / trials) * n
        assert abs(counts.mean() - n * tv) < tol

    def test_marginals(self):
        eta, n = 0.1, 2000
        mu = 0.25
        xs, ys = [], []
        for t in range(40):
            clean, out = tv_coupling_adversary(mu, eta, n, RngStream(7, t))
            xs.append(clean.samples[:, 0])
            ys.append(out.corrupted.samples[:, 0])
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        se = 1 / math.sqrt(x.size)
        assert abs(x.mean() - mu) < 5 * se
        assert abs(y.mean() - (mu + eta)) < 5 * se
        assert abs(x.var(ddof=1) - 1) < 5 * math.sqrt(2 / x.size)
        assert abs(y.var(ddof=1) - 1) < 5 * math.sqrt(2 / y.size)

    def test_residual_law(self):
        # Where the coupling fails, X' must follow (q - p)_+ / TV, which lives
        # on y > c = mu + eta/2 with CDF
        # [Phi(y-mu-eta) - Phi(y-mu) - Phi(c-mu-eta) + Phi(c-mu)] / TV.
        mu, eta, n = 0.3, 0.1, 2000
        c, tv = mu + eta / 2, tv_gaussian_shift(eta)
        residual = []
        for t in range(60):
            x, y = couple_gaussian_pair(RngStream(9, t).generator(), mu, eta, n)
            residual.append(y[x != y])
        vals = np.concatenate(residual)
        assert vals.size > 4000
        assert np.all(vals > c)

        def cdf(v):
            return (special.ndtr(v - mu - eta) - special.ndtr(v - mu)
                    - special.ndtr(c - mu - eta) + special.ndtr(c - mu)) / tv

        assert stats.kstest(vals, cdf).pvalue > 1e-3

    def test_proposal_guard_bounds_the_work(self, monkeypatch):
        monkeypatch.setattr(adversaries_mod, "_COUPLING_MAX_PROPOSALS", 1000)
        with pytest.raises(RuntimeError, match="failed to terminate"):
            couple_gaussian_pair(RngStream(2, 0).generator(), 0.0, 0.05, 2000)


class TestBlockResample:
    def test_layout_example(self):
        assert block_layout(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_hamming_equals_block_size(self):
        n = 20
        budget = CorruptionBudget.from_eta(6 / n + 1e-12, n)  # k = 6, blocks 6,6,6,2
        model = GaussianModel(np.zeros(2))
        x = model.sample(n, RngStream(8, 0))
        sizes = [stop - start for start, stop in block_layout(n, budget.k)]
        assert sizes == [6, 6, 6, 2]
        for i, size in enumerate(sizes):
            out = block_resample(x, budget, i, model, RngStream(8, i + 1))
            assert out.achieved_hamming == size
            assert out.feasible

    def test_block_index_out_of_range(self):
        x = GaussianModel(np.zeros(1)).sample(10, RngStream(0, 0))
        with pytest.raises(ValueError):
            block_resample(x, CorruptionBudget.from_eta(3 / 10 + 1e-12, 10), 4,
                           GaussianModel(np.zeros(1)), RngStream(0, 1))

    def test_mean_gap_second_moment_per_block(self):
        # E || f(X) - f(X^(i)) ||^2 = 2 |B_i| d / n^2 for the mean
        n, d, trials = 20, 2, 4000
        budget = CorruptionBudget.from_eta(6 / n + 1e-12, n)
        model = GaussianModel(np.zeros(d))
        mean = mean_estimator(d)
        for block, size in ((0, 6), (3, 2)):
            vals = np.empty(trials)
            for t in range(trials):
                x = model.sample(n, RngStream(9, 2 * t))
                out = block_resample(x, budget, block, model, RngStream(9, 2 * t + 1))
                vals[t] = float(((mean(out.corrupted) - mean(x)) ** 2).sum())
            target = 2 * size * d / n ** 2
            se = vals.std(ddof=1) / math.sqrt(trials)
            assert abs(vals.mean() - target) < 4 * se


class TestMedianWorstCase:
    def test_zero_budget(self):
        x = Dataset(np.array([1.0, 2.0, 3.0]))
        out = median_worst_case(x, CorruptionBudget.from_eta(0.2, 3))
        assert out.certificate == 0.0
        assert hamming_distance(x, out.corrupted) == 0

    def test_small_example_against_brute_force(self):
        x = Dataset(np.array([0.0, 1.0, 2.0, 3.0, 10.0]))
        out = median_worst_case(x, CorruptionBudget.from_eta(0.2, 5))
        assert out.certificate == 1.0
        assert out.certificate == brute_force_median_sup(x.samples[:, 0], 1)

    def test_random_datasets_match_brute_force(self):
        gen = np.random.default_rng(12)
        n = 7
        median = median_estimator(1)
        for _ in range(200):
            vals = gen.normal(size=n)
            x = Dataset(vals)
            for k in (1, 2):
                budget = CorruptionBudget.from_eta(k / n + 1e-12, n)
                out = median_worst_case(x, budget)
                assert out.achieved_hamming == k
                assert out.feasible
                # the corrupted dataset achieves exactly the certificate
                achieved = abs(float(median(out.corrupted)[0]) - float(median(x)[0]))
                assert achieved == pytest.approx(out.certificate, abs=1e-12)
                assert out.certificate == pytest.approx(
                    brute_force_median_sup(vals, k), abs=1e-12)

    def test_certificate_monotone_in_k(self):
        vals = np.random.default_rng(13).normal(size=101)
        x = Dataset(vals)
        certs = [
            median_worst_case(x, CorruptionBudget.from_eta(k / 101 + 1e-12, 101)).certificate
            for k in range(0, 40, 3)
        ]
        assert all(a <= b for a, b in zip(certs, certs[1:]))

    def test_concentrates_at_scale_eta(self):
        n, eta = 10001, 0.05
        x = GaussianModel(np.zeros(1)).sample(n, RngStream(14, 0))
        out = median_worst_case(x, CorruptionBudget.from_eta(eta, n))
        # spacing scale is eta * sqrt(2 pi) ~ 0.125 for standard normal data
        assert eta < out.certificate < 6 * eta

    def test_rejects_even_n_and_large_k(self):
        with pytest.raises(ValueError):
            median_worst_case(Dataset(np.zeros(4)), CorruptionBudget.from_eta(0.3, 4))
        with pytest.raises(ValueError):
            median_worst_case(Dataset(np.zeros(5)), CorruptionBudget.from_eta(0.9, 5))


class TestHammingBallSup:
    def test_zero_budget(self):
        plugin = plugin_estimator()
        x = Dataset(np.array([0.0, 1.0, 1.0]))
        out = hamming_ball_sup(plugin, x, CorruptionBudget.from_eta(0.3, 3))
        assert out.certificate == 0.0

    def test_single_flip_moves_plugin_by_one_over_n(self):
        plugin = plugin_estimator()
        for n in (4, 9, 12):
            bits = np.zeros(n)
            bits[: n // 2] = 1.0
            budget = CorruptionBudget.from_eta(1 / n + 1e-12, n)
            out = hamming_ball_sup(plugin, Dataset(bits), budget)
            assert out.certificate == pytest.approx(1 / n, abs=1e-15)

    def test_three_flips_on_twelve_bits(self):
        plugin = plugin_estimator()
        gen = np.random.default_rng(15)
        for _ in range(10):
            bits = (gen.random(12) < 0.5).astype(float)
            out = hamming_ball_sup(plugin, Dataset(bits), CorruptionBudget.from_eta(0.25, 12))
            assert out.certificate == pytest.approx(0.25, abs=1e-15)
            assert out.achieved_hamming <= 3

    def test_certificate_is_achieved_by_returned_dataset(self):
        plugin = plugin_estimator()
        bits = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        budget = CorruptionBudget.from_eta(0.4, 5)
        out = hamming_ball_sup(plugin, Dataset(bits), budget)
        gap = abs(float(plugin(out.corrupted)[0]) - float(plugin(Dataset(bits))[0]))
        assert gap == pytest.approx(out.certificate, abs=1e-15)

    def test_certificate_monotone_in_k(self):
        plugin = plugin_estimator()
        bits = (np.random.default_rng(16).random(10) < 0.4).astype(float)
        certs = [
            hamming_ball_sup(plugin, Dataset(bits),
                             CorruptionBudget.from_eta(k / 10 + 1e-12, 10)).certificate
            for k in range(1, 6)
        ]
        assert all(a <= b for a, b in zip(certs, certs[1:]))

    def test_enumeration_guards(self):
        plugin = plugin_estimator()
        with pytest.raises(ValueError, match="uint32"):
            # 33 bits do not fit the flip masks, although the ball has 34 points
            hamming_ball_sup(plugin, Dataset(np.zeros(33)), CorruptionBudget.from_eta(0.04, 33))
        with pytest.raises(ValueError):
            # ball of radius 11 on 23 bits exceeds 1e6 points
            hamming_ball_sup(plugin, Dataset(np.zeros(23)), CorruptionBudget.from_eta(0.5, 23))

    def test_thirty_bits_match_single_flips(self):
        # 30 bits fit the uint32 masks; at k = 1 the certificate is the
        # largest single-bit flip.
        gen = RngStream(41, 0).generator()
        weights = gen.permutation(np.arange(1.0, 31.0))
        # (w . b)^2 with integer weights: every value is an exact integer.
        square = Estimator("square", 1,
                           stack_fn=lambda s: ((s[:, :, 0] * weights).sum(axis=1) ** 2)[:, None],
                           binary_domain=True)
        bits = (gen.random(30) < 0.5).astype(float)
        x = Dataset(bits)
        out = hamming_ball_sup(square, x, CorruptionBudget.from_eta(1 / 30 + 1e-12, 30))
        base = float(square(x)[0])
        flips = [abs(float(square(x.replace_rows([i], [[1.0 - bits[i]]]))[0]) - base)
                 for i in range(30)]
        assert out.certificate == max(flips)
        assert out.achieved_hamming == 1
        assert abs(float(square(out.corrupted)[0]) - base) == out.certificate

    def test_rejects_non_binary(self):
        plugin = plugin_estimator()
        with pytest.raises(ValueError):
            hamming_ball_sup(plugin, Dataset(np.full(5, 0.5)), CorruptionBudget.from_eta(0.2, 5))


class TestMeanAdaptiveUnboundedness:
    def test_displacement_grows_without_bound(self):
        x = GaussianModel(np.zeros(1)).sample(20, RngStream(17, 0))
        mean = mean_estimator(1)
        base = float(mean(x)[0])
        gaps = []
        for magnitude in (1e3, 1e6, 1e9):
            y = x.replace_rows([0], [[magnitude]])
            gaps.append(abs(float(mean(y)[0]) - base))
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[2] > 1e7

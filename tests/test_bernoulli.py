import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import integrate

from senslab import (
    BernoulliModel,
    CorruptionBudget,
    Dataset,
    LayerSpec,
    RngStream,
    bernoulli_expected_sensitivity,
    beta_binomial_layer_law,
    hamming_ball_sup,
    layer_transport,
    plugin_estimator,
    uniform_layer_sample,
)


def enumerate_transport_law(n: int, t: int, ell: int) -> Counter:
    """Oracle: enumerate every (start vector, flip subset) pair of the
    transport map and count how often each output vector arises."""
    counts: Counter = Counter()
    for ones in itertools.combinations(range(n), t):
        x = np.zeros(n, dtype=int)
        x[list(ones)] = 1
        zeros = [i for i in range(n) if x[i] == 0]
        for flip in itertools.combinations(zeros, ell):
            y = x.copy()
            y[list(flip)] = 1
            counts[tuple(y)] += 1
    return counts


class TestLayerSpec:
    def test_validation(self):
        LayerSpec(5, 0)
        LayerSpec(5, 5)
        with pytest.raises(ValueError):
            LayerSpec(5, 6)
        with pytest.raises(ValueError):
            LayerSpec(0, 0)


class TestUniformLayerSample:
    def test_extreme_layers(self):
        assert np.array_equal(uniform_layer_sample(LayerSpec(6, 0), RngStream(0, 0)),
                              np.zeros(6, dtype=np.uint8))
        assert np.array_equal(uniform_layer_sample(LayerSpec(6, 6), RngStream(0, 0)),
                              np.ones(6, dtype=np.uint8))

    def test_uniform_over_layer_two_of_four(self):
        trials = 60_000
        counts = Counter()
        for t in range(trials):
            v = uniform_layer_sample(LayerSpec(4, 2), RngStream(30, t))
            counts[tuple(v)] += 1
        assert len(counts) == 6
        p = 1 / 6
        tol = 4 * math.sqrt(p * (1 - p) / trials)
        for c in counts.values():
            assert abs(c / trials - p) < tol


class TestLayerTransport:
    def test_zero_flip_is_identity(self):
        x = np.array([1, 0, 1, 0], dtype=np.uint8)
        assert np.array_equal(layer_transport(x, 0, RngStream(0, 0)), x)

    def test_distance_is_exactly_ell(self):
        gen = np.random.default_rng(31)
        for t in range(50):
            x = (gen.random(10) < 0.4).astype(np.uint8)
            ell = int(gen.integers(0, 10 - x.sum() + 1))
            y = layer_transport(x, ell, RngStream(31, t))
            assert int((x != y).sum()) == ell
            assert int(y.sum()) == int(x.sum()) + ell

    def test_rejects_oversized_flip(self):
        with pytest.raises(ValueError):
            layer_transport(np.array([1, 1, 0]), 2, RngStream(0, 0))

    def test_uniformity_by_enumeration_n5_t1_ell2(self):
        # every weight-3 output must occur equally often over all
        # (start, flip-subset) pairs: 3 preimages each out of 5 * C(4,2) = 30
        counts = enumerate_transport_law(5, 1, 2)
        assert len(counts) == math.comb(5, 3)
        assert set(counts.values()) == {3}

    def test_composition_matches_single_transport_in_distribution(self):
        # ell1 then ell2 from Layer(1) on n=5 gives the same exact law as a
        # single transport of ell1 + ell2 (both uniform on Layer(1+ell1+ell2))
        two_step: Counter = Counter()
        for ones in itertools.combinations(range(5), 1):
            x = np.zeros(5, dtype=int)
            x[list(ones)] = 1
            zeros1 = [i for i in range(5) if x[i] == 0]
            for f1 in itertools.combinations(zeros1, 1):
                y = x.copy()
                y[list(f1)] = 1
                zeros2 = [i for i in range(5) if y[i] == 0]
                for f2 in itertools.combinations(zeros2, 1):
                    z = y.copy()
                    z[list(f2)] = 1
                    two_step[tuple(z)] += 1
        one_step = enumerate_transport_law(5, 1, 2)
        total_two = sum(two_step.values())
        total_one = sum(one_step.values())
        for key in set(two_step) | set(one_step):
            assert two_step[key] / total_two == pytest.approx(
                one_step[key] / total_one, abs=1e-15)

    def test_sampler_agrees_with_enumerated_law(self):
        trials = 30_000
        counts = Counter()
        for t in range(trials):
            x = uniform_layer_sample(LayerSpec(5, 1), RngStream(32, 2 * t))
            y = layer_transport(x, 2, RngStream(32, 2 * t + 1))
            counts[tuple(y)] += 1
        p = 1 / math.comb(5, 3)
        tol = 4 * math.sqrt(p * (1 - p) / trials)
        for c in counts.values():
            assert abs(c / trials - p) < tol


class TestBetaBinomialLayerLaw:
    def test_flat_law_small_cases(self):
        assert np.allclose(beta_binomial_layer_law(3), 0.25, atol=1e-12)
        assert np.allclose(beta_binomial_layer_law(1), 0.5, atol=1e-12)

    def test_quadrature_oracle_n10(self):
        law = beta_binomial_layer_law(10)
        for t in range(11):
            coeff = math.comb(10, t)
            val, _ = integrate.quad(lambda p, t=t: coeff * p ** t * (1 - p) ** (10 - t), 0, 1)
            assert abs(law[t] - val) < 1e-10
            assert abs(law[t] - 1 / 11) < 1e-10

    def test_sums_to_one_and_constant(self):
        for n in (2, 7, 40):
            law = beta_binomial_layer_law(n)
            assert abs(law.sum() - 1.0) < 1e-12
            assert law.max() - law.min() < 1e-12


class TestBernoulliModel:
    def test_samples_are_binary_and_deterministic(self):
        model = BernoulliModel(0.3)
        a = model.sample(100, RngStream(33, 0))
        b = model.sample(100, RngStream(33, 0))
        assert np.array_equal(a.samples, b.samples)
        assert set(np.unique(a.samples)) <= {0.0, 1.0}

    def test_mean_matches_p(self):
        model = BernoulliModel(0.7)
        x = model.sample(100_000, RngStream(33, 1))
        assert abs(x.samples.mean() - 0.7) < 5 * math.sqrt(0.21 / 100_000)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            BernoulliModel(1.2)


class TestExpectedSensitivity:
    def test_zero_budget(self):
        budget = CorruptionBudget.from_eta(0.01, 12)
        assert budget.k == 0
        assert bernoulli_expected_sensitivity(plugin_estimator(), 12, 0.5, budget) == 0.0

    def test_zero_budget_builds_no_tables(self):
        # The 2^20-entry weight, probability and value tables take tens of MiB.
        plugin, budget = plugin_estimator(), CorruptionBudget.from_eta(0.01, 20)
        assert budget.k == 0
        tracemalloc.start()
        try:
            assert bernoulli_expected_sensitivity(plugin, 20, 0.5, budget) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_plugin_single_flip_is_one_over_n(self, p):
        budget = CorruptionBudget.from_eta(1 / 12 + 1e-12, 12)
        got = bernoulli_expected_sensitivity(plugin_estimator(), 12, p, budget)
        assert got == pytest.approx(1 / 12, abs=1e-12)

    def test_monotone_in_k(self):
        vals = [
            bernoulli_expected_sensitivity(
                plugin_estimator(), 10, 0.4,
                CorruptionBudget.from_eta(k / 10 + 1e-12, 10))
            for k in range(1, 6)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        # computable surrogate for the plug-in: result >= k / (2n)
        for k, v in zip(range(1, 6), vals):
            assert v >= k / 20 - 1e-15

    def test_matches_per_dataset_ball_enumeration(self):
        # oracle: weight every dataset of {0,1}^6 by hand and use the
        # independent per-dataset ball search
        n, p = 6, 0.3
        budget = CorruptionBudget.from_eta(2 / n + 1e-12, n)
        plugin = plugin_estimator()
        want = 0.0
        for code in range(1 << n):
            bits = np.array([(code >> j) & 1 for j in range(n)], dtype=float)
            w = p ** bits.sum() * (1 - p) ** (n - bits.sum())
            cert = hamming_ball_sup(plugin, Dataset(bits), budget).certificate
            want += w * cert
        got = bernoulli_expected_sensitivity(plugin, n, p, budget)
        assert got == pytest.approx(want, abs=1e-12)

    def test_degenerate_p_values(self):
        budget = CorruptionBudget.from_eta(1 / 8 + 1e-12, 8)
        for p in (0.0, 1.0):
            got = bernoulli_expected_sensitivity(plugin_estimator(), 8, p, budget)
            assert got == pytest.approx(1 / 8, abs=1e-12)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            bernoulli_expected_sensitivity(plugin_estimator(), 21, 0.5,
                                           CorruptionBudget.from_eta(0.1, 21))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import senslab.estimators as est_mod
from senslab import (
    ClipInterval,
    CorruptionBudget,
    Dataset,
    Estimator,
    RngStream,
    bernoulli_plugin,
    build_estimator,
    clip_estimator,
    coordinatewise_median,
    empirical_mean,
    hamming_ball_sup,
    mean_estimator,
    median_estimator,
    plugin_estimator,
    project_scalar,
    sample_unit_direction,
    standard_normal,
)


class TestEmpiricalMean:
    def test_examples(self):
        assert empirical_mean(Dataset(np.array([0.0, 2.0]))) == pytest.approx(1.0, abs=0)
        v = np.array([1.5, -2.0, 3.0])
        assert np.array_equal(empirical_mean(Dataset(np.tile(v, (7, 1)))), v)
        x = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        assert np.array_equal(empirical_mean(x), np.array([1.0, 1.0]))

    def test_summation_accuracy_at_ten_million(self):
        gen = np.random.default_rng(3)
        vals = gen.normal(size=10_000_000) + 1e6
        got = float(empirical_mean(Dataset(vals))[0])
        # long-double accumulation as the high-precision oracle
        exact = float(np.sum(vals.astype(np.longdouble)) / vals.size)
        assert abs(got - exact) / abs(exact) < 1e-12


class TestCoordinatewiseMedian:
    def test_examples(self):
        assert coordinatewise_median(Dataset(np.array([3.0, 1.0, 2.0])))[0] == 2.0
        assert coordinatewise_median(Dataset(np.array([0.0, 1.0, 2.0, 3.0, 10.0])))[0] == 2.0
        v = np.array([4.0, -1.0])
        assert np.array_equal(coordinatewise_median(Dataset(np.tile(v, (9, 1)))), v)

    def test_even_n_is_lower_median(self):
        assert coordinatewise_median(Dataset(np.array([4.0, 1.0, 3.0, 2.0])))[0] == 2.0

    def test_matches_sort_oracle(self):
        gen = np.random.default_rng(11)
        for n in (1, 2, 5, 8, 101):
            arr = gen.normal(size=(n, 3))
            want = np.sort(arr, axis=0)[(n - 1) // 2]
            assert np.array_equal(coordinatewise_median(Dataset(arr)), want)


class TestSymmetries:
    @pytest.mark.parametrize("factory", [mean_estimator, median_estimator])
    def test_translation_equivariance(self, factory):
        est = factory(3)
        gen = np.random.default_rng(5)
        x = gen.normal(size=(11, 3))
        c = np.array([2.5, -1.0, 0.25])
        shifted = est(Dataset(x + c))
        assert np.allclose(shifted, est(Dataset(x)) + c, atol=1e-12)

    @pytest.mark.parametrize("factory", [mean_estimator, median_estimator])
    def test_permutation_invariance(self, factory):
        est = factory(2)
        gen = np.random.default_rng(6)
        x = gen.normal(size=(13, 2))
        perm = gen.permutation(13)
        assert np.allclose(est(Dataset(x[perm])), est(Dataset(x)), atol=1e-12)

    @pytest.mark.parametrize("factory", [mean_estimator, median_estimator])
    def test_stack_path_agrees_with_scalar_path(self, factory):
        est = factory(2)
        gen = np.random.default_rng(7)
        stack = gen.normal(size=(6, 9, 2))
        want = np.stack([est(Dataset(stack[t])) for t in range(6)])
        assert np.array_equal(est.on_stack(stack), want)


class TestClipEstimator:
    def test_examples(self):
        const = Estimator("const", 1, lambda x: np.array([1.7]))
        clipped = clip_estimator(const, ClipInterval(0.0, 1.0))
        assert clipped(Dataset(np.zeros(3)))[0] == 1.0
        const2 = Estimator("const", 1, lambda x: np.array([0.4]))
        assert clip_estimator(const2, ClipInterval(0.0, 1.0))(Dataset(np.zeros(3)))[0] == 0.4

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ClipInterval(1.0, 1.0)

    def test_rejects_vector_estimator(self):
        with pytest.raises(ValueError):
            clip_estimator(mean_estimator(2), ClipInterval(0.0, 1.0))

    @settings(max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=2 ** 30),
           mu=st.floats(min_value=0.0, max_value=1.0))
    def test_projection_contracts_toward_interior_points(self, seed, mu):
        # clipping never moves the output farther from a target inside the interval
        est = mean_estimator(1)
        clipped = clip_estimator(est, ClipInterval(0.0, 1.0))
        x = Dataset(np.random.default_rng(seed).normal(size=7) * 3.0)
        assert abs(clipped(x)[0] - mu) <= abs(est(x)[0] - mu) + 1e-15

    def test_clip_never_increases_ball_sup_on_binary_domain(self):
        # exhaustive over {0,1}^6 with radius-2 balls, for an estimator whose
        # range escapes [0, 1]
        raw = Estimator(
            "affine", 1,
            fn=lambda x: np.array([2.0 * x.samples.mean() - 0.3]),
            stack_fn=lambda s: 2.0 * s.mean(axis=1) - 0.3,
            binary_domain=True,
        )
        clipped = clip_estimator(raw, ClipInterval(0.0, 1.0))
        n = 6
        budget = CorruptionBudget.from_eta(2 / n + 1e-9, n)
        assert budget.k == 2
        for code in range(1 << n):
            bits = np.array([(code >> j) & 1 for j in range(n)], dtype=float)
            x = Dataset(bits)
            s_raw = hamming_ball_sup(raw, x, budget).certificate
            s_clip = hamming_ball_sup(clipped, x, budget).certificate
            assert s_clip <= s_raw + 1e-15


class TestBernoulliPlugin:
    def test_examples(self):
        assert bernoulli_plugin(np.array([1.0, 1.0, 0.0, 0.0])) == 0.5
        assert bernoulli_plugin(np.zeros(8)) == 0.0
        x = np.zeros(12)
        x[:7] = 1.0
        assert bernoulli_plugin(x) == pytest.approx(7 / 12, abs=1e-15)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bernoulli_plugin(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            plugin_estimator().on_stack(np.full((2, 3, 1), 0.25))


class TestProjectScalar:
    def test_projected_mean_is_exact_scalar_mean(self):
        # orthogonality kills the noise term entirely
        u = np.array([0.6, 0.8])
        lam = np.array([-0.8, 0.6]) * 1.5
        g = project_scalar(mean_estimator(2), u, lam, mc_inner=4, rng=RngStream(5, 1))
        t = Dataset(np.array([0.2, -1.0, 3.4]))
        assert g(t)[0] == pytest.approx(float(t.samples.mean()), abs=1e-12)

    def test_zero_monte_carlo_variance_for_linear_estimator(self):
        u = np.array([1.0, 0.0, 0.0])
        t = Dataset(np.array([1.0, 2.0, 3.0, 4.0]))
        vals = [
            project_scalar(mean_estimator(3), u, np.zeros(3), mc_inner=8,
                           rng=RngStream(seed, 0))(t)[0]
            for seed in (1, 2, 3)
        ]
        assert max(vals) - min(vals) < 1e-12

    def test_degenerate_lift_recovers_scalar_median(self):
        g = project_scalar(median_estimator(1), np.array([1.0]), np.array([0.0]),
                           mc_inner=1, rng=RngStream(0, 0))
        t = Dataset(np.array([5.0, -1.0, 2.0]))
        assert g(t)[0] == 2.0

    def test_sample_mean_variance_is_one_over_n(self):
        # MC oracle for E[(g(t) - mu')^2] = 1/n under t ~ N(mu', 1)^n
        n, mu_prime, trials = 25, 0.7, 4000
        u = sample_unit_direction(6, RngStream(3, 0))
        g = project_scalar(mean_estimator(6), u, np.zeros(6), rng=RngStream(3, 1))
        gen = RngStream(3, 2).generator()
        vals = np.empty(trials)
        for t in range(trials):
            data = Dataset(mu_prime + standard_normal(gen, (n, 1)))
            vals[t] = (g(data)[0] - mu_prime) ** 2
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 1 / n) < 4 * se

    @pytest.mark.parametrize("inner, d, u, lam, mc_inner", [
        ("mean", 5, sample_unit_direction(5, RngStream(4, 0)), np.zeros(5), 64),
        ("median", 3, np.array([0.6, 0.0, 0.8]), np.array([0.8, 0.7, -0.6]), 16),
    ])
    def test_cached_lift_matches_regenerated_lift_bytes(self, inner, d, u, lam, mc_inner):
        f = mean_estimator(d) if inner == "mean" else median_estimator(d)
        rng = RngStream(4, 1)
        cached = project_scalar(f, u, lam, mc_inner=mc_inner, rng=rng)
        gen = RngStream(4, 2).generator()
        for n in (7, 31, 7, 200, 200):
            t = Dataset(standard_normal(gen, (n, 1)))
            # Reference: the lift regenerated from the frozen stream per call.
            z = standard_normal(rng.generator(), (mc_inner, n, d))
            v = lam + z - np.einsum("rij,j->ri", z, u)[:, :, None] * u
            lifted = t.samples[:, 0][None, :, None] * u + v
            want = np.array([float((f.on_stack(lifted) @ u).mean())])
            fresh = project_scalar(f, u, lam, mc_inner=mc_inner, rng=rng)
            assert cached(t).tobytes() == want.tobytes() == fresh(t).tobytes()

    def test_lift_noise_is_built_once_per_n_and_read_only(self, monkeypatch):
        built = []

        def recording_normal(gen, size):
            out = standard_normal(gen, size)
            built.append(out)
            return out

        monkeypatch.setattr(est_mod, "standard_normal", recording_normal)
        g = project_scalar(mean_estimator(3), np.array([0.0, 0.6, 0.8]), np.zeros(3),
                           mc_inner=8, rng=RngStream(6, 1))
        short, long = Dataset(np.arange(5.0)), Dataset(np.arange(9.0))
        for t in (short, short, long, long, short):
            g(t)
        # The noise block is built in place from the drawn array.
        assert [b.shape for b in built] == [(8, 5, 3), (8, 9, 3), (8, 5, 3)]
        assert not any(b.flags.writeable for b in built)
        with pytest.raises(ValueError):
            built[-1][0, 0, 0] = 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            project_scalar(mean_estimator(2), np.array([1.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            project_scalar(mean_estimator(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]))


class TestRegistry:
    def test_basic_names(self):
        assert build_estimator("mean", d=4).output_dim == 4
        assert build_estimator("median", d=2).name == "median"
        assert build_estimator("clipped-mean").name == "clipped-mean"
        assert build_estimator("clipped-median").name == "clipped-median"
        assert build_estimator("bernoulli-plugin").binary_domain

    def test_clipped_names_are_scalar_only(self):
        with pytest.raises(ValueError):
            build_estimator("clipped-mean", d=3)

    def test_projected_name(self):
        est = build_estimator("projected:16", d=5, seed=2)
        assert est.output_dim == 1
        gen = RngStream(8, 1).generator()
        t = Dataset(standard_normal(gen, (9, 1)))
        # projection of the mean reduces to the scalar mean regardless of u
        assert est(t)[0] == pytest.approx(float(t.samples.mean()), abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_estimator("huber")

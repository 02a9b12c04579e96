import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import senslab.estimators as est_mod
from senslab import harness
from senslab import (
    ClipInterval,
    CorruptionBudget,
    Dataset,
    Estimator,
    GaussianModel,
    RngStream,
    build_estimator,
    clip_estimator,
    hamming_ball_sup,
    mean_estimator,
    median_estimator,
    plugin_estimator,
    project_scalar,
    sample_unit_direction,
    standard_normal,
)


def _closure(fn) -> dict:
    return {name: cell.cell_contents
            for name, cell in zip(fn.__code__.co_freevars, fn.__closure__)}


def _lift_peaks(g: Estimator, stack: np.ndarray) -> list[float]:
    # tracemalloc peak (MiB) of a first and a second on_stack call.
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            g.on_stack(stack)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
    return peaks


class TestEmpiricalMean:
    def test_examples(self):
        assert mean_estimator(1)(Dataset(np.array([0.0, 2.0]))) == pytest.approx(1.0, abs=0)
        v = np.array([1.5, -2.0, 3.0])
        assert np.array_equal(mean_estimator(3)(Dataset(np.tile(v, (7, 1)))), v)
        x = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        assert np.array_equal(mean_estimator(2)(x), np.array([1.0, 1.0]))

    def test_summation_accuracy_at_ten_million(self):
        # numpy's pairwise summation keeps the relative error below 1e-12
        gen = np.random.default_rng(3)
        vals = gen.normal(size=10_000_000) + 1e6
        got = float(mean_estimator(1)(Dataset(vals))[0])
        # long-double accumulation as the high-precision oracle
        exact = float(np.sum(vals.astype(np.longdouble)) / vals.size)
        assert abs(got - exact) / abs(exact) < 1e-12


class TestCoordinatewiseMedian:
    def test_examples(self):
        median = median_estimator(1)
        assert median(Dataset(np.array([3.0, 1.0, 2.0])))[0] == 2.0
        assert median(Dataset(np.array([0.0, 1.0, 2.0, 3.0, 10.0])))[0] == 2.0
        v = np.array([4.0, -1.0])
        assert np.array_equal(median_estimator(2)(Dataset(np.tile(v, (9, 1)))), v)

    def test_even_n_is_lower_median(self):
        assert median_estimator(1)(Dataset(np.array([4.0, 1.0, 3.0, 2.0])))[0] == 2.0

    def test_matches_sort_oracle(self):
        gen = np.random.default_rng(11)
        for n in (1, 2, 5, 8, 101):
            arr = gen.normal(size=(n, 3))
            want = np.sort(arr, axis=0)[(n - 1) // 2]
            assert np.array_equal(median_estimator(3)(Dataset(arr)), want)


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


BUILT_IN = ("mean", "median", "clipped-mean", "clipped-median", "bernoulli-plugin",
            "projected:1", "projected:16", "projected:256")


@pytest.mark.parametrize("name", BUILT_IN)
@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), d=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_stack_rows_equal_single_dataset_rows(name, n, d, seed):
    # Row i of a 5-stack is the estimate of dataset i alone, byte for byte.
    vector = name in ("mean", "median") or name.startswith("projected:")
    est = build_estimator(name, d=d if vector else 1, seed=seed)
    gen = np.random.default_rng(seed)
    if name == "bernoulli-plugin":
        stack = (gen.random((5, n, 1)) < 0.5).astype(np.float64)
    else:
        stack = gen.normal(size=(5, n, d if name in ("mean", "median") else 1))
    rows = est.on_stack(stack)
    for i in range(5):
        assert rows[i].tobytes() == est.on_stack(stack[i:i + 1])[0].tobytes()


LINEAR_IN_DATA = {
    **{f"mean-d{d}": (lambda d=d: mean_estimator(d), d) for d in (1, 2, 3, 4)},
    "scaled-mean": (lambda: harness._scaled_mean(2.0), 1),
}


@pytest.mark.parametrize("name", sorted(LINEAR_IN_DATA))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=30), draws=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_linear_in_data_is_affine_in_the_stacked_data(name, n, draws, seed):
    # The contract of linear_in_data (see Estimator): f(sum_r a_r X_r) =
    # sum_r a_r f(X_r) whenever sum_r a_r = 1. The projection lift evaluates
    # f once on the draws' mean because of it. Roundoff bound: the combination
    # and the mean over n each add at most (draws + n) eps of sum_r |a_r| max|X|,
    # times the estimator's gain |f(1, ..., 1)|.
    make, d = LINEAR_IN_DATA[name]
    f = make()
    assert f.linear_in_data and not f.binary_domain
    gen = np.random.default_rng(seed)
    xs = gen.normal(size=(draws, 3, n, d)) * 10.0 ** gen.integers(-3, 4)
    a = gen.uniform(-2.0, 2.0, size=draws)
    a[-1] = 1.0 - a[:-1].sum()
    lhs = f.on_stack(np.tensordot(a, xs, axes=1))
    rhs = sum(a_r * f.on_stack(x_r) for a_r, x_r in zip(a, xs))
    scale = np.abs(a).sum() * np.abs(xs).max() * abs(float(f.on_stack(np.ones((1, 1, d)))[0, 0]))
    assert np.all(np.abs(lhs - rhs) <= 4 * (draws + n) * np.finfo(float).eps * scale)


class TestStrictShape:
    def test_transposed_output_raises(self):
        # (2, T) from an output_dim=2 stack_fn would reshape into scrambled rows.
        est = Estimator("transposed", 2, lambda s: np.stack([s[:, 0, 0], s[:, 1, 0]]))
        with pytest.raises(ValueError, match=r"returned shape \(2, 3\), expected \(3, 2\)"):
            est.on_stack(np.arange(6.0).reshape(3, 2, 1))

    def test_per_dataset_function_in_stack_fn_slot_raises(self):
        est = Estimator("per-dataset", 1, lambda x: np.array([1.7]))
        with pytest.raises(ValueError, match=r"returned shape \(1,\)"):
            est(Dataset(np.zeros(4)))
        with pytest.raises(ValueError, match=r"returned shape \(1,\)"):
            est.on_stack(np.zeros((3, 4, 1)))


class TestClipEstimator:
    def test_examples(self):
        const = Estimator("const", 1, lambda s: np.full((s.shape[0], 1), 1.7))
        clipped = clip_estimator(const, ClipInterval(0.0, 1.0))
        assert clipped(Dataset(np.zeros(3)))[0] == 1.0
        const2 = Estimator("const", 1, lambda s: np.full((s.shape[0], 1), 0.4))
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
        plugin = plugin_estimator()
        assert plugin(Dataset(np.array([1.0, 1.0, 0.0, 0.0])))[0] == 0.5
        assert plugin(Dataset(np.zeros(8)))[0] == 0.0
        x = np.zeros(12)
        x[:7] = 1.0
        assert plugin(Dataset(x))[0] == pytest.approx(7 / 12, abs=1e-15)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            plugin_estimator()(Dataset(np.array([0.0, 0.5])))
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
            if f.linear_in_data:
                # The affine path: one lift on the draws' mean, reduced per row.
                want = (f.on_stack(t.samples[None] * u + v.mean(axis=0)) * u).sum(axis=1)
            else:
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
        u = np.array([0.0, 0.6, 0.8])
        short, long = Dataset(np.arange(5.0)), Dataset(np.arange(9.0))
        for f, layout in ((mean_estimator(3), lambda v: v.mean(axis=0)),
                          (median_estimator(3), lambda v: v)):
            built.clear()
            g = project_scalar(f, u, np.zeros(3), mc_inner=8, rng=RngStream(6, 1))
            for t in (short, short, long, long, short):
                g(t)
            assert [b.shape for b in built] == [(8, 5, 3), (8, 9, 3), (8, 5, 3)]
            # The cached block comes from the last draw, transformed in place:
            # the mean's is the draws' mean V̄ (n, d), the median's the
            # (mc_inner, n, d) block itself. Both are read-only.
            noise = _closure(_closure(g.stack_fn)["_noise"])["noise_slot"][0]
            want = np.ascontiguousarray(layout(built[-1]))
            assert noise.shape == want.shape and noise.flags.c_contiguous
            assert noise.tobytes() == want.tobytes()
            assert not noise.flags.writeable
            with pytest.raises(ValueError):
                noise[0, 0] = 1.0
            g(short)  # a call at the cached n draws nothing
            assert len(built) == 3

    @pytest.mark.parametrize("inner, u, lam", [
        ("mean", sample_unit_direction(8, RngStream(9, 0)), np.zeros(8)),
        ("median", np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8]),
         np.array([0.8, 0.7, -0.1, 0.2, 0.0, 0.3, -0.5, -0.6])),
    ])
    def test_lift_matches_old_layout_bytes_over_a_stack(self, inner, u, lam):
        # A full 64-trial stack at the bench's projected:256 shape, against
        # the lift built and reduced one dataset at a time: in (mc_inner, n, d)
        # layout, or for the mean on the draws' mean.
        mc_inner, n, d = 256, 200, 8
        f = mean_estimator(d) if inner == "mean" else median_estimator(d)
        rng = RngStream(9, 1)
        g = project_scalar(f, u, lam, mc_inner=mc_inner, rng=rng)
        stack = standard_normal(RngStream(9, 2).generator(), (64, n, 1))
        got = g.on_stack(stack)
        z = standard_normal(rng.generator(), (mc_inner, n, d))
        v = lam + z - np.einsum("rij,j->ri", z, u)[:, :, None] * u
        for i, t in enumerate(stack[:, :, 0]):
            if f.linear_in_data:
                want = (f.on_stack(t[None, :, None] * u + v.mean(axis=0)) * u).sum(axis=1)
            else:
                want = np.array([(f.on_stack(t[None, :, None] * u + v) @ u).mean()])
            assert got[i].tobytes() == want.tobytes(), i

    @pytest.mark.parametrize("d, mc_inner, n, trials", [
        (8, 256, 200, 16),  # the bench's projected:256 shape
        (1, 1, 200, 16), (1, 16, 200, 16), (1, 256, 200, 16),
        (3, 1, 200, 16), (3, 16, 200, 16), (3, 256, 200, 16),
        (64, 1, 50, 6), (64, 16, 50, 6), (64, 256, 50, 6),
    ])
    def test_affine_lift_is_the_per_trial_formula(self, d, mc_inner, n, trials):
        # Oracle: the lift as it was built before the affine path, one
        # (mc_inner, n, d) lift per dataset, f on every draw, then <., u> and
        # the mean over draws. The affine path is the same function in exact
        # arithmetic, so only roundoff separates them (measured <= 0.54 ulp
        # of max|t|).
        seed = 100 * d + mc_inner
        u = sample_unit_direction(d, RngStream(seed, 0))
        f, rng = mean_estimator(d), RngStream(seed, 1)
        g = project_scalar(f, u, np.zeros(d), mc_inner=mc_inner, rng=rng)
        stack = standard_normal(RngStream(seed, 2).generator(), (trials, n, 1))
        got = g.on_stack(stack)[:, 0]
        z = standard_normal(rng.generator(), (mc_inner, n, d))
        v = z - np.einsum("rij,j->ri", z, u)[:, :, None] * u
        for i, t in enumerate(stack[:, :, 0]):
            want = (f.on_stack(t[None, :, None] * u + v) @ u).mean()
            assert abs(got[i] - want) <= 4 * np.finfo(float).eps * np.abs(t).max(), i

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 64, 128, 129])
    def test_affine_lift_rows_do_not_depend_on_the_stack(self, d):
        # Each row of a 37-trial stack, and each row of a sub-stack, is the
        # one-dataset value byte for byte, past the pairwise-sum block of 128
        # in the per-row reduction over d.
        g = project_scalar(mean_estimator(d), sample_unit_direction(d, RngStream(d, 0)),
                           np.zeros(d), mc_inner=16, rng=RngStream(d, 1))
        stack = standard_normal(RngStream(d, 2).generator(), (37, 60, 1))
        rows = g.on_stack(stack)
        for i in range(37):
            assert rows[i].tobytes() == g.on_stack(stack[i:i + 1])[0].tobytes(), i
        for lo, hi in ((0, 1), (3, 20), (20, 37)):
            assert rows[lo:hi].tobytes() == g.on_stack(stack[lo:hi]).tobytes()

    def test_lift_peak_memory(self):
        # The per-trial lift, kept for an f not declared linear in the data
        # (here the mean, undeclared), in the (mc_inner, n, d) layout the
        # block is drawn in: measured 6.77 MiB on the first call (the noise
        # build) and 3.20 MiB warm (one lift is 3.13 MiB).
        f = Estimator("undeclared-mean", 8, lambda stack: stack.mean(axis=1))
        g = project_scalar(f, sample_unit_direction(8, RngStream(41, 0)), np.zeros(8),
                           mc_inner=256, rng=RngStream(41, 1))
        stack = standard_normal(RngStream(9, 3).generator(), (10, 200, 1))
        peaks = _lift_peaks(g, stack)
        assert peaks[0] < 9.5 and peaks[1] < 3.3, peaks

    # sha256 of the newline-joined to_json(include_trials=True) of resample
    # reports (eta 0.1, 100 trials) of one median lift per row, u drawn from
    # RngStream(seed, 0), lam = 0, noise from RngStream(seed, 1), run at each
    # n in turn. Taken before the lift was built in the (mc_inner, n, d)
    # layout. The last row's n = mc_inner then follows another n, so a slot
    # keyed on the wrong axis would hand out the n = 201 block.
    MEDIAN_LIFT_PINS = {
        "d4-r64-n201": (4, 64, (201,), 81,
                        "47376d4a48e6ad1a71afcc544a5813c9f814b8b57ec8e4cef3a67cf71120493d"),
        "d16-r64-n201": (16, 64, (201,), 82,
                         "a81f6851173622817607ba5f43512df3b4151ed9490d10f040f91dfbc445545d"),
        "d3-r64-n-equals-r": (3, 64, (201, 64, 201), 83,
                              "d7aa8aa79c3a310ecc1708a97d11f2cd143e7d49cdfee0bfe6df446ca0439690"),
    }

    @pytest.mark.parametrize("name", sorted(MEDIAN_LIFT_PINS))
    def test_median_lift_report_pins(self, name):
        d, mc_inner, ns, seed, digest = self.MEDIAN_LIFT_PINS[name]
        g = project_scalar(median_estimator(d), sample_unit_direction(d, RngStream(seed, 0)),
                           np.zeros(d), mc_inner=mc_inner, rng=RngStream(seed, 1))
        reports = [harness.estimate_es(g, "resample", GaussianModel(np.zeros(1)), eta=0.1, n=n,
                                       trials=100, seed=seed).to_json(include_trials=True)
                   for n in ns]
        assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == digest

    def test_affine_lift_peak_memory(self):
        # The mean's lift holds one (T, n, d) stack, 0.12 MiB at T = 10, next
        # to the cached (n, d) mean of the draws: measured 9.38 MiB on the
        # first call (the same noise build) and 0.25 MiB warm.
        g = build_estimator("projected:256", d=8, seed=41)
        stack = standard_normal(RngStream(9, 3).generator(), (10, 200, 1))
        peaks = _lift_peaks(g, stack)
        assert peaks[0] < 9.5 and peaks[1] < 0.5, peaks

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

"""Layer estimators against the enumerations of the same functions and exact rationals.

A layer estimator f(x) = g(|x|, n) takes the layer paths of ``hamming_ball_sup``,
the ``hamming-ball`` adversary and ``bernoulli_expected_sensitivity``. Wrapped
as a plain ``Estimator`` (its ``stack_fn`` a lambda), the same function takes
the enumerations instead. The ball must agree byte for byte: certificate,
corrupted bytes and achieved Hamming distance. The expectation sums n + 1
terms where the cube enumeration sums 2^n, so it is compared within 1e-12,
to the enumeration and to an exact ``Fraction`` evaluation.
"""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senslab import (
    BernoulliModel,
    CorruptionBudget,
    Dataset,
    Estimator,
    bernoulli_expected_sensitivity,
    clip_estimator,
    ClipInterval,
    estimate_es,
    hamming_ball_sup,
    layer_estimator,
    plugin_estimator,
)
from senslab import estimators
from senslab.adversaries import _BALL_GUARD, _ball_size, _layer_ball_stack, _layer_path
from senslab.bernoulli import _log_binomials
from senslab.estimators import _LayerStack

PROBS = (0.0, 0.1, 0.3, 0.5, 0.9, 1.0)


def budget_for(n: int, k: int) -> CorruptionBudget:
    budget = CorruptionBudget.from_eta((k + 0.5) / n, n)
    assert budget.k == k
    return budget


def enumerated(f: Estimator) -> Estimator:
    """The same function as a non-layer estimator, which forces the enumerations."""
    return Estimator(f.name, 1, stack_fn=lambda s: f.on_stack(s), binary_domain=True)


def table_estimator(values) -> Estimator:
    vals = np.asarray(values, dtype=np.float64)
    return layer_estimator("table", lambda t, n: vals[t])


LAYER_FUNCTIONS = {
    "plugin": lambda: plugin_estimator(),
    # non-monotone, integer-valued, with ties between layers
    "mod5": lambda: layer_estimator("mod5", lambda t, n: ((3 * t) % 5).astype(float)),
    "vee": lambda: layer_estimator("vee", lambda t, n: np.abs(t - n / 3)),
    "square": lambda: layer_estimator("square", lambda t, n: (t / n - 0.3) ** 2),
}


def fraction_expectation(f: Estimator, n: int, p: float, k: int) -> Fraction:
    """Exact sum over the layers of C(n, t) p^t (1 - p)^(n - t) times the
    largest float |g(t') - g(t)| over the window, in rational arithmetic."""
    g = [float(v) for v in f.stack_fn.table(n)]
    prob = Fraction(p)
    total = Fraction(0)
    for t in range(n + 1):
        sup = max(abs(g[u] - g[t]) for u in range(max(0, t - k), min(n, t + k) + 1))
        total += math.comb(n, t) * prob ** t * (1 - prob) ** (n - t) * Fraction(sup)
    return total


# -- (a) the expectation against the cube enumeration of the same function --

@pytest.mark.parametrize("name", sorted(LAYER_FUNCTIONS))
def test_expectation_matches_cube_enumeration(name):
    f = LAYER_FUNCTIONS[name]()
    cube = enumerated(f)
    for n in range(1, 13):
        for k in range(n):
            for p in PROBS:
                got = bernoulli_expected_sensitivity(f, n, p, budget_for(n, k))
                want = bernoulli_expected_sensitivity(cube, n, p, budget_for(n, k))
                assert abs(got - want) <= 1e-12, (n, k, p)


# -- (b) the expectation against exact rationals --

@pytest.mark.parametrize("name", sorted(LAYER_FUNCTIONS))
def test_expectation_matches_fractions(name):
    f = LAYER_FUNCTIONS[name]()
    for n in range(1, 41):
        for k in sorted({0, min(1, n - 1), n // 4, n // 2, n - 1}):
            for p in PROBS:
                got = bernoulli_expected_sensitivity(f, n, p, budget_for(n, k))
                assert abs(Fraction(got) - fraction_expectation(f, n, p, k)) <= 1e-12, (n, k, p)


def test_log_binomials_match_the_exact_integers():
    for n in (1, 2, 3, 40, 3000):
        got = _log_binomials(n)
        comb = 1
        for t in range(n + 1):
            want = math.log(comb)
            assert abs(got[t] - want) <= 2 * math.ulp(want), (n, t)
            comb = comb * (n - t) // (t + 1)


# -- (c) the ball: layer path and enumeration return the same outcome --

@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_layer_ball_matches_enumeration(data, n):
    values = data.draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))
    f = table_estimator(values)
    bits = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]),
                                       min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n - 1))
    x = Dataset(bits)
    got = hamming_ball_sup(f, x, budget_for(n, k))
    want = hamming_ball_sup(enumerated(f), x, budget_for(n, k))
    assert repr(got.certificate) == repr(want.certificate)
    assert got.corrupted.samples.tobytes() == want.corrupted.samples.tobytes()
    assert got.achieved_hamming == want.achieved_hamming
    # the layer body also where hamming_ball_sup enumerates (k <= 1)
    body = _layer_ball_stack(x.samples[None], f.stack_fn, k)[0]
    assert body.tobytes() == want.corrupted.samples.tobytes()


@pytest.mark.parametrize("name", sorted(LAYER_FUNCTIONS))
def test_layer_ball_matches_enumeration_on_every_small_vector(name):
    f = LAYER_FUNCTIONS[name]()
    cube = enumerated(f)
    for n in range(1, 8):
        for code in range(1 << n):
            bits = np.array([float((code >> j) & 1) for j in range(n)])
            for k in range(n):
                got = hamming_ball_sup(f, Dataset(bits), budget_for(n, k))
                want = hamming_ball_sup(cube, Dataset(bits), budget_for(n, k))
                assert repr(got.certificate) == repr(want.certificate)
                assert got.corrupted.samples.tobytes() == want.corrupted.samples.tobytes()
                body = _layer_ball_stack(bits[None, :, None], f.stack_fn, k)[0]
                assert body.tobytes() == want.corrupted.samples.tobytes()


def chunk_with_layers(n: int, weights, seed: int) -> np.ndarray:
    """A (T, n, 1) binary stack whose trial i has weights[i] ones at random
    rows, and -0.0 for about half of its zeros."""
    rng = np.random.default_rng(seed)
    stack = np.where(rng.random((len(weights), n)) < 0.5, 0.0, -0.0)
    for row, w in zip(stack, weights):
        row[rng.permutation(n)[:w]] = 1.0
    return stack[:, :, None]


def assert_chunk_matches_enumeration(f: Estimator, stack: np.ndarray) -> None:
    n = stack.shape[1]
    cube = enumerated(f)
    for k in range(n):
        body = _layer_ball_stack(stack, f.stack_fn, k)
        assert body.shape == stack.shape
        for x, got in zip(stack, body):
            want = hamming_ball_sup(cube, Dataset(x), budget_for(n, k)).corrupted.samples
            assert got.tobytes() == want.tobytes(), k


# Every layer 0 .. n three times, shuffled; a few layers with gaps between
# them, out of order; and chunks whose trials all share one layer. The
# distinct layers map back to their trials in each.
CHUNK_WEIGHTS = {
    "every-layer": np.random.default_rng(5).permutation(np.repeat(np.arange(10), 3)),
    "some-layers": [7, 2, 2, 5, 0, 7, 9, 5, 2],
    "one-layer-0": [0] * 12,
    "one-layer-4": [4] * 12,
    "one-layer-9": [9] * 12,
}


@pytest.mark.parametrize("name", sorted(LAYER_FUNCTIONS))
@pytest.mark.parametrize("chunk", sorted(CHUNK_WEIGHTS))
def test_a_chunk_of_trials_matches_enumeration(name, chunk):
    stack = chunk_with_layers(9, CHUNK_WEIGHTS[chunk], 6)
    assert_chunk_matches_enumeration(LAYER_FUNCTIONS[name](), stack)


# -- (d) the engine's layer step against the enumeration's reports --

def _grid():
    for n in range(7, 31):
        for eta in (0.1, 0.25, 0.45):
            # the enumeration's work: the wrapper runs it for every trial
            if _ball_size(n, math.floor(eta * n)) <= 5000:
                yield n, eta


@pytest.mark.parametrize("n, eta", list(_grid()))
def test_engine_reports_match_enumeration(n, eta):
    plugin = plugin_estimator()
    for p in (0.1, 0.5, 0.9):
        model = BernoulliModel(p)
        got = estimate_es(plugin, "hamming-ball", model, eta=eta, n=n, trials=100, seed=n)
        want = estimate_es(enumerated(plugin), "hamming-ball", model, eta=eta, n=n,
                           trials=100, seed=n)
        assert got.to_json(include_trials=True) == want.to_json(include_trials=True)


# -- (e) at scale --

def test_plugin_ball_at_n_2000():
    report = estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.5),
                         eta=0.1, n=2000, trials=1000, seed=5)
    assert not report.lower_bound_only
    assert np.max(np.abs(report.per_trial - report.k / 2000)) <= 1e-15


def test_plugin_expectation_at_n_5000():
    budget = CorruptionBudget.from_eta(0.1, 5000)
    got = bernoulli_expected_sensitivity(plugin_estimator(), 5000, 0.5, budget)
    assert abs(got - budget.k / 5000) <= 1e-12


# -- guards --

def test_layer_estimators_pass_the_enumeration_guards():
    plugin = plugin_estimator()
    out = hamming_ball_sup(plugin, Dataset(np.zeros(33)), CorruptionBudget.from_eta(0.04, 33))
    assert out.certificate == 1 / 33 and out.achieved_hamming == 1
    assert _ball_size(23, 11) > _BALL_GUARD
    out = hamming_ball_sup(plugin, Dataset(np.zeros(23)), CorruptionBudget.from_eta(0.5, 23))
    assert out.certificate == 11 / 23 and out.achieved_hamming == 11
    got = bernoulli_expected_sensitivity(plugin, 21, 0.5, CorruptionBudget.from_eta(0.1, 21))
    assert abs(got - 2 / 21) <= 1e-12


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.2, 0.7)])
def test_a_clipped_layer_estimator_keeps_the_layer_paths(lo, hi):
    interval = ClipInterval(lo, hi)
    clipped = clip_estimator(plugin_estimator(), interval)
    assert clipped.name == "clipped-bernoulli-plugin"
    assert isinstance(clipped.stack_fn, _LayerStack) and not clipped.linear_in_data
    # The non-layer clip of the non-layer plug-in takes the enumerations.
    cube = clip_estimator(enumerated(plugin_estimator()), interval)
    assert not isinstance(cube.stack_fn, _LayerStack)
    for n in range(1, 8):
        for code in range(1 << n):
            bits = np.array([float((code >> j) & 1) for j in range(n)])
            for k in range(n):
                got = hamming_ball_sup(clipped, Dataset(bits), budget_for(n, k))
                want = hamming_ball_sup(cube, Dataset(bits), budget_for(n, k))
                assert repr(got.certificate) == repr(want.certificate)
                assert got.corrupted.samples.tobytes() == want.corrupted.samples.tobytes()
                body = _layer_ball_stack(bits[None, :, None], clipped.stack_fn, k)[0]
                assert body.tobytes() == want.corrupted.samples.tobytes()
        for k in range(n):
            for p in PROBS:
                got = bernoulli_expected_sensitivity(clipped, n, p, budget_for(n, k))
                want = bernoulli_expected_sensitivity(cube, n, p, budget_for(n, k))
                assert abs(got - want) <= 1e-12, (n, k, p)


def test_a_clipped_plugin_runs_past_the_enumeration_guards():
    clipped = clip_estimator(plugin_estimator(), ClipInterval(0.0, 1.0))
    out = hamming_ball_sup(clipped, Dataset(np.zeros(33)), CorruptionBudget.from_eta(0.04, 33))
    assert out.certificate == 1 / 33 and out.achieved_hamming == 1
    budget = CorruptionBudget.from_eta(0.1, 5000)
    got = bernoulli_expected_sensitivity(clipped, 5000, 0.5, budget)
    assert abs(got - budget.k / 5000) <= 1e-12
    report = estimate_es(clipped, "hamming-ball", BernoulliModel(0.5), eta=0.1, n=5000,
                         trials=100, seed=3)
    assert np.max(np.abs(report.per_trial - budget.k / 5000)) <= 1e-15


# eta = 1e-9 gives k = 0: the guard is the table's, whatever the radius.
@pytest.mark.parametrize("eta", [1e-9, 0.1])
def test_layer_memory_guard(eta):
    n = estimators._LAYER_BYTES // (8 * estimators._LAYER_TABLES)
    with pytest.raises(ValueError, match="layer guard"):
        bernoulli_expected_sensitivity(plugin_estimator(), n, 0.5,
                                       CorruptionBudget.from_eta(eta, n))


@pytest.mark.parametrize("eta", [1e-9, 0.1])
def test_layer_memory_guard_on_the_ball(monkeypatch, eta):
    monkeypatch.setattr(estimators, "_LAYER_BYTES", 8 * estimators._LAYER_TABLES * 40)
    plugin = plugin_estimator()
    hamming_ball_sup(plugin, Dataset(np.zeros(39)), CorruptionBudget.from_eta(eta, 39))
    with pytest.raises(ValueError, match="layer guard"):
        hamming_ball_sup(plugin, Dataset(np.zeros(40)), CorruptionBudget.from_eta(eta, 40))
    with pytest.raises(ValueError, match="layer guard"):
        estimate_es(plugin, "hamming-ball", BernoulliModel(0.5), eta=eta, n=40, trials=100)


# -- the plug-in as a layer estimator --

def test_plugin_equals_the_mean_on_nonnegative_zeros():
    plugin = plugin_estimator()
    for n in range(1, 13):
        codes = np.arange(1 << n)[:, None]
        stack = ((codes >> np.arange(n)) & 1).astype(np.float64)[:, :, None]
        assert plugin.on_stack(stack).tobytes() == stack.mean(axis=1).tobytes()


def test_plugin_of_all_negative_zeros_is_positive_zero():
    plugin = plugin_estimator()
    for n in (1, 2, 5, 17):
        assert repr(float(plugin.on_stack(np.full((3, n, 1), -0.0))[0, 0])) == "0.0"
        assert repr(float(plugin(Dataset(np.full(n, -0.0)))[0])) == "0.0"


def test_layer_function_must_be_finite():
    f = layer_estimator("inf-at-zero", lambda t, n: np.where(t == 0, np.inf, t / n))
    with pytest.raises(ValueError, match="finite"):
        hamming_ball_sup(f, Dataset(np.ones(4)), CorruptionBudget.from_eta(0.5, 4))


def test_radius_one_balls_within_the_masks_are_enumerated():
    plugin = plugin_estimator()
    assert [_layer_path(plugin, n, k) for n, k in ((8, 0), (8, 1), (32, 1))] == [False] * 3
    assert [_layer_path(plugin, n, k) for n, k in ((8, 2), (16, 3), (33, 0), (33, 1))] == [True] * 4
    assert not _layer_path(enumerated(plugin), 16, 3)
    rows = []
    counting = layer_estimator("counting", lambda t, n: rows.append(t.size) or t / n)
    hamming_ball_sup(counting, Dataset(np.zeros(8)), budget_for(8, 1))
    assert sum(rows) == 1 + 8  # f(x), then the 8 single flips in one call
    rows.clear()
    hamming_ball_sup(counting, Dataset(np.zeros(8)), budget_for(8, 2))
    assert sum(rows) == 9 + 2  # the layer table, then f on the corrupted set and on x


# -- import cost --

def _fresh_python(code: str) -> str:
    # stdout of ``code`` run in a new interpreter that imports senslab from src/.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, env=env)
    return proc.stdout.strip()


def test_import_loads_no_scipy_stats_or_ndimage():
    code = ("import sys, senslab; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.ndimage'))))")
    assert _fresh_python(code) == "[]"


def test_import_loads_no_scipy_integrate_optimize_sparse_or_linalg():
    # scipy.integrate pulls in the other three; only verify's quadrature row needs it.
    code = ("import sys, senslab, senslab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(("
            "'scipy.integrate', 'scipy.optimize', 'scipy.sparse', 'scipy.linalg'))))")
    assert _fresh_python(code) == "[]"


def test_verify_loads_integrate_for_its_quadrature_row():
    code = ("import sys; from senslab import verify_suite; "
            "rows = {r.name: r.result.holds for r in verify_suite(trials_scale=1000)}; "
            "print(rows['beta-binomial/n10-quadrature'], 'scipy.integrate' in sys.modules)")
    assert _fresh_python(code) == "True True"

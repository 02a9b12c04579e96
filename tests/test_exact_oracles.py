"""The vectorised exact adversaries against golden reports and the loops they replaced.

The oracles below are the per-combination Hamming-ball loop, the per-mask
XOR loop over the cube and the stable-argsort median adversary, kept
verbatim as references. The vectorised code does the same floating-point
operations on the same values, so every comparison is exact (``==`` and
bytes), not approximate.
"""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senslab import (
    BernoulliModel,
    CorruptionBudget,
    Dataset,
    GaussianModel,
    bernoulli_expected_sensitivity,
    estimate_es,
    hamming_ball_sup,
    hamming_distance,
    median_worst_case,
    plugin_estimator,
)
from senslab.adversaries import _flip_masks
from senslab.bernoulli import _cube_values
from senslab.estimators import Estimator


def budget_for(n: int, k: int) -> CorruptionBudget:
    """The budget with exactly k corruptible points (k < n, since eta < 1)."""
    budget = CorruptionBudget.from_eta((k + 0.5) / n, n)
    assert budget.k == k
    return budget


def weighted_estimator() -> Estimator:
    """A binary estimator that is not permutation-symmetric: a position-weighted
    sum whose weights repeat, so the ball sup has ties between distinct masks."""
    def weights(n):
        return (np.arange(n) % 3 + 1.0) / n

    return Estimator(
        "weighted", 1,
        stack_fn=lambda stack: stack[:, :, 0] @ weights(stack.shape[1])[:, None],
        binary_domain=True,
    )


# -- golden reports, computed before the exact adversaries were vectorised --

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_median_exact_report():
    report = estimate_es("median", "median-exact", GaussianModel(np.zeros(1)),
                         n=10001, eta=0.05, trials=100, seed=7)
    assert sha256(report.to_json(include_trials=True)) == (
        "14df00ff4ba2221b24aeba9dd2eec2e402ce08c0b34c97244571c6dcf1e41a08")


def test_golden_hamming_ball_report():
    report = estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.5),
                         n=16, eta=0.2, trials=100, seed=7)
    assert sha256(report.to_json(include_trials=True)) == (
        "4bd390fb178e5868fe8d32638f426a58d6eae315ed3ad1f23a941e69a41c19d6")


@pytest.mark.parametrize("p, want", [(0.3, "0.18749999999999994"), (0.5, "0.18750000000000003")])
def test_golden_expected_sensitivity(p, want):
    budget = CorruptionBudget.from_eta(0.2, 16)
    assert repr(bernoulli_expected_sensitivity(plugin_estimator(), 16, p, budget)) == want


# -- Hamming ball: chunked flip table vs the per-combination loop --

def ball_sup_oracle(f: Estimator, x: Dataset, k: int):
    """(certificate, corrupted dataset) of the per-combination loop."""
    bits = x.samples[:, 0]
    base = float(f(x)[0])
    best_gap, best_bits = 0.0, bits
    rows: list[np.ndarray] = []

    def flush():
        nonlocal best_gap, best_bits
        if not rows:
            return
        gaps = np.abs(f.on_stack(np.stack(rows)[:, :, None])[:, 0] - base)
        j = int(np.argmax(gaps))
        if gaps[j] > best_gap:
            best_gap, best_bits = float(gaps[j]), rows[j]
        rows.clear()

    for j in range(1, k + 1):
        for combo in itertools.combinations(range(x.n), j):
            y = bits.copy()
            y[list(combo)] = 1.0 - y[list(combo)]
            rows.append(y)
            if len(rows) >= 8192:
                flush()
    flush()
    return best_gap, (Dataset(best_bits) if best_gap > 0.0 else x)


def assert_ball_matches_oracle(f: Estimator, bits: np.ndarray, k: int):
    x = Dataset(bits)
    out = hamming_ball_sup(f, x, budget_for(x.n, k))
    want_cert, want_data = ball_sup_oracle(f, x, k)
    assert repr(out.certificate) == repr(want_cert)
    assert out.corrupted.samples.tobytes() == want_data.samples.tobytes()
    assert out.achieved_hamming == hamming_distance(x, want_data)


@pytest.mark.parametrize("make", [plugin_estimator, weighted_estimator])
def test_ball_matches_loop_for_every_small_radius(make):
    f = make()
    gen = np.random.default_rng(40)
    for n in range(1, 11):
        patterns = [np.zeros(n), np.ones(n), (gen.random(n) < 0.5).astype(float)]
        # Signed zeros in the input are kept byte for byte outside the flips.
        patterns.append(np.where(gen.random(n) < 0.5, 1.0, -0.0))
        for k in range(n):
            for bits in patterns:
                assert_ball_matches_oracle(f, bits, k)


@pytest.mark.parametrize("make", [plugin_estimator, weighted_estimator])
def test_ball_spanning_several_chunks_matches_loop(make):
    bits = (np.random.default_rng(41).random(22) < 0.5).astype(float)
    assert sum(math.comb(22, j) for j in range(1, 6)) > 4 * 8192
    assert_ball_matches_oracle(make(), bits, 5)


def test_flip_table_is_a_cached_read_only_integer_array():
    masks = _flip_masks(16, 3)
    assert masks.dtype == np.uint32 and not masks.flags.writeable
    assert masks.size == 16 + 120 + 560
    assert _flip_masks(16, 3) is masks
    # A radius-k table begins with the radius-(k-1) one.
    assert np.array_equal(masks[:136], _flip_masks(16, 2))


# -- cube sup: ball dilation vs the per-mask XOR loop --

def cube_values_oracle(f: Estimator, n: int) -> np.ndarray:
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    bits = ((idx[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1).astype(np.float64)
    vals = np.empty(size)
    chunk = 1 << 14
    for lo in range(0, size, chunk):
        hi = min(lo + chunk, size)
        vals[lo:hi] = f.on_stack(bits[lo:hi, :, None])[:, 0]
    return vals


def xor_loop_sups(fv: np.ndarray, n: int) -> list[np.ndarray]:
    """Radius-k ball sup tables of the XOR-mask loop, for k = 0 .. n.

    Entry k is the table the loop held after every mask of weight <= k."""
    idx = np.arange(1 << n, dtype=np.uint32)
    sup = np.zeros(1 << n)
    out = [sup.copy()]
    for j in range(1, n + 1):
        for combo in itertools.combinations(range(n), j):
            mask = 0
            for pos in combo:
                mask |= 1 << pos
            np.maximum(sup, np.abs(fv[idx ^ np.uint32(mask)] - fv), out=sup)
        out.append(sup.copy())
    return out


def cube_probs(n: int, p: float) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.uint32)
    weight = np.zeros(1 << n, dtype=np.uint32)
    for j in range(n):
        weight += (idx >> j) & 1
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
        log_w = (np.where(weight > 0, weight * log_p, 0.0)
                 + np.where(n - weight > 0, (n - weight) * log_q, 0.0))
    return np.exp(log_w)


@pytest.mark.parametrize("make, max_n", [(plugin_estimator, 12), (weighted_estimator, 12)])
def test_dilation_matches_xor_loop(make, max_n):
    f = make()
    for n in range(1, max_n + 1):
        fv = cube_values_oracle(f, n)
        assert _cube_values(f, n).tobytes() == fv.tobytes()
        sups = xor_loop_sups(fv, n)
        for p in (0.0, 0.3, 0.5, 1.0):
            probs = cube_probs(n, p)
            for k in range(n):
                want = 0.0 if k == 0 else float(np.sum(probs * sups[k]))
                got = bernoulli_expected_sensitivity(f, n, p, budget_for(n, k))
                assert got == want and repr(got) == repr(want), (n, p, k)


def test_cube_values_build_the_vertices_per_chunk():
    # The whole (2^18, 18) float64 vertex block would take 36 MiB.
    f = plugin_estimator()
    tracemalloc.start()
    try:
        _cube_values(f, 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


# -- median: one selection vs a stable argsort --

def median_oracle(x: Dataset, k: int):
    """(certificate, corrupted dataset) of the stable-argsort adversary."""
    vals = x.samples[:, 0]
    m = (x.n + 1) // 2
    if k == 0:
        return 0.0, x
    order = np.argsort(vals, kind="stable")
    svals = vals[order]
    med = svals[m - 1]
    up = float(svals[m - 1 + k] - med)
    down = float(med - svals[m - 1 - k])
    if up >= down:
        idx, fill, cert = order[:k], float(svals[-1]) + 1.0, up
    else:
        idx, fill, cert = order[-k:], float(svals[0]) - 1.0, down
    return cert, x.replace_rows(idx, np.full((k, 1), fill))


@settings(max_examples=400, deadline=None)
@given(
    m=st.integers(1, 40),
    pool=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300, 7.0]),
                  min_size=1, max_size=4),
    data=st.data(),
)
def test_median_selection_matches_stable_argsort(m, pool, data):
    n = 2 * m - 1
    vals = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    x = Dataset(vals)
    for k in sorted({0, min(1, m - 1), m - 1}):
        out = median_worst_case(x, budget_for(n, k))
        want_cert, want_data = median_oracle(x, k)
        assert out.certificate == want_cert
        assert math.copysign(1.0, out.certificate) == 1.0
        assert out.corrupted.samples.tobytes() == want_data.samples.tobytes()
        assert out.achieved_hamming == k


@pytest.mark.parametrize("vals", [[0.0, 0.0, -0.0], [0.0, -0.0, 0.0]])
def test_median_zero_certificate_is_positive_zero(vals):
    cert = median_worst_case(Dataset(np.array(vals)), CorruptionBudget.from_eta(0.34, 3)).certificate
    assert repr(cert) == "0.0"


def test_median_selection_matches_argsort_on_gaussian_samples():
    gen = np.random.default_rng(42)
    for n in (3, 101, 10001):
        x = Dataset(np.round(gen.normal(size=n), 2))
        m = (n + 1) // 2
        for k in (1, m // 3, m - 1):
            out = median_worst_case(x, budget_for(n, k))
            want_cert, want_data = median_oracle(x, k)
            assert out.certificate == want_cert
            assert out.corrupted.samples.tobytes() == want_data.samples.tobytes()

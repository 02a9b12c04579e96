"""Fast paths of ``analysis`` held to their references.

``efron_stein_check`` takes the leave-one-out medians of an estimator that
computes ``_median_stack`` from three order statistics per dataset; every
other estimator is evaluated on the n replaced stacks. It draws and
evaluates its trials chunk by chunk. ``binomial_point_mass`` reads log-gamma
at integer arguments through a memo. Each must give the bytes of the code it
replaces: the pins below were computed before it existed.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import special

from senslab import (GaussianModel, RngStream, binomial_point_mass, efron_stein_check,
                     mean_estimator, median_estimator)
from senslab import analysis
from senslab.estimators import Estimator, _median_stack


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def generic_median(d: int) -> Estimator:
    # Computes the median, but its stack_fn is not _median_stack itself, so
    # efron_stein_check evaluates it on every replaced stack.
    return Estimator(name="median", output_dim=d, stack_fn=lambda s: _median_stack(s))


@pytest.mark.parametrize("d, n", [(d, n) for d in (1, 3) for n in (1, 2, 3, 4, 10, 101)])
def test_median_path_matches_the_replaced_stacks(d, n):
    model = GaussianModel(np.full(d, 0.25))
    for seed in (0, 1, 2):
        fast = efron_stein_check(median_estimator(d), model, n, 1000, RngStream(seed, n))
        slow = efron_stein_check(generic_median(d), model, n, 1000, RngStream(seed, n))
        assert repr(fast) == repr(slow)


def test_only_the_median_stack_takes_the_order_statistic_path(monkeypatch):
    calls = []
    on_stack = Estimator.on_stack

    def counted(self, stack):
        calls.append(stack.shape)
        return on_stack(self, stack)

    monkeypatch.setattr(Estimator, "on_stack", counted)
    model = GaussianModel(np.zeros(1))
    efron_stein_check(median_estimator(1), model, 10, 1000, RngStream(3, 0))
    assert len(calls) == 0  # f(X) is s_q of the same sort
    efron_stein_check(generic_median(1), model, 10, 1000, RngStream(3, 0))
    assert len(calls) == 11


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11, 24, 25])
@pytest.mark.parametrize("d", [1, 2])
def test_leave_one_out_medians_on_tied_stacks(n, d):
    # Values in {0, 1, 2}: most ranks are ties, and the fresh value often
    # equals the removed one or the median.
    gen = np.random.default_rng(1000 * n + d)
    x = gen.integers(0, 3, size=(300, n, d)).astype(np.float64)
    fresh = gen.integers(0, 3, size=(300, n, d)).astype(np.float64)
    q = (n - 1) // 2
    fx, rows = analysis._median_replaced(x, fresh)
    assert fx.tobytes() == np.partition(x, q, axis=1)[:, q].tobytes()
    got = list(rows)
    assert len(got) == n
    for i in range(n):
        replaced = x.copy()
        replaced[:, i] = fresh[:, i]
        want = np.partition(replaced, q, axis=1)[:, q]
        assert got[i].shape == want.shape and got[i].tobytes() == want.tobytes(), i


# sha256 of "\n".join(repr(result)) over d = 1, n in (1, 2, 3, 4, 10, 101) and
# d = 3, n in (1, 2, 3, 4, 10, 24), each at seeds 0, 1, 2 on RngStream(seed, n),
# 1000 trials, the median of a standard Gaussian; computed with n selections
# per check.
ES_MEDIAN_PIN = "cdc7d9a767a1de6b805a1ff7d5e57cd17039f523de00e21e0e3f12e09f7cf0c5"


def test_median_results_keep_their_bytes():
    out = []
    for d, ns in ((1, (1, 2, 3, 4, 10, 101)), (3, (1, 2, 3, 4, 10, 24))):
        for n in ns:
            for seed in (0, 1, 2):
                out.append(repr(efron_stein_check(median_estimator(d), GaussianModel(np.zeros(d)),
                                                  n, 1000, RngStream(seed, n))))
    assert sha256("\n".join(out)) == ES_MEDIAN_PIN


def constant(d: int) -> Estimator:
    return Estimator(name="const", output_dim=d, stack_fn=lambda s: np.full((s.shape[0], d), 0.7))


def gauss(d: int, mu: float = 0.0) -> GaussianModel:
    return GaussianModel(np.full(d, mu))


# sha256 of repr(result), taken while the check drew X and its fresh copy as
# two whole (trials, n, d) stacks. With 2 MiB per chunk stack the trial counts
# leave a short last chunk (one trial for T2596, n10-T8739 and T1142), and
# trials * n * d mod 4 is 0, 1, 2 or 3 (T2596..T2599): the fresh rows' offset
# in the stream falls inside a four-double Philox block.
ES_CHUNK_PINS = {
    "median-d1-n101-T2596": (
        lambda: efron_stein_check(median_estimator(1), gauss(1), 101, 2596, RngStream(81, 0)),
        "934f82704b07bc5c66250fd4ce77e4a7dc4a845a3337d9d62992e6e955c70d83"),
    "median-d1-n101-T2597": (
        lambda: efron_stein_check(median_estimator(1), gauss(1, 0.3), 101, 2597,
                                  RngStream(82, 1)),
        "0f2a01e0c56e2044f65bc3a05bc3063322d93e75bb9e50de84bd49cd1b6193d4"),
    "median-d1-n101-T2598": (
        lambda: efron_stein_check(median_estimator(1), gauss(1), 101, 2598, RngStream(83, 2)),
        "906229097dbf706b01b062fb1af6b1f1e55d9283dc2a3cc5fe2d4901c958e8c8"),
    "median-d1-n101-T2599": (
        lambda: efron_stein_check(median_estimator(1), gauss(1), 101, 2599, RngStream(84, 3)),
        "ed0c2c5e0edee0eba6ccdc5445d677536f6fe990d856f2b536c0d15b212ac673"),
    "median-d3-n25-T3497": (
        lambda: efron_stein_check(median_estimator(3), gauss(3, -0.2), 25, 3497,
                                  RngStream(85, 0)),
        "c7a9636c0e9a9e3d9f9c53d02f7e57b3aed325ab2a9f231cd8d8aa4e1a59b16d"),
    "generic-median-d1-n21-T12485": (
        lambda: efron_stein_check(generic_median(1), gauss(1), 21, 12485, RngStream(86, 0)),
        "0ee6a27407714c8f063d1e7501211eab1c49ecc16999f6257d557e3ed75cd511"),
    "generic-median-d3-n10-T8739": (
        lambda: efron_stein_check(generic_median(3), gauss(3), 10, 8739, RngStream(87, 0)),
        "95f938017f33ccd541d6c50d4f404dc2f99f29c647cb862ebdbe424236be0249"),
    "mean-d16-n100-T1142": (
        lambda: efron_stein_check(mean_estimator(16), gauss(16), 100, 1142, RngStream(88, 0)),
        "f71e7a018710392ff3b80fc6045b1fe2d89fd36292b8079307d8e2f0825f0863"),
    "mean-d3-n25-T3497": (
        lambda: efron_stein_check(mean_estimator(3), gauss(3, 0.5), 25, 3497, RngStream(89, 0)),
        "43ab6c8c1dfcf0cca5d573873b8ed206c0810f6e48f04776367d8cd821379912"),
    "constant-d3-n7-T1001": (
        lambda: efron_stein_check(constant(3), gauss(3), 7, 1001, RngStream(90, 0)),
        "6ca998120e5c19067eba83a584c42d77af7be31933881297a0001c4444e93e58"),
}


@pytest.mark.parametrize("name", sorted(ES_CHUNK_PINS))
def test_chunked_check_keeps_its_bytes(name):
    run, digest = ES_CHUNK_PINS[name]
    assert sha256(repr(run())) == digest


# The chunk size only moves the boundaries: one-trial chunks, short ones, and
# one chunk for every trial give the pinned bytes.
@pytest.mark.parametrize("budget", [1, 3000, 1 << 16, 1 << 23])
@pytest.mark.parametrize("name", ["median-d3-n25-T3497", "mean-d3-n25-T3497",
                                  "constant-d3-n7-T1001"])
def test_chunk_size_moves_no_byte(monkeypatch, name, budget):
    monkeypatch.setattr(analysis, "_ES_CHUNK_BYTES", budget)
    run, digest = ES_CHUNK_PINS[name]
    assert sha256(repr(run())) == digest


def traced_peak(f: Estimator, d: int, n: int, trials: int) -> int:
    tracemalloc.start()
    try:
        efron_stein_check(f, gauss(d), n, trials, RngStream(15, 1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peaks of the calls below with 2 MiB chunk stacks (numpy 2.4.6,
# Python 3.11.7), each bound 1 MiB above its measurement for allocator and
# library drift. Whole (trials, n, d) stacks peaked at 46.7 and 25.9 MiB.
ES_MEDIAN_PEAK_BYTES = 6_700_074 + (1 << 20)
ES_MEAN_PEAK_BYTES = 4_576_211 + (1 << 20)


def test_median_path_peak_memory():
    assert traced_peak(median_estimator(1), 1, 101, 20_000) <= ES_MEDIAN_PEAK_BYTES


def test_general_path_peak_memory():
    assert traced_peak(mean_estimator(16), 16, 100, 1000) <= ES_MEAN_PEAK_BYTES


def test_peak_memory_is_flat_in_trials():
    # Past one chunk, a trial adds only its f(X) and gap sum (16 bytes,
    # measured); whole stacks of X and its fresh copy would add 2 n d 8.
    small, large = 10_000, 40_000
    grown = traced_peak(median_estimator(1), 1, 101, large) - \
        traced_peak(median_estimator(1), 1, 101, small)
    assert grown <= 32 * (large - small)


# sha256 of repr of [binomial_point_mass(n, r) for n in 1..200 for r in 0..n],
# computed with three special.gammaln calls per point.
POINT_MASS_GRID_PIN = "ee97a16d0051b7cc22140cf905e48da7fa917443e2f38d06956d89e585f1acae"


def test_point_mass_grid_keeps_its_bytes():
    grid = [binomial_point_mass(n, r) for n in range(1, 201) for r in range(n + 1)]
    assert sha256(repr(grid)) == POINT_MASS_GRID_PIN


def test_memoised_log_gamma_is_gammaln():
    for m in range(10_002):
        got = analysis._gammaln_int(m)
        assert type(got) is float and got == special.gammaln(m), m

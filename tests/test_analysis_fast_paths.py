"""Fast paths of ``analysis`` held to their references.

``efron_stein_check`` takes the leave-one-out medians of an estimator that
computes ``_median_stack`` from three order statistics per dataset; every
other estimator is evaluated on the n replaced stacks. ``binomial_point_mass``
reads log-gamma at integer arguments through a memo. Both must give the
bytes of the code they replace: the pins below were computed before either
fast path existed.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import special

from senslab import GaussianModel, RngStream, binomial_point_mass, efron_stein_check, median_estimator
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


# tracemalloc peak of the call below with n selections per check: 77.4 MiB
# (numpy 2.4.6, Python 3.11.7).
ES_MEDIAN_PEAK_BYTES = 81_125_505


def test_median_path_peak_memory():
    tracemalloc.start()
    try:
        efron_stein_check(median_estimator(1), GaussianModel(np.zeros(1)), 101, 20_000,
                          RngStream(15, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ES_MEDIAN_PEAK_BYTES


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

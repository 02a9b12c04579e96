"""A lower bound never exceeds the exact certificate, trial by trial.

Both reports run on the same (model, n, eta, seed), so trial t of each reads
the same clean rows from stream (seed, 2t). tv-coupling draws its coupled
pair from that stream alone, and its clean rows are the stream's first n
normals, the same bytes every other adversary reads. Every corruption of a
lower-bound adversary replaces at most k rows (an over-budget trial scores
0), and the exact adversary's value is the sup of the displacement over all
such corruptions of those rows, so each per-trial lower bound is at most the
certificate. For the median and the Bernoulli plug-in the two values are
roundings of order-statistic or count differences, and rounding is
monotone, so the law holds in floating point too.

At n >= 2000 the lower-bound steps but tv-coupling's run on helper threads
at workers 3 and by default on more than one CPU; below that they stay on
the calling thread.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senslab import BernoulliModel, GaussianModel, estimate_es

# family -> (estimator, exact adversary, [(lower-bound adversary, delta)])
FAMILIES = {
    "median": ("median", "median-exact",
               [("resample", None), ("local-shift", 0.5), ("local-shift", -3.0),
                ("block-resample", None), ("tv-coupling", None)]),
    "bernoulli-plugin": ("bernoulli-plugin", "hamming-ball",
                         [("resample", None), ("block-resample", None)]),
}
# (family, model, n, eta): the sizes the understatement table was measured
# at, and one per family large enough for helper threads. At p = 0.1 and
# p = 0.9 most clean counts sit within k of an end of [0, n], where only one
# side of the ball reaches k layers.
CASES = [
    ("median", GaussianModel([0.0]), 101, 0.05),
    ("median", GaussianModel([0.0]), 401, 0.1),
    ("median", GaussianModel([0.0]), 1001, 0.02),
    ("median", GaussianModel([0.0]), 2001, 0.02),
    ("bernoulli-plugin", BernoulliModel(0.1), 16, 0.2),
    ("bernoulli-plugin", BernoulliModel(0.9), 16, 0.2),
    ("bernoulli-plugin", BernoulliModel(0.5), 200, 0.1),
    ("bernoulli-plugin", BernoulliModel(0.3), 2000, 0.02),
]
IDS = [f"{family}-p{getattr(model, 'p', 'gauss')}-n{n}" for family, model, n, _ in CASES]


def check_law(family: str, model, n: int, eta: float, seed: int, workers,
              trials: int = 150) -> None:
    estimator, exact, lower_bounds = FAMILIES[family]
    kwargs = dict(eta=eta, n=n, trials=trials, seed=seed, workers=workers)
    cert = estimate_es(estimator, exact, model, **kwargs)
    assert not cert.lower_bound_only
    for adversary, delta in lower_bounds:
        bound = estimate_es(estimator, adversary, model, delta=delta, **kwargs)
        assert bound.lower_bound_only
        over = np.flatnonzero(bound.per_trial > cert.per_trial)
        assert over.size == 0, (f"{adversary} (delta={delta}) exceeds {exact} at trials "
                                f"{over[:5].tolist()}")


@pytest.mark.parametrize("workers", [1, 3, None])
@pytest.mark.parametrize("family, model, n, eta", CASES, ids=IDS)
def test_lower_bound_is_at_most_the_exact_certificate(family, model, n, eta, workers):
    check_law(family, model, n, eta, seed=29, workers=workers)


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32 - 1),
       workers=st.sampled_from([1, 3, None]))
def test_lower_bound_law_holds_at_any_seed(case, seed, workers):
    check_law(*case, seed=seed, workers=workers, trials=100)

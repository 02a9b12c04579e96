"""A bad request fails before its first draw.

Each test patches the step that would draw (``harness._run_pairs`` or
``harness._clean_stack``) to fail, so a check that only fires inside a chunk,
or after an earlier point of a sweep has run, fails the test.
"""

import math

import numpy as np
import pytest

from senslab import (
    GaussianModel,
    analysis,
    build_estimator,
    estimate_es,
    harness,
    mean_obstruction_low,
    scaling_sweep,
)


def no_trials(*args, **kwargs):
    raise AssertionError("a trial ran before the request was checked")


class NoDraw:
    """A stream whose first draw fails the test."""

    def generator(self):
        raise AssertionError("a draw was made before the parameters were checked")


# --- scaling_sweep checks every point's request before its first trial ---

SWEEPS = {
    "median-exact/even-n": (("median", "median-exact"),
                            dict(variable="n", values=[2001, 4001, 8000, 16001], eta=0.05),
                            r"^median-exact requires odd n$"),
    "median-exact/k-over-m": (("median", "median-exact"),
                              dict(variable="eta", values=[0.1, 0.2, 0.3, 0.6], n=21),
                              r"^need k <= m - 1 = 10, got k = 12$"),
    "local-shift/d2": (("mean", "local-shift"),
                       dict(variable="d", values=[1, 2, 3, 4], delta=0.5),
                       r"^local-shift requires scalar \(d = 1\) data$"),
    "local-shift/k0": (("mean", "local-shift"),
                       dict(variable="n", values=[10, 20, 40, 80], eta=0.05, delta=0.5),
                       r"^budget allows no corruption"),
    "block-resample/k0": (("mean", "block-resample"),
                          dict(variable="n", values=[10, 20, 40, 80], eta=0.05),
                          r"^budget allows no corruption"),
    "clipped-mean/d2": (("clipped-mean", "resample"),
                        dict(variable="d", values=[1, 2, 3, 4]),
                        r"^clipped-mean is a scalar estimator \(d = 1\)$"),
    "local-shift/nan-delta": (("mean", "local-shift"),
                              dict(variable="eta", values=[0.1, 0.2, 0.3, 0.4], delta=math.nan),
                              r"^delta must be finite, got nan$"),
}


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_checks_every_point_before_the_first_trial(monkeypatch, case):
    args, kwargs, message = SWEEPS[case]
    monkeypatch.setattr(harness, "_run_pairs", no_trials)
    with pytest.raises(ValueError, match=message):
        scaling_sweep(*args, trials=10_000, seed=1, **kwargs)


# --- a registry name's clean data have as many coordinates as its output ---

def test_projected_name_with_a_vector_model_fails_before_any_draw(monkeypatch):
    monkeypatch.setattr(harness, "_clean_stack", no_trials)
    with pytest.raises(ValueError, match=r"build_estimator\('projected:16', d=8\) and "
                                         r"GaussianModel\(\[mu\]\)$"):
        estimate_es("projected:16", "resample", GaussianModel(np.zeros(8)), eta=0.1, n=200,
                    trials=10_000, seed=1)


def test_projected_estimator_built_at_d_takes_scalar_data():
    # The lift the rejection points to runs, and is the report the sweep's
    # point at d gives.
    est = build_estimator("projected:16", d=8, seed=1)
    report = estimate_es(est, "resample", GaussianModel([0.0]), eta=0.1, n=50, trials=100, seed=1)
    point, model = harness._gaussian_point("projected:16", 8, [0.0], 1)
    again = estimate_es(point, "resample", model, eta=0.1, n=50, trials=100, seed=1)
    assert report.estimator == "projected:16(mean)"
    assert report.per_trial.tobytes() == again.per_trial.tobytes()


def test_a_bad_estimator_is_named_before_a_bad_mu():
    with pytest.raises(ValueError, match=r"^clipped-mean is a scalar estimator"):
        harness._gaussian_point("clipped-mean", 3, [1.0, 2.0], 0)


# --- NaN and infinite parameters are rejected before any draw ---

NONFINITE = [math.nan, math.inf, -math.inf]

PARAMETERS = {
    "tv_gaussian_shift/eta": lambda v: analysis.tv_gaussian_shift(v),
    "chi2_gaussian_products/delta": lambda v: analysis.chi2_gaussian_products(v, 10),
    "chi2_localshift_bound/delta": lambda v: analysis.chi2_localshift_bound(5, 100, v),
    "chernoff_tail_bound/t": lambda v: analysis.chernoff_tail_bound(100, 0.01, v),
    "chernoff_tail_bound/p": lambda v: analysis.chernoff_tail_bound(100, v, 10),
    "binomial_tail/p": lambda v: analysis.binomial_tail(100, v, 10),
    "hypergeom_mgf_check/lambda": lambda v: analysis.hypergeom_mgf_check(100, 10, v, 100_000,
                                                                         NoDraw()),
    "chi2_products_mc/delta": lambda v: analysis.chi2_products_mc(v, 10, 1000, NoDraw()),
    "chi2_localshift_mc/delta": lambda v: analysis.chi2_localshift_mc(5, 100, v, 1000, NoDraw()),
}


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_nonfinite_parameter_is_rejected(name, value):
    with pytest.raises(ValueError, match=r"must (be finite|lie in \(0, 1\))"):
        PARAMETERS[name](value)


@pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.2])
def test_binomial_tail_checks_p_like_the_chernoff_bound(p):
    message = rf"^p must lie in \(0, 1\), got {p}$"
    with pytest.raises(ValueError, match=message):
        analysis.binomial_tail(100, p, 10)
    with pytest.raises(ValueError, match=message):
        analysis.chernoff_tail_bound(100, p, 10)


@pytest.mark.parametrize("delta", NONFINITE)
def test_nonfinite_delta_is_rejected_before_the_first_trial(monkeypatch, delta):
    monkeypatch.setattr(harness, "_run_pairs", no_trials)
    message = rf"^delta must be finite, got {delta}$"
    with pytest.raises(ValueError, match=message):
        estimate_es("mean", "local-shift", GaussianModel([0.0]), eta=0.1, n=100, trials=10_000,
                    seed=1, delta=delta)
    with pytest.raises(ValueError, match=message):
        mean_obstruction_low("clipped-mean", eta=0.05, delta=delta, n=400, trials=20_000)

"""A bad request fails before its first draw.

Each test patches the step that would draw (``harness._run_pairs``,
``harness._clean_stack``, the trial streams or every ``RngStream``'s
generator) to fail, so a check that only fires inside a chunk, or after an
earlier point of a sweep has run, fails the test.
"""

import math
import re
import warnings

import numpy as np
import pytest

from senslab import (
    BernoulliModel,
    ClipInterval,
    CorruptionBudget,
    Dataset,
    Estimator,
    GaussianModel,
    RngStream,
    analysis,
    bernoulli_expected_sensitivity,
    beta_binomial_layer_law,
    block_layout,
    build_estimator,
    clip_estimator,
    compute_k,
    couple_gaussian_pair,
    coupling_obstruction_high,
    estimate_es,
    hamming_ball_sup,
    harness,
    local_shift_adversary,
    mean_estimator,
    mean_obstruction_low,
    median_estimator,
    plugin_estimator,
    project_scalar,
    sample_unit_direction,
    scaling_sweep,
    tv_coupling_adversary,
    variance_obstruction,
    verify_suite,
)
from senslab.cli import main


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


# --- a scalar registry estimator is built at d = 1 only, before any draw ---

@pytest.mark.parametrize("d", [2, 3])
def test_plugin_at_d_above_1_is_rejected_before_any_draw(no_draws, capsys, d):
    message = r"^bernoulli-plugin is a scalar estimator \(d = 1\)$"
    with pytest.raises(ValueError, match=message):
        build_estimator("bernoulli-plugin", d=d)
    with pytest.raises(ValueError, match=message):
        harness._gaussian_point("bernoulli-plugin", d, [0.0], 0)
    with pytest.raises(ValueError, match=message):
        estimate_es("bernoulli-plugin", "resample", GaussianModel(np.zeros(d)), eta=0.1, n=50,
                    trials=1000)
    assert main(["sensitivity", "--estimator", "bernoulli-plugin", "--d", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bernoulli-plugin is a scalar estimator (d = 1)\n"


# --- a binary-domain estimator reads Bernoulli data only ---

@pytest.mark.parametrize("estimator", ["bernoulli-plugin",
                                       clip_estimator(plugin_estimator(), ClipInterval(0.2, 0.8))],
                         ids=["plugin", "clipped-plugin"])
@pytest.mark.parametrize("adversary", ["resample", "block-resample", "tv-coupling"])
def test_binary_domain_estimator_on_gaussian_data_fails_before_the_first_trial(
        monkeypatch, estimator, adversary):
    monkeypatch.setattr(harness, "_run_pairs", no_trials)
    name = getattr(estimator, "name", estimator)
    with pytest.raises(ValueError, match=rf"^{name} requires a BernoulliModel for the clean data$"):
        estimate_es(estimator, adversary, GaussianModel([0.0]), eta=0.1, n=50, trials=1000)


def test_plugin_on_the_cli_gaussian_model_fails_before_the_first_trial(monkeypatch, capsys):
    monkeypatch.setattr(harness, "_run_pairs", no_trials)
    assert main(["sensitivity", "--estimator", "bernoulli-plugin"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bernoulli-plugin requires a BernoulliModel for the clean "
                            "data\n")


# --- a Hamming ball runs the guards of the path it takes before any draw ---

FIRST_BIT = Estimator("first-bit", 1, lambda s: s[:, 0, :].copy(), binary_domain=True)
# (estimator, eta, n, message): the mask width and the point count of an
# enumerated ball, and the layer tables' bytes of a layer estimator's ball.
BALL_GUARDS = {
    "masks": (FIRST_BIT, 0.1, 40, r"^flip masks are uint32: n <= 32 required, got 40$"),
    "points": (FIRST_BIT, 0.4, 30, r"^enumeration guard: ball size 194129627 exceeds 1000000$"),
    "layers": ("bernoulli-plugin", 0.1, 2_000_000,
               r"^layer guard: the layer tables for n=2000000 take 144000072 bytes, over "
               r"134217728$"),
}


@pytest.mark.parametrize("case", sorted(BALL_GUARDS))
def test_hamming_ball_guards_fire_before_the_first_draw(monkeypatch, case):
    estimator, eta, n, message = BALL_GUARDS[case]
    monkeypatch.setattr(harness, "_clean_stack", no_trials)
    with pytest.raises(ValueError, match=message):
        estimate_es(estimator, "hamming-ball", BernoulliModel(0.5), eta=eta, n=n, trials=100,
                    seed=1)


@pytest.mark.parametrize("case", sorted(BALL_GUARDS))
def test_hamming_ball_sup_keeps_its_guard_messages(case):
    estimator, eta, n, message = BALL_GUARDS[case]
    f = build_estimator(estimator) if isinstance(estimator, str) else estimator
    with pytest.raises(ValueError, match=message):
        hamming_ball_sup(f, Dataset(np.zeros(n)), CorruptionBudget.from_eta(eta, n))


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
    "gaussian_lr_identity_check/a": lambda v: analysis.gaussian_lr_identity_check(
        [0.0, v], [1.0, 1.0], 10_000, NoDraw()),
    "gaussian_lr_identity_check/b": lambda v: analysis.gaussian_lr_identity_check(
        [1.0], [v], 10_000, NoDraw()),
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


# --- hypergeom_mgf_check rejects an exponent past exp's range before any draw ---

@pytest.mark.parametrize("n, k, lam, side", [
    (100, 10, 6.7, "bound"),  # (k^2/n)(e^lambda - 1 - lambda) = 804
    (100, 10, 710.0, "bound"),  # e^lambda overflows a double; so would the lhs
    (10, 10, 1e6, "bound"),  # H = k always: the lhs exponent is 0
    (1_000_000, 1000, 6.0, "lhs"),  # bound exponent 396, lambda (k - k^2/n) = 5994
])
def test_hypergeom_mgf_overflow_is_rejected_before_any_draw(n, k, lam, side):
    with pytest.raises(OverflowError,
                       match=rf"^{side} exponent \S+ exceeds 700\.0; result overflows$"):
        analysis.hypergeom_mgf_check(n, k, lam, 1000, NoDraw())


# --- every closed-form exponent past exp's range fails the one rule before any draw ---

OVERFLOWS = {
    "chi2_localshift_bound": lambda: analysis.chi2_localshift_bound(5, 100, 30.0),
    "chi2_gaussian_products": lambda: analysis.chi2_gaussian_products(1e200, 10),
    "mean_obstruction_low": lambda: mean_obstruction_low("clipped-mean", eta=0.05, delta=30.0,
                                                         n=400),
    "hcr_check": lambda: analysis.hcr_check(mean_estimator(1), 0.0, 1e200, 25, 1000, NoDraw()),
    "gaussian_lr_identity_check": lambda: analysis.gaussian_lr_identity_check(
        [30.0], [30.0], 10000, NoDraw()),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_an_exponent_past_exp_range_is_refused_by_the_rule(monkeypatch, name):
    monkeypatch.setattr(harness, "_run_pairs", no_trials)
    with pytest.raises(OverflowError, match=r"exceeds 700\.0; result overflows$"):
        OVERFLOWS[name]()


# --- the likelihood-ratio identity refuses what its draws cannot resolve ---

_LR_NONFINITE = r"^\|a\|\^2, \|b\|\^2, <a, b> and \|a \+ b\|\^2 must be finite$"
LR_REFUSALS = {
    # relative stderr sqrt(expm1(400) / 1e4): the lhs read 2.8e-59 against 1.0
    "out-of-reach": ([20.0], [0.0], ValueError,
                     r"^\|a \+ b\|\^2 = 400 is out of reach at 10000 draws: the estimate's "
                     r"relative stderr exceeds 0\.5$"),
    "huge-a": ([1e200], [0.0], ValueError, _LR_NONFINITE),
    "huge-opposite": ([1e200], [-1e200], ValueError, _LR_NONFINITE),
    # The products overflow before their sum, 0, is formed: refused as
    # non-finite, not as an exponent the request does not have
    "huge-cancelling": ([1e200, -1e200], [1e200, 1e200], ValueError, _LR_NONFINITE),
}


@pytest.mark.parametrize("case", sorted(LR_REFUSALS))
def test_likelihood_ratio_identity_refuses_what_it_cannot_resolve_before_any_draw(case):
    a, b, error, message = LR_REFUSALS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            analysis.gaussian_lr_identity_check(a, b, 10_000, NoDraw())


def test_mixture_chi2_refuses_a_shift_it_cannot_resolve_before_any_draw():
    # A = 30^2 * 5 * 0.95 = 4275: the estimate read (1.0, 0.0) against a chi^2
    # of about e^4257, and the floor on its relative variance is about e^17046.
    with pytest.raises(ValueError, match=r"^k delta\^2 \(1 - k/n\) = 4\.28e\+03 is out of reach "
                                         r"at 1000 draws: the estimate's relative stderr "
                                         r"exceeds 0\.5$"):
        analysis.chi2_localshift_mc(5, 100, 30.0, 1000, NoDraw())


# The shapes verify_suite, the bench and the pinned draws request: each
# floor is vacuous, so each is admitted at the fewest draws.
@pytest.mark.parametrize("k, n, delta", [(3, 50, 0.5), (5, 100, 0.8), (1, 101, 0.5), (7, 7, 0.3)])
def test_mixture_chi2_admits_every_existing_request(k, n, delta):
    mc, se = analysis.chi2_localshift_mc(k, n, delta, 1000, RngStream(95, 0))
    assert math.isfinite(mc) and math.isfinite(se)


def test_hypergeom_mgf_just_inside_exp_range_runs():
    # (k^2/n)(e^lambda - 1 - lambda) = 657.6 at lambda = 6.5
    r = analysis.hypergeom_mgf_check(100, 10, 6.5, 1000, RngStream(24, 7))
    assert math.isfinite(r.lhs) and math.isfinite(r.rhs) and r.holds


@pytest.mark.parametrize("delta", NONFINITE)
def test_nonfinite_delta_is_rejected_before_the_first_trial(monkeypatch, delta):
    monkeypatch.setattr(harness, "_run_pairs", no_trials)
    message = rf"^delta must be finite, got {delta}$"
    with pytest.raises(ValueError, match=message):
        estimate_es("mean", "local-shift", GaussianModel([0.0]), eta=0.1, n=100, trials=10_000,
                    seed=1, delta=delta)
    with pytest.raises(ValueError, match=message):
        mean_obstruction_low("clipped-mean", eta=0.05, delta=delta, n=400, trials=20_000)


# --- every count parameter passes the one count rule before any draw ---

class NoDrawGenerator:
    """A generator whose first use fails the test."""

    def __getattr__(self, name):
        raise AssertionError("a draw was made before the parameters were checked")


@pytest.fixture
def no_draws(monkeypatch):
    monkeypatch.setattr(RngStream, "generator", lambda self: NoDrawGenerator())
    monkeypatch.setattr(harness, "_trial_streams", no_trials)


S = RngStream(0, 0)
MEAN1 = mean_estimator(1)
PLUGIN = plugin_estimator()
G1 = GaussianModel([0.0])


def _grid(v, grid=(1000.0, 2000.0, 4000.0)):
    # A strictly increasing grid holding v, so the grid check passes on to v.
    return [v, *grid] if v < grid[0] else [*grid, v]


# name -> (call on the value, the parameter's name, its floor)
COUNTS = {
    # core and bernoulli
    "compute_k/n": (lambda v: compute_k(0.1, v), "n", 1),
    "GaussianModel.sample/n": (lambda v: G1.sample(v, S), "n", 1),
    "BernoulliModel.sample/n": (lambda v: BernoulliModel(0.5).sample(v, S), "n", 1),
    "beta_binomial_layer_law/n": (lambda v: beta_binomial_layer_law(v), "n", 1),
    "bernoulli_expected_sensitivity/n": (
        lambda v: bernoulli_expected_sensitivity(PLUGIN, v, 0.5,
                                                 CorruptionBudget.from_eta(0.1, 10)), "n", 1),
    "CorruptionBudget.from_eta/n": (lambda v: CorruptionBudget.from_eta(0.1, v), "n", 1),
    # adversaries
    "block_layout/n": (lambda v: block_layout(v, 2), "n", 1),
    "block_layout/k": (lambda v: block_layout(10, v), "k", 1),
    "couple_gaussian_pair/n": (lambda v: couple_gaussian_pair(NoDrawGenerator(), 0.0, 0.1, v),
                               "n", 1),
    "tv_coupling_adversary/n": (lambda v: tv_coupling_adversary(0.0, 0.1, v, S), "n", 1),
    # estimators
    "mean_estimator/d": (lambda v: mean_estimator(v), "d", 1),
    "median_estimator/d": (lambda v: median_estimator(v), "d", 1),
    "build_estimator/d": (lambda v: build_estimator("projected:16", d=v), "d", 1),
    "project_scalar/mc_inner": (lambda v: project_scalar(MEAN1, [1.0], [0.0], mc_inner=v),
                                "mc_inner", 1),
    "sample_unit_direction/d": (lambda v: sample_unit_direction(v, S), "d", 1),
    # analysis
    "chi2_gaussian_products/n": (lambda v: analysis.chi2_gaussian_products(0.1, v), "n", 1),
    "chi2_localshift_bound/k": (lambda v: analysis.chi2_localshift_bound(v, 100, 0.5), "k", 1),
    "chi2_localshift_bound/n": (lambda v: analysis.chi2_localshift_bound(5, v, 0.5), "n", 1),
    "chi2_products_mc/n": (lambda v: analysis.chi2_products_mc(0.1, v, 1000, S), "n", 1),
    "chi2_products_mc/draws": (lambda v: analysis.chi2_products_mc(0.1, 10, v, S), "draws", 1000),
    "chi2_localshift_mc/k": (lambda v: analysis.chi2_localshift_mc(v, 50, 0.5, 1000, S), "k", 1),
    "chi2_localshift_mc/n": (lambda v: analysis.chi2_localshift_mc(3, v, 0.5, 1000, S), "n", 1),
    "chi2_localshift_mc/draws": (lambda v: analysis.chi2_localshift_mc(3, 50, 0.5, v, S),
                                 "draws", 1000),
    "gaussian_lr_identity_check/trials": (
        lambda v: analysis.gaussian_lr_identity_check([1.0], [1.0], v, S), "trials", 10_000),
    "hypergeom_mgf_check/n": (lambda v: analysis.hypergeom_mgf_check(v, 1, 1.0, 1000, S), "n", 1),
    "hypergeom_mgf_check/k": (lambda v: analysis.hypergeom_mgf_check(100, v, 1.0, 1000, S),
                              "k", 1),
    "hypergeom_mgf_check/trials": (lambda v: analysis.hypergeom_mgf_check(100, 10, 1.0, v, S),
                                   "trials", 1000),
    "chernoff_tail_bound/n": (lambda v: analysis.chernoff_tail_bound(v, 0.5, 1.0), "n", 1),
    "binomial_tail/n": (lambda v: analysis.binomial_tail(v, 0.5, 1), "n", 1),
    "binomial_point_mass/n": (lambda v: analysis.binomial_point_mass(v, 0), "n", 1),
    "binomial_point_mass/r": (lambda v: analysis.binomial_point_mass(10, v), "r", 0),
    "efron_stein_check/n": (lambda v: analysis.efron_stein_check(MEAN1, G1, v, 1000, S), "n", 1),
    "efron_stein_check/trials": (lambda v: analysis.efron_stein_check(MEAN1, G1, 5, v, S),
                                 "trials", 1000),
    "hcr_check/n": (lambda v: analysis.hcr_check(MEAN1, 0.0, 0.2, v, 1000, S), "n", 1),
    "hcr_check/trials": (lambda v: analysis.hcr_check(MEAN1, 0.0, 0.2, 25, v, S), "trials", 1000),
    "cramer_rao_check/n": (lambda v: analysis.cramer_rao_check(MEAN1, 0.0, v, 1000, S), "n", 1),
    "cramer_rao_check/trials": (lambda v: analysis.cramer_rao_check(MEAN1, 0.0, 25, v, S),
                                "trials", 1000),
    "uniform_spacing_check/n": (lambda v: analysis.uniform_spacing_check(v, 1, 1000, S), "n", 1),
    "uniform_spacing_check/i": (lambda v: analysis.uniform_spacing_check(9, v, 1000, S), "i", 1),
    "uniform_spacing_check/trials": (lambda v: analysis.uniform_spacing_check(9, 5, v, S),
                                     "trials", 1000),
    # harness
    "estimate_es/n": (lambda v: estimate_es("mean", "resample", G1, eta=0.1, n=v, trials=100),
                      "n", 1),
    "estimate_es/trials": (lambda v: estimate_es("mean", "resample", G1, eta=0.1, n=50, trials=v),
                           "trials", 100),
    "estimate_es/workers": (lambda v: estimate_es("mean", "resample", G1, eta=0.1, n=50,
                                                  trials=100, workers=v), "workers", 1),
    "mean_obstruction_low/n": (
        lambda v: mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=v, trials=100),
        "n", 1),
    "mean_obstruction_low/trials": (
        lambda v: mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=400, trials=v),
        "trials", 2),
    "coupling_obstruction_high/n": (
        lambda v: coupling_obstruction_high("clipped-mean", eta=0.1, n=v, trials=100), "n", 1),
    "coupling_obstruction_high/trials": (
        lambda v: coupling_obstruction_high("clipped-mean", eta=0.1, n=500, trials=v),
        "trials", 2),
    "variance_obstruction/n": (
        lambda v: variance_obstruction("mean", G1, eta=0.1, n=v, trials=100), "n", 1),
    "variance_obstruction/trials": (
        lambda v: variance_obstruction("mean", G1, eta=0.1, n=50, trials=v), "trials", 2),
    "scaling_sweep/n": (lambda v: scaling_sweep("mean", "resample", variable="eta",
                                                values=[0.1, 0.2, 0.3, 0.4], n=v), "n", 1),
    "scaling_sweep/d": (lambda v: scaling_sweep("mean", "resample", variable="eta",
                                                values=[0.1, 0.2, 0.3, 0.4], d=v), "d", 1),
    "scaling_sweep/n-grid": (lambda v: scaling_sweep("mean", "resample", variable="n",
                                                     values=_grid(v)), "n", 1),
    "scaling_sweep/d-grid": (lambda v: scaling_sweep("mean", "resample", variable="d",
                                                     values=_grid(v)), "d", 1),
    "verify_suite/trials_scale": (lambda v: verify_suite(trials_scale=v), "trials_scale", 1000),
}
# The sweep reads its grid as floats, so a grid value shows as one.
GRIDS = {"scaling_sweep/n-grid", "scaling_sweep/d-grid"}


@pytest.mark.parametrize("kind", ["fraction", "nan", "inf", "below"])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_count_parameter_is_rejected_before_any_draw(no_draws, name, kind):
    call, param, fewest = COUNTS[name]
    value = {"fraction": 2.5, "nan": math.nan, "inf": math.inf, "below": fewest - 1}[kind]
    shown = repr(float(value) if name in GRIDS else value)
    with pytest.raises(ValueError, match=rf"^{param} must be an integer >= {fewest}, "
                                         rf"got {re.escape(shown)}$"):
        call(value)


@pytest.mark.parametrize("t", [2.5, math.nan, math.inf])
def test_binomial_tail_t_is_a_count(t):
    # t <= 0 is answered (P(X >= t) = 1) before t is counted.
    with pytest.raises(ValueError, match=rf"^t must be an integer >= 1, got {t!r}$"):
        analysis.binomial_tail(10, 0.5, t)


def test_integral_floats_and_numpy_ints_are_counts():
    # A count given as 150.0 or np.int64(150) runs, and the report holds the int.
    want = estimate_es("mean", "resample", G1, eta=0.1, n=50, trials=150, seed=4)
    for trials, n in ((150.0, 50.0), (np.int64(150), np.int64(50))):
        report = estimate_es("mean", "resample", G1, eta=0.1, n=n, trials=trials, seed=4)
        assert type(report.trials) is int and type(report.n) is int
        assert report.to_json(include_trials=True) == want.to_json(include_trials=True)


# --- every finite parameter is rejected as NaN or infinite before any draw ---

FINITE = {
    "hcr_check/mu0": (lambda v: analysis.hcr_check(MEAN1, v, 0.2, 25, 1000, S), "mu0"),
    "hcr_check/h": (lambda v: analysis.hcr_check(MEAN1, 0.0, v, 25, 1000, S), "h"),
    "cramer_rao_check/mu0": (lambda v: analysis.cramer_rao_check(MEAN1, v, 25, 1000, S), "mu0"),
    "local_shift_adversary/delta": (
        lambda v: local_shift_adversary(Dataset(np.zeros(20)), CorruptionBudget.from_eta(0.1, 20),
                                        v, S), "delta"),
    "couple_gaussian_pair/mu": (lambda v: couple_gaussian_pair(NoDrawGenerator(), v, 0.1, 10),
                                "mu"),
    "tv_coupling_adversary/mu": (lambda v: tv_coupling_adversary(v, 0.1, 10, S), "mu"),
}


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("name", sorted(FINITE))
def test_finite_parameter_is_rejected_before_any_draw(no_draws, name, value):
    call, param = FINITE[name]
    with pytest.raises(ValueError, match=rf"^{param} must be finite, got {value}$"):
        call(value)


@pytest.mark.parametrize("value", NONFINITE)
def test_projection_direction_and_offset_must_be_finite(value):
    with pytest.raises(ValueError, match=r"^u must be finite$"):
        project_scalar(mean_estimator(2), [value, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match=r"^lam must be finite$"):
        project_scalar(mean_estimator(2), [1.0, 0.0], [0.0, value])


# --- a binary-domain estimator never reads Gaussian or shifted rows ---

BINARY_DOMAIN = pytest.mark.parametrize(
    "estimator", ["bernoulli-plugin", clip_estimator(plugin_estimator(), ClipInterval(0.2, 0.8))],
    ids=["plugin", "clipped-plugin"])
OBSTRUCTIONS = {
    "mean_obstruction_low": lambda h: mean_obstruction_low(h, eta=0.05, delta=0.5, n=400,
                                                           trials=100),
    "coupling_obstruction_high": lambda h: coupling_obstruction_high(h, eta=0.1, n=200,
                                                                     trials=100),
    "variance_obstruction": lambda h: variance_obstruction(h, G1, eta=0.1, n=50, trials=100),
}


@BINARY_DOMAIN
@pytest.mark.parametrize("experiment", sorted(OBSTRUCTIONS))
def test_binary_domain_estimator_in_an_obstruction_fails_before_any_draw(no_draws, estimator,
                                                                         experiment):
    name = getattr(estimator, "name", estimator)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} requires a BernoulliModel for "
                                         r"the clean data$"):
        OBSTRUCTIONS[experiment](estimator)


@BINARY_DOMAIN
def test_local_shift_with_a_binary_domain_estimator_fails_before_any_draw(no_draws, estimator):
    name = getattr(estimator, "name", estimator)
    with pytest.raises(ValueError, match=rf"^local-shift moves corrupted rows out of \{{0, 1\}}, "
                                         rf"which {re.escape(name)} cannot read$"):
        estimate_es(estimator, "local-shift", BernoulliModel(0.5), eta=0.1, n=50, trials=100,
                    delta=0.5)

"""The benchmark workloads: job kinds, their sizes and output checks.

A workload is a cycle of job kinds run back to back by one client (a closed
loop). Every job is one call into the public senslab API plus the
serialisation of its deterministic payload; both are timed. The output check
and the payload digest run after the clock stops.

Checks test mathematics, not stored bytes, so a change that is allowed to
alter the random streams (a faster coupling sampler, say) still passes them:

* resampling ES_2 against the closed form sqrt(2 k d) / n, with the report's
  95% CI widened threefold (a miss is a > 5.8 sigma event);
* the exact Bernoulli results against k / n;
* median-exact certificates against an ``np.sort`` oracle on the clean
  sample, regenerated from stream (seed, 2t), for a few trials;
* the obstruction reports' own ``proof_floor`` and ``two_over_m_holds``
  fields, and the low-corruption mean displacement against the k delta / n
  shift it can at most reach;
* the analysis checkers against closed forms (or their own inequality when
  it has no closed form), within ``Z_WIDE`` Monte Carlo standard errors;
* every per-trial value finite and non-negative.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np
from scipy import special

import senslab as sl

WORKLOADS = ("mc-light", "mc-heavy", "exact", "analysis")
# Seconds one cycle of each workload takes at the nominal host speed of
# run.py; --seconds / this sets the number of cycles in a run.
NOMINAL_CYCLE_S = {"mc-light": 0.45, "mc-heavy": 3.2, "exact": 0.65, "analysis": 0.55}

# Widening of the report's 95% CI used by the closed-form checks, and the
# same tolerance in standard errors for results that report a stderr.
CI_WIDEN = 3.0
Z_WIDE = 1.96 * CI_WIDEN
# Monte Carlo draws of an analysis job: verify_suite's grid at trials_scale 1e4.
ANALYSIS_DRAWS = 10_000
# Failure probability allowed to the Hoeffding slack of the mean-low check.
HOEFFDING_ALPHA = 1e-9
# Absolute tolerance of the exact enumeration, as in the acceptance suite.
EXACT_ATOL = 1e-12
# Trials of a median-exact job whose certificate is re-derived by the oracle.
ORACLE_TRIALS = 3
# Warm-up sizes: the fewest trials estimate_es accepts, and a token run of
# an obstruction experiment.
MIN_ES_TRIALS = 100
MIN_OBSTRUCTION_TRIALS = 10


@dataclass(frozen=True)
class JobKind:
    """One library call of a workload's cycle.

    ``run(seed)`` makes the measured call and ``warmup(seed)`` the same call
    at the smallest size the API accepts; ``payload(result)`` serialises the
    deterministic output (timed with the call), ``trials(result)`` counts the
    Monte Carlo trials completed and ``check(result, seed)`` returns the
    output checks that failed.
    """

    name: str
    run: Callable[[int], Any]
    warmup: Callable[[int], Any]
    payload: Callable[[Any], str]
    trials: Callable[[Any], int]
    check: Callable[[Any, int], list[str]]


def job_seed(seed: int, index: int) -> int:
    """Seed of job ``index`` of a run with workload seed ``seed`` (32 bits)."""
    digest = hashlib.sha256(f"senslab-bench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _report_trials(report) -> int:
    return report.trials


def _per_trial_problems(report) -> list[str]:
    vals = np.asarray(report.per_trial)
    out = []
    if vals.shape != (report.trials,):
        out.append(f"per_trial has shape {vals.shape}, expected ({report.trials},)")
    if not np.all(np.isfinite(vals)):
        out.append("per_trial has non-finite values")
    elif np.any(vals < 0.0):
        out.append("per_trial has negative values")
    return out


def _closed_form_check(closed_form: float) -> Callable[[Any, int], list[str]]:
    def check(report, seed: int) -> list[str]:
        out = _per_trial_problems(report)
        es = report.es_estimate
        lo = es - CI_WIDEN * (es - report.ci_low)
        hi = es + CI_WIDEN * (report.ci_high - es)
        if not lo <= closed_form <= hi:
            out.append(f"ES_2 {es!r} with widened CI [{lo!r}, {hi!r}] misses "
                       f"the closed form {closed_form!r}")
        return out
    return check


def _exact_value_check(target: float) -> Callable[[Any, int], list[str]]:
    def check(report, seed: int) -> list[str]:
        out = _per_trial_problems(report)
        if report.es_estimate != target or np.any(np.asarray(report.per_trial) != target):
            out.append(f"hamming-ball ES {report.es_estimate!r} or a per-trial value "
                       f"differs from k/n = {target!r}")
        return out
    return check


def _es(name: str, trials: int, check, estimator, adversary: str, model, **config) -> JobKind:
    """An ``estimate_es`` job; its payload is ``to_json(include_trials=True)``."""
    def call(size):
        return lambda s: sl.estimate_es(estimator, adversary, model, trials=size, seed=s,
                                        workers=1, **config)
    return JobKind(name, call(trials), call(MIN_ES_TRIALS),
                   lambda report: report.to_json(include_trials=True), _report_trials, check)


def _mean_low_problems(report) -> list[str]:
    """Bounds on the clipped mean's displacement under the k-subset +delta shift.

    The clean mean m is N(mu', 1/n) with mu' in the prior. A trial moves the
    clipped mean by exactly shift = k delta / n when m lies in [0, 1 - shift]
    and by something in [0, shift] otherwise, so the average lies in
    [shift (1 - p - e), shift]: p bounds the chance that m leaves that range
    (at the prior's ends) and e is the Hoeffding slack at HOEFFDING_ALPHA.
    """
    shift = report.k * report.delta / report.n
    sd = 1.0 / math.sqrt(report.n)
    lo, hi = report.prior
    p_out = special.ndtr(-lo / sd) + special.ndtr((hi - (1.0 - shift)) / sd)
    slack = math.sqrt(math.log(1.0 / HOEFFDING_ALPHA) / (2 * report.trials))
    low = shift * (1.0 - p_out - slack)
    if not low <= report.avg_displacement <= shift + 1e-12:
        return [f"average displacement {report.avg_displacement!r} outside "
                f"[{low!r}, {shift!r}]"]
    return []


def _obstruction(name: str, experiment: str, trials: int, holds: str, *args, **config) -> JobKind:
    """An obstruction experiment, looked up in senslab at each call (so the
    tracer's wrapper is seen); its payload is the report's ``repr``.

    ``holds`` names the pass condition: a boolean field of the report,
    ``proof_floor``, which the displacement must reach, or ``mean_low``
    (``_mean_low_problems``).
    """
    def check(report, seed: int) -> list[str]:
        bad = [field for field, value in vars(report).items()
               if isinstance(value, float) and not math.isfinite(value)]
        out = [f"non-finite report fields {bad}"] if bad else []
        if holds == "mean_low":
            return out + _mean_low_problems(report)
        ok = (report.avg_displacement_on_feasible >= report.proof_floor
              if holds == "proof_floor" else getattr(report, holds))
        if not ok:
            out.append(f"report says {holds} does not hold")
        return out

    def call(size):
        return lambda s: getattr(sl, experiment)(*args, trials=size, seed=s, **config)
    return JobKind(name, call(trials), call(MIN_OBSTRUCTION_TRIALS), repr, _report_trials, check)


def mc_light(seed: int) -> list[JobKind]:
    """Cheap trials: fixed per-trial overhead dominates."""
    g16 = sl.GaussianModel(np.zeros(16))
    n, eta = 400, 0.1
    k = sl.compute_k(eta, n)
    return [
        _es("es/mean/resample", 500, _closed_form_check(math.sqrt(2 * k * g16.d) / n),
            "mean", "resample", g16, eta=eta, n=n),
        _obstruction("obstruction/mean-low", "mean_obstruction_low", 1000, "mean_low",
                     "clipped-mean", eta=0.05, delta=0.5, n=400),
        _obstruction("obstruction/variance", "variance_obstruction", 150, "two_over_m_holds",
                     "mean", g16, eta=eta, n=n),
    ]


def mc_heavy(seed: int) -> list[JobKind]:
    """Trials dominated by one kernel each: the coupling sampler and the lift."""
    g1 = sl.GaussianModel(np.zeros(1))
    projected = sl.build_estimator("projected:256", d=8, seed=seed)
    n_proj, eta_proj = 200, 0.1
    k_proj = sl.compute_k(eta_proj, n_proj)
    return [
        _es("es/clipped-mean/tv-coupling", 100, lambda r, s: _per_trial_problems(r),
            "clipped-mean", "tv-coupling", g1, eta=0.05, n=2000),
        _obstruction("obstruction/coupling-high", "coupling_obstruction_high", 100,
                     "proof_floor", "clipped-mean", eta=0.1, n=2000),
        # With lam = 0 the projection of the mean equals the scalar mean, so
        # resampling ES_2 has the scalar closed form sqrt(2 k) / n.
        _es("es/projected:256/resample", 100, _closed_form_check(math.sqrt(2 * k_proj) / n_proj),
            projected, "resample", g1, eta=eta_proj, n=n_proj),
    ]


def exact(seed: int) -> list[JobKind]:
    """Exact adversaries and enumeration; the Gaussian trial loop barely runs."""
    g1 = sl.GaussianModel(np.zeros(1))
    plugin = sl.plugin_estimator()
    n_med, eta_med = 10001, 0.05
    k_med = sl.compute_k(eta_med, n_med)
    n_bits, eta_bits = 16, 0.2
    budget = sl.CorruptionBudget.from_eta(eta_bits, n_bits)
    k_over_n = budget.k / n_bits

    def median_check(report, s: int) -> list[str]:
        out = _per_trial_problems(report)
        m = (n_med + 1) // 2
        for t in np.linspace(0, report.trials - 1, ORACLE_TRIALS).astype(int):
            x = np.sort(g1.sample(n_med, sl.RngStream(s, 2 * int(t))).samples[:, 0])
            want = max(x[m - 1 + k_med] - x[m - 1], x[m - 1] - x[m - 1 - k_med])
            if report.per_trial[t] != want:
                out.append(f"trial {t}: certificate {report.per_trial[t]!r} != "
                           f"sorted-sample oracle {want!r}")
        return out

    def enum_check(value: float, s: int) -> list[str]:
        if abs(value - k_over_n) > EXACT_ATOL:
            return [f"expected sensitivity {value!r} differs from k/n = {k_over_n!r}"]
        return []

    def enumerate_cube(s: int) -> float:
        return sl.bernoulli_expected_sensitivity(plugin, n_bits, 0.5, budget)

    return [
        _es("es/median/median-exact", 100, median_check,
            "median", "median-exact", g1, eta=eta_med, n=n_med),
        _es("es/bernoulli-plugin/hamming-ball", 100, _exact_value_check(k_over_n),
            "bernoulli-plugin", "hamming-ball", sl.BernoulliModel(0.5), eta=eta_bits, n=n_bits),
        JobKind("bernoulli/exact", enumerate_cube, enumerate_cube, repr, lambda v: 0, enum_check),
    ]


def _finite_problems(*values: float) -> list[str]:
    return [] if all(math.isfinite(v) for v in values) else [f"non-finite values {values}"]


def _holds_check(result) -> list[str]:
    """The checker's own inequality, for checks with no closed form."""
    out = _finite_problems(result.lhs, result.rhs)
    if not result.holds:
        out.append(f"checker reports lhs {result.lhs!r} > rhs {result.rhs!r}")
    return out


def _near(label: str, value: float, target: float, stderr: float) -> list[str]:
    if abs(value - target) <= Z_WIDE * stderr:
        return []
    return [f"{label} {value!r} is more than {Z_WIDE} stderr ({stderr!r}) from {target!r}"]


def _point_masses() -> tuple[float, dict]:
    """The pmf * sqrt(r + 1) floor over verify_suite's grid, plus its frozen points."""
    floor = min(sl.binomial_point_mass(n, r) * math.sqrt(r + 1)
                for n in range(1, 201) for r in range(n + 1))
    return floor, {(n, r): sl.binomial_point_mass(n, r) for n, r in ((7, 0), (4, 2), (9, 3))}


def _point_mass_problems(result) -> list[str]:
    floor, frozen = result
    out = [] if floor >= 0.24 else [f"pmf floor {floor!r} below 0.24"]
    for (n, r), value in frozen.items():
        want = float(math.comb(n, r) * Fraction(r, n) ** r * Fraction(n - r, n) ** (n - r))
        if abs(value - want) > EXACT_ATOL:
            out.append(f"P(Bin({n}, {r}/{n}) = {r}) = {value!r}, exact {want!r}")
    return out


def analysis_jobs(seed: int) -> list[JobKind]:
    """One job per pass over the analysis checkers, one call per family, at
    verify_suite's grid points and trials_scale 1e4 (the chi-square product
    oracle at 10x), each on its own stream (seed, i).

    ``verify_suite`` itself is not run: its 4-stderr pass rule fails for
    about 2% of seeds. The likelihood-ratio call uses the orthogonal grid
    point, whose lognormal ratio keeps a usable sample stderr at 1e4 draws.
    """
    g1 = sl.GaussianModel(np.zeros(1))
    mean1, median1 = sl.mean_estimator(1), sl.median_estimator(1)
    draws = ANALYSIS_DRAWS
    # Cramer-Rao for the mean of n = 25: slope 1, so both sides equal 1/n.
    n_cr = 25
    # H = |A cap B| for random 10-subsets of [100] is hypergeometric.
    n_h, k_h, lam_h = 100, 10, 1.0
    mgf = sum(math.comb(k_h, h) * math.comb(n_h - k_h, k_h - h) * math.exp(lam_h * (h - k_h ** 2 / n_h))
              for h in range(k_h + 1)) / math.comb(n_h, k_h)
    delta_p, n_p = 0.1, 100
    k_l, n_l, delta_l = 5, 100, 0.8
    bound_l = sl.chi2_localshift_bound(k_l, n_l, delta_l)

    def cramer_rao(r):
        return (_finite_problems(r.lhs, r.rhs) + _near("slope^2 / n", r.lhs, 1 / n_cr, r.mc_stderr)
                + _near("variance", r.rhs, 1 / n_cr, r.mc_stderr))

    def chi2_localshift(r):
        out = _finite_problems(*r)
        if not 0.0 <= r[0] <= bound_l + Z_WIDE * r[1]:
            out.append(f"chi^2 {r[0]!r} (stderr {r[1]!r}) exceeds the bound {bound_l!r}")
        return out

    def spacing(r):
        out = _finite_problems(r.lhs)
        if not r.lhs <= Z_WIDE:
            out.append(f"spacing moments are {r.lhs!r} stderr from Beta(1, n)")
        return out

    # (function, draws, fewest draws it accepts, check, leading arguments)
    calls = [
        ("efron_stein_check", draws, 1000, _holds_check, (median1, g1, 101)),
        ("hcr_check", draws, 1000, _holds_check, (median1, 0.0, 1.0 / math.sqrt(101), 101)),
        ("cramer_rao_check", draws, 1000, cramer_rao, (mean1, 0.0, n_cr)),
        ("gaussian_lr_identity_check", draws, draws,
         lambda r: _finite_problems(r.lhs) + _near("E[LR LR]", r.lhs, 1.0, r.mc_stderr),
         ([1.0, 0.0], [0.0, 1.0])),
        ("hypergeom_mgf_check", draws, 1000,
         lambda r: _holds_check(r) + _near("overlap MGF", r.lhs, mgf, r.mc_stderr),
         (n_h, k_h, lam_h)),
        ("chi2_products_mc", 10 * draws, 1000,
         lambda r: _finite_problems(*r) + _near("chi^2", r[0], math.expm1(n_p * delta_p ** 2), r[1]),
         (delta_p, n_p)),
        ("chi2_localshift_mc", draws, 1000, chi2_localshift, (k_l, n_l, delta_l)),
        ("uniform_spacing_check", draws, 1000, spacing, (9, 5)),
    ]

    def suite(full: bool):
        # Looked up in senslab at each call, so the tracer's wrappers are seen.
        def run(s: int) -> list:
            return [getattr(sl, fn)(*args, size if full else fewest, sl.RngStream(s, i))
                    for i, (fn, size, fewest, _, args) in enumerate(calls, 1)] + [_point_masses()]
        return run

    def check(results: list, s: int) -> list[str]:
        out = [f"{fn}: {problem}" for (fn, _, _, problems, _), r in zip(calls, results)
               for problem in problems(r)]
        return out + _point_mass_problems(results[-1])

    total_draws = sum(size for _, size, *_ in calls)
    return [JobKind("analysis/checkers", suite(True), suite(False), repr,
                    lambda r: total_draws, check)]


WORKLOAD_JOBS: dict[str, Callable[[int], list[JobKind]]] = {
    "mc-light": mc_light,
    "mc-heavy": mc_heavy,
    "exact": exact,
    "analysis": analysis_jobs,
}

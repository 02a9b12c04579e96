"""Monte Carlo estimation of distributional empirical sensitivity.

``estimate_es`` samples clean datasets, lets an adversary corrupt them, and
aggregates the per-trial displacements into an L^q estimate with a
confidence interval. Unless the adversary is exact ("median-exact",
"hamming-ball"), each trial's displacement is a pointwise lower bound on the
true sup, so the report is flagged ``lower_bound_only``.

Reproducibility contract: trial t always consumes streams (seed, 2t) for the
clean data and (seed, 2t + 1) for the adversary, and per-trial values are
stored by index before a fixed-order reduction. Reports are therefore
byte-identical across reruns regardless of the worker count.

Every trial runs in one chunked engine: each trial's streams fill its rows
of (T, n, d) stacks and the estimator runs once per stack. One table maps
each adversary name to what it accepts and to its chunk step, which returns
clean and corrupted stacks drawn with the same body as the public adversary
(an exact one's achieving datasets); only a Hamming ball that is not a layer
estimator's is still built one trial at a time. Every adversary then takes
one pair path: finite checks, the Hamming distance recomputed over every row
of both stacks, the estimator on both stacks. The values are the same, bit
for bit, as one trial at a time.

The three obstruction experiments mirror the mechanisms that force
sensitivity onto any accurate estimator: a local mean shift that the
estimator cannot distinguish from a true parameter shift, a TV-coupling
bridge between nearby means, and block resampling that converts clean output
variance into displacement. ``verify_suite`` drives every analysis checker
over its documented grid and returns a pass/fail table.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from . import analysis
from .adversaries import (_block_stack, _layer_ball, _layer_ball_stack, _median_push_admissible,
                          _median_push_stack, _resample_stack, _shift_stack, block_layout,
                          couple_gaussian_pair, hamming_ball_sup)
# Names not called here stay imported: bench/tracing.py wraps these bindings.
from .adversaries import (  # noqa: F401
    local_shift_adversary, median_worst_case, resampling_adversary, tv_coupling_adversary)
from .bernoulli import BernoulliModel, beta_binomial_layer_law
from .core import (  # noqa: F401
    CorruptionBudget,
    Dataset,
    GaussianModel,
    RngStream,
    _check_finite,
    _rekey,
    standard_normal,
    uniform_open,
)
from .estimators import (Estimator, _median_stack, build_estimator, mean_estimator,
                         median_estimator)

__all__ = [
    "SCHEMA",
    "ADVERSARY_NAMES",
    "EXACT_ADVERSARIES",
    "UnboundedSensitivityError",
    "SensitivityReport",
    "ScalingFit",
    "MeanObstructionReport",
    "CouplingObstructionReport",
    "VarianceObstructionReport",
    "VerifyRow",
    "estimate_es",
    "scaling_sweep",
    "mean_obstruction_low",
    "coupling_obstruction_high",
    "variance_obstruction",
    "verify_suite",
    "all_pass",
    "format_verify_table",
]

SCHEMA = "senslab/v1"

CSV_COLUMNS = ("eta", "n", "d", "k", "estimator", "adversary", "q",
               "es_estimate", "ci_low", "ci_high", "lower_bound_only", "trials", "seed")


class UnboundedSensitivityError(RuntimeError):
    """A finite sensitivity number would be a lie for this request.

    The adaptive worst case of the unclipped mean is infinite: replacing a
    single row by rows of magnitude M moves the mean by Theta(M/n). The
    harness reports this as a structured diagnostic instead of a number.
    """

    def __init__(self, estimator: str, adversary: str, reason: str):
        self.estimator = estimator
        self.adversary = adversary
        self.reason = reason
        super().__init__(f"unbounded sensitivity for ({estimator}, {adversary}): {reason}")

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "unbounded-sensitivity",
            "estimator": self.estimator,
            "adversary": self.adversary,
            "reason": self.reason,
        }


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """L^q sensitivity estimate with its full experiment configuration."""

    estimator: str
    adversary: str
    n: int
    d: int
    eta: float
    k: int
    q: int
    trials: int
    seed: int
    delta: float | None
    es_estimate: float
    ci_low: float
    ci_high: float
    lower_bound_only: bool
    per_trial: np.ndarray

    def to_json_dict(self, include_trials: bool = False) -> dict:
        out = {"schema": SCHEMA, "kind": "sensitivity-report"}
        out.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "per_trial")
        if include_trials:
            out["per_trial"] = [float(v) for v in self.per_trial]
        return out

    def to_json(self, include_trials: bool = False) -> str:
        return _dump_json(self.to_json_dict(include_trials))

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)

    def csv_row(self) -> str:
        # csv.QUOTE_MINIMAL quotes a cell only when it holds a comma, a quote
        # or a line break, so an estimator name with one reads back whole.
        row = io.StringIO()
        csv.writer(row, lineterminator="").writerow(_csv_cell(getattr(self, c))
                                                    for c in CSV_COLUMNS)
        return row.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


# Bytes per trial-stacked buffer of a chunk, and the most trials in one chunk.
_CHUNK_BYTES = 1 << 19
_CHUNK_TRIALS = 256


class _TrialStreams:
    """The contract streams of trial t, (seed, 2t) and (seed, 2t + 1).

    One Philox generator per role is re-keyed for every trial, which draws
    the same bytes as ``RngStream(seed, 2t[+1]).generator()``. Each thread
    owns its own instance.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._data = np.random.Generator(np.random.Philox(0))
        self._adversary = np.random.Generator(np.random.Philox(0))

    def data(self, t: int) -> np.random.Generator:
        return _rekey(self._data, self.seed, 2 * t)

    def adversary(self, t: int) -> np.random.Generator:
        return _rekey(self._adversary, self.seed, 2 * t + 1)


def _run_chunked(trials: int, seed: int, workers: int, trial_bytes: int,
                 run_chunk: Callable[[_TrialStreams, int, int], None]) -> None:
    """Call ``run_chunk(streams, lo, hi)`` over contiguous chunks of [0, trials).

    A chunk holds at most 256 trials and at most 512 KiB per trial-stacked
    buffer of ``trial_bytes`` per trial. With workers > 1 the chunks are split
    into contiguous shards, one thread and one ``_TrialStreams`` each.
    ``run_chunk`` stores its results by trial index, so the reduction that
    follows sees them in a fixed order.
    """
    RngStream(seed, 2 * trials - 1)  # the largest key: out-of-range seeds raise here
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    size = max(1, min(_CHUNK_TRIALS, _CHUNK_BYTES // trial_bytes))
    chunks = [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]

    def shard(part):
        streams = _TrialStreams(seed)
        for lo, hi in part:
            run_chunk(streams, lo, hi)

    if workers == 1:
        shard(chunks)
        return
    per = -(-len(chunks) // workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(shard, [chunks[i:i + per] for i in range(0, len(chunks), per)]))


@dataclass(frozen=True)
class _Job:
    """The inputs of a trial step. With a ``prior``, trial t first draws a mean
    mu' uniformly from it and its clean rows are N(mu', 1)."""

    model: GaussianModel | BernoulliModel
    budget: CorruptionBudget
    est: Estimator | None = None
    delta: float | None = None
    prior: tuple[float, float] | None = None


def _clean_stack(job: _Job, streams: _TrialStreams, lo: int, hi: int) -> np.ndarray:
    clean = np.empty((hi - lo, job.budget.n, job.model.d))
    shift = np.empty((hi - lo, 1, 1))
    for i, t in enumerate(range(lo, hi)):
        gen = streams.data(t)
        if job.prior is not None:
            shift[i] = _uniform_scalar(gen, *job.prior)
        gen.random(out=clean[i])
    job.model.from_random(clean)
    if job.prior is not None:
        # The model's mean is 0 and no normal is -0.0: the bytes of adding mu'.
        clean += shift
    return clean


def _resample_pairs(job: _Job, streams: _TrialStreams, lo: int, hi: int):
    clean = _clean_stack(job, streams, lo, hi)
    gens = map(streams.adversary, range(lo, hi))
    return clean, _resample_stack(clean, job.budget, job.model, gens)


def _local_shift_pairs(job: _Job, streams: _TrialStreams, lo: int, hi: int):
    clean = _clean_stack(job, streams, lo, hi)
    gens = map(streams.adversary, range(lo, hi))
    return clean, _shift_stack(clean, job.budget, job.delta, gens)


def _block_pairs(job: _Job, streams: _TrialStreams, lo: int, hi: int):
    clean = _clean_stack(job, streams, lo, hi)
    layout = block_layout(job.budget.n, job.budget.k)
    blocks = [layout[t % len(layout)] for t in range(lo, hi)]
    gens = map(streams.adversary, range(lo, hi))
    return clean, _block_stack(clean, job.model, blocks, gens)


def _coupling_pairs(job: _Job, streams: _TrialStreams, lo: int, hi: int):
    eta, n = job.budget.eta, job.budget.n
    clean, corrupted = np.empty((2, hi - lo, n, 1))
    for i, t in enumerate(range(lo, hi)):
        gen = streams.data(t)
        mu = float(job.model.mu[0]) if job.prior is None else _uniform_scalar(gen, *job.prior)
        clean[i, :, 0], corrupted[i, :, 0] = couple_gaussian_pair(gen, mu, eta, n)
    return clean, corrupted


def _median_pairs(job: _Job, streams: _TrialStreams, lo: int, hi: int):
    """Each trial's achieving dataset from one push pass over the chunk, the
    body ``median_worst_case`` runs on a one-trial stack."""
    clean = _clean_stack(job, streams, lo, hi)
    return clean, _median_push_stack(clean, job.budget.k)[0]


def _ball_pairs(job: _Job, streams: _TrialStreams, lo: int, hi: int):
    """A layer estimator's achieving datasets come from one layer pass over
    the chunk, the body ``hamming_ball_sup`` runs on a one-trial stack; any
    other ball's (see ``_layer_ball``) from ``hamming_ball_sup``, trial by
    trial, called through this module's binding, which bench/tracing.py
    wraps."""
    clean = _clean_stack(job, streams, lo, hi)
    if _layer_ball(job.est, job.budget.n, job.budget.k):
        return clean, _layer_ball_stack(clean, job.est.stack_fn, job.budget.k)
    return clean, np.stack([hamming_ball_sup(job.est, Dataset(x), job.budget).corrupted.samples
                            for x in clean])


def _hamming_stack(clean: np.ndarray, corrupted: np.ndarray) -> np.ndarray:
    """The Hamming distance of each trial of two (T, n, d) stacks: the number
    of rows that differ under ``!=`` (so 0.0 equals -0.0) in some coordinate.

    Every entry of both stacks is compared. A row's d comparison bytes are
    read as the widest unsigned words that tile them; when that takes at most
    8 words (every d <= 8, d = 16, 64, ...), the word columns are OR-ed
    together in at most 7 passes over the chunk, because an ``any`` over a
    short innermost axis costs about 30 ns per row (at d = 16 and 4000 rows,
    145 µs against 38 µs). Other rows keep ``any``.
    """
    unequal = np.not_equal(corrupted, clean, order="C")
    d = unequal.shape[2]
    size = math.gcd(d, 8)
    if d // size > 8:
        return np.count_nonzero(unequal.any(axis=2), axis=1)
    words = unequal.view(bool if size == 1 else f"u{size}")
    changed = words[:, :, 0]
    for j in range(1, words.shape[2]):
        changed = changed | words[:, :, j]
    return np.count_nonzero(changed, axis=1)


def _require_trials(trials: int, fewest: int = 2) -> None:
    # Two trials at least: a stderr is std(ddof=1), NaN for one value.
    if trials < fewest:
        raise ValueError(f"need trials >= {fewest}, got {trials}")


def _run_pairs(job: _Job, pairs: Callable, trials: int, seed: int, workers: int = 1):
    """f(corrupted) - f(clean) of every trial, and whether its recomputed
    Hamming distance is at most k. Both stacks must be finite."""
    diff = np.empty((trials, job.est.output_dim))
    feasible = np.empty(trials, dtype=bool)

    def run_chunk(streams: _TrialStreams, lo: int, hi: int) -> None:
        clean, corrupted = pairs(job, streams, lo, hi)
        _check_finite(clean)
        _check_finite(corrupted)
        feasible[lo:hi] = _hamming_stack(clean, corrupted) <= job.budget.k
        diff[lo:hi] = job.est.on_stack(corrupted) - job.est.on_stack(clean)

    _run_chunked(trials, seed, workers, job.budget.n * job.model.d * 8, run_chunk)
    return diff, feasible


def _median_only(est: Estimator, budget: CorruptionBudget) -> None:
    # The pushed dataset attains the sup only for an estimator that computes
    # _median_stack, whatever its name, and only while k <= m - 1.
    if est.linear_in_data and not est.binary_domain:
        raise UnboundedSensitivityError(
            est.name, "median-exact",
            "the adaptive sup of the unclipped mean is infinite: one replaced row "
            "of magnitude M displaces the mean by M/n, unbounded as M grows",
        )
    if est.stack_fn is not _median_stack:
        raise ValueError("median-exact certificates apply to the median only")
    _median_push_admissible(budget, "median-exact")


@dataclass(frozen=True)
class _Adversary:
    """One adversary of ``estimate_es``. ``step(job, streams, lo, hi)`` returns
    the clean and corrupted stacks of trials lo..hi-1, drawn by the body the
    public adversary also runs. ``exact`` marks a corruption that attains the
    sup, so the report is not ``lower_bound_only``. ``check(est, budget)`` may reject."""

    step: Callable
    models: tuple[type, ...] = (GaussianModel, BernoulliModel)
    exact: bool = False
    needs_delta: bool = False
    scalar_only: bool = False
    nonempty: bool = False
    binary_only: bool = False
    check: Callable[[Estimator, CorruptionBudget], None] = lambda est, budget: None


_ADVERSARIES = {
    "resample": _Adversary(_resample_pairs),
    "local-shift": _Adversary(_local_shift_pairs, needs_delta=True, scalar_only=True,
                              nonempty=True),
    "tv-coupling": _Adversary(_coupling_pairs, (GaussianModel,), scalar_only=True),
    "block-resample": _Adversary(_block_pairs, nonempty=True),
    "median-exact": _Adversary(_median_pairs, exact=True, scalar_only=True, check=_median_only),
    "hamming-ball": _Adversary(_ball_pairs, (BernoulliModel,), exact=True, binary_only=True),
}
ADVERSARY_NAMES = tuple(_ADVERSARIES)
# Adversaries whose corruption attains the exact pointwise sensitivity.
EXACT_ADVERSARIES = frozenset(name for name, spec in _ADVERSARIES.items() if spec.exact)


def _resolve_estimator(estimator: Estimator | str, d: int, seed: int) -> Estimator:
    if isinstance(estimator, str):
        return build_estimator(estimator, d=d, seed=seed)
    return estimator


def _gaussian_point(estimator: Estimator | str, d: int, mu: Sequence[float],
                    seed: int) -> tuple[Estimator | str, GaussianModel]:
    """The estimator and clean-data model of a Gaussian request at dimension d.

    ``mu`` has d entries, or one that is broadcast. A ``projected:<inner>``
    estimator lifts scalar samples into R^d itself, so it is built at d and
    its clean data stay scalar, N(mu[0], 1).
    """
    mu = [float(v) for v in mu]
    if len(mu) == 1:
        mu = mu * d
    if len(mu) != d:
        raise ValueError(f"mu has {len(mu)} entries but d is {d}")
    if isinstance(estimator, str) and estimator.startswith("projected:"):
        return build_estimator(estimator, d=d, seed=seed), GaussianModel(mu[:1])
    return estimator, GaussianModel(mu)


def _validate_combo(est: Estimator, adversary: str, model, budget: CorruptionBudget,
                    delta) -> _Adversary:
    """The table entry of ``adversary``, once the request is one it can run."""
    spec = _ADVERSARIES.get(adversary)
    if spec is None:
        raise ValueError(f"unknown adversary {adversary!r}; known: {', '.join(ADVERSARY_NAMES)}")
    spec.check(est, budget)
    if spec.binary_only and not est.binary_domain:
        raise ValueError(f"{adversary} enumerates binary corruptions; use a "
                         "binary-domain estimator such as bernoulli-plugin")
    if not isinstance(model, spec.models):
        names = " or ".join(m.__name__ for m in spec.models)
        raise ValueError(f"{adversary} requires a {names} for the clean data")
    if spec.needs_delta and delta is None:
        raise ValueError(f"{adversary} requires delta")
    if spec.scalar_only and model.d != 1:
        raise ValueError(f"{adversary} requires scalar (d = 1) data")
    return spec


def estimate_es(
    estimator: Estimator | str,
    adversary: str,
    model,
    *,
    eta: float,
    n: int,
    q: int = 2,
    trials: int = 10_000,
    seed: int = 0,
    delta: float | None = None,
    workers: int = 1,
) -> SensitivityReport:
    """Monte Carlo estimate of the L^q distributional empirical sensitivity.

    Per trial t: sample a clean dataset from the model with stream (seed, 2t),
    corrupt it with stream (seed, 2t + 1), and record the displacement
    |f(Y) - f(X)| (exact when the adversary's Y attains the sup). Over-budget
    trials contribute 0, which keeps the estimate a valid lower bound. The
    q-th-moment CI is mean +/- 1.96 stderr mapped through x -> x^{1/q}.
    """
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")
    _require_trials(trials, 100)
    est = _resolve_estimator(estimator, model.d, seed)
    budget = CorruptionBudget.from_eta(eta, n)
    spec = _validate_combo(est, adversary, model, budget, delta)
    if spec.nonempty:
        budget.require_nonempty()
    diff, feasible = _run_pairs(_Job(model, budget, est, delta), spec.step, trials, seed, workers)
    per_trial = np.empty(trials)
    # Row by row: np.linalg.norm of a 1-D vector can differ in the last bit
    # from a vectorised norm(axis=1). This is that norm's own body for a real
    # vector (numpy/linalg/_linalg.py: "sqnorm = x.dot(x)", then
    # "ret = sqrt(sqnorm)"), without its per-call dispatch.
    for t in range(trials):
        row = diff[t]
        per_trial[t] = math.sqrt(row.dot(row)) if feasible[t] else 0.0

    moment, stderr = analysis._mean_se(per_trial if q == 1 else per_trial * per_trial)
    lo = max(moment - 1.96 * stderr, 0.0)
    hi = moment + 1.96 * stderr
    root = 1.0 / q
    per_trial.flags.writeable = False
    return SensitivityReport(
        estimator=est.name,
        adversary=adversary,
        n=budget.n,
        d=model.d,
        eta=float(eta),
        k=budget.k,
        q=q,
        trials=trials,
        seed=seed,
        delta=None if delta is None else float(delta),
        es_estimate=moment ** root,
        ci_low=lo ** root,
        ci_high=hi ** root,
        lower_bound_only=not spec.exact,
        per_trial=per_trial,
    )


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Log-log least-squares fit of sensitivity against one swept variable.

    Only points whose CI half-width is below 10% of the point estimate enter
    the fit; ``used`` records which ones survived.
    """

    variable: str
    values: tuple[float, ...]
    reports: tuple[SensitivityReport, ...]
    used: tuple[bool, ...]
    slope: float
    intercept: float
    r_squared: float

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "scaling-fit",
            "variable": self.variable,
            "values": [float(v) for v in self.values],
            "es_estimates": [r.es_estimate for r in self.reports],
            "ci_lows": [r.ci_low for r in self.reports],
            "ci_highs": [r.ci_high for r in self.reports],
            "used": list(self.used),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
        }

    def to_json(self) -> str:
        return _dump_json(self.to_json_dict())


def scaling_sweep(
    estimator: str,
    adversary: str,
    *,
    variable: str,
    values: Sequence[float],
    eta: float = 0.1,
    n: int = 1000,
    d: int = 1,
    mu: float | Sequence[float] = 0.0,
    q: int = 2,
    trials: int = 10_000,
    seed: int = 0,
    delta: float | None = None,
    workers: int = 1,
) -> ScalingFit:
    """Run ``estimate_es`` over a grid of eta, n, or d and fit a log-log line.

    ``mu`` is one value (broadcast) or a mean vector of d entries. Every
    point's estimator and model come from ``_gaussian_point`` before the
    first trial runs, so a bad ``mu`` fails at once.
    """
    if variable not in ("eta", "n", "d"):
        raise ValueError(f"sweep variable must be eta, n, or d, got {variable!r}")
    values = tuple(float(v) for v in values)
    if len(values) < 4:
        raise ValueError("sweep grid needs at least 4 points")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    if any(v != int(v) for v in (n, d) + (values if variable != "eta" else ())):
        raise ValueError(f"n, d and their sweep values must be integers, got n={n}, d={d}, "
                         f"{variable}={values}")

    mu = np.atleast_1d(mu)
    points = []
    for v in values:
        point = {"eta": eta, "n": n, "d": d}
        point[variable] = v
        points.append((point, *_gaussian_point(estimator, int(point["d"]), mu, seed)))
    reports = [
        estimate_es(est, adversary, model, eta=float(point["eta"]), n=int(point["n"]), q=q,
                    trials=trials, seed=seed, delta=delta, workers=workers)
        for point, est, model in points
    ]

    used = tuple(
        r.es_estimate > 0.0 and (r.ci_high - r.ci_low) / 2.0 < 0.1 * r.es_estimate
        for r in reports
    )
    if sum(used) < 4:
        raise ValueError("fewer than 4 usable points after CI filtering")
    xs = np.log([v for v, u in zip(values, used) if u])
    ys = np.log([r.es_estimate for r, u in zip(reports, used) if u])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(
        variable=variable,
        values=values,
        reports=tuple(reports),
        used=used,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
    )


def _uniform_scalar(gen: np.random.Generator, lo: float, hi: float) -> float:
    return lo + (hi - lo) * float(uniform_open(gen, ()))


def _scalar_job(h: Estimator | str, experiment: str, eta: float, n: int, seed: int,
                prior: tuple[float, float], delta: float | None = None) -> _Job:
    """The job of an obstruction experiment: a scalar estimator, scalar rows."""
    est = _resolve_estimator(h, 1, seed)
    if est.output_dim != 1:
        raise ValueError(f"{experiment} takes a scalar estimator")
    budget = CorruptionBudget.from_eta(eta, n)
    budget.require_nonempty()
    lo, hi = prior
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"prior must be an interval inside [0, 1], got {prior}")
    return _Job(GaussianModel(np.zeros(1)), budget, est, delta, (float(lo), float(hi)))


@dataclass(frozen=True)
class MeanObstructionReport:
    """Low-corruption obstruction: local shift vs the global shift it mimics."""

    eta: float
    delta: float
    n: int
    k: int
    trials: int
    seed: int
    prior: tuple[float, float]
    avg_displacement: float
    stderr: float
    predicted: float
    chi2_budget: float
    regime_ok: bool


def mean_obstruction_low(
    h: Estimator | str,
    *,
    eta: float,
    delta: float,
    n: int,
    prior: tuple[float, float] = (0.1, 0.9),
    trials: int = 10_000,
    seed: int = 0,
) -> MeanObstructionReport:
    """Average displacement of a bounded scalar estimator under the random
    k-subset +delta shift, with the parameter drawn from a flat prior.

    An accurate estimator must track the statistically indistinguishable
    global shift of eta * delta, so the measured average is compared to that
    prediction; the chi^2 budget of the indistinguishability argument is
    reported alongside. Requires the low-corruption regime k <= sqrt(n)
    (violations warn rather than fail).
    """
    _require_trials(trials)
    job = _scalar_job(h, "mean_obstruction_low", eta, n, seed, prior, delta)
    k = job.budget.k
    regime_ok = k <= math.sqrt(n)
    if not regime_ok:
        warnings.warn(f"k = {k} exceeds sqrt(n) = {math.sqrt(n):.2f}; "
                      "outside the low-corruption regime", stacklevel=2)

    avg, stderr = analysis._mean_se(_run_pairs(job, _local_shift_pairs, trials, seed)[0][:, 0])
    return MeanObstructionReport(
        eta=float(eta),
        delta=float(delta),
        n=job.budget.n,
        k=k,
        trials=trials,
        seed=seed,
        prior=job.prior,
        avg_displacement=avg,
        stderr=stderr,
        predicted=float(eta) * float(delta),
        chi2_budget=analysis.chi2_localshift_bound(k, n, delta),
        regime_ok=regime_ok,
    )


@dataclass(frozen=True)
class CouplingObstructionReport:
    """High-corruption obstruction: TV-coupled datasets bridge nearby means."""

    eta: float
    n: int
    k: int
    trials: int
    seed: int
    prior: tuple[float, float]
    avg_displacement_on_feasible: float
    stderr: float
    infeasible_rate: float
    predicted: float
    proof_floor: float


def coupling_obstruction_high(
    h: Estimator | str,
    *,
    eta: float,
    n: int,
    trials: int = 10_000,
    seed: int = 0,
    prior: tuple[float, float] | None = None,
) -> CouplingObstructionReport:
    """Average displacement across maximally coupled samples from N(mu', 1)
    and N(mu' + eta, 1), counted only when the coupling stays within budget.

    The mean response of an accurate estimator moves by about eta between the
    two parameters, and the endpoint-average argument guarantees the measured
    value is at least eta/3 minus the infeasibility rate (``proof_floor``).
    """
    _require_trials(trials)
    if not (0.0 < eta <= 0.1):
        raise ValueError(f"coupling obstruction requires eta in (0, 1/10], got {eta}")
    job = _scalar_job(h, "coupling_obstruction_high", eta, n, seed,
                      (0.0, 1.0 - eta) if prior is None else prior)
    diff, feasible = _run_pairs(job, _coupling_pairs, trials, seed)
    avg, stderr = analysis._mean_se(np.where(feasible, diff[:, 0], 0.0))
    rate = (trials - int(np.count_nonzero(feasible))) / trials
    return CouplingObstructionReport(
        eta=float(eta),
        n=job.budget.n,
        k=job.budget.k,
        trials=trials,
        seed=seed,
        prior=job.prior,
        avg_displacement_on_feasible=avg,
        stderr=stderr,
        infeasible_rate=rate,
        predicted=float(eta),
        proof_floor=float(eta) / 3.0 - rate,
    )


@dataclass(frozen=True)
class VarianceObstructionReport:
    """Block resampling converts clean output variance into sensitivity."""

    eta: float
    n: int
    d: int
    k: int
    n_blocks: int
    trials: int
    seed: int
    var_clean: float
    var_clean_stderr: float
    block_gaps: tuple[float, ...]
    max_block_gap: float
    max_block_gap_stderr: float
    efron_stein_lhs: float
    efron_stein_rhs: float
    two_over_m_holds: bool
    implied_es_lb: float


def variance_obstruction(
    f: Estimator | str,
    model: GaussianModel,
    *,
    eta: float,
    n: int,
    trials: int = 10_000,
    seed: int = 0,
) -> VarianceObstructionReport:
    """Estimate the clean output variance, the per-block resampling gaps
    E||f(X) - f(X^(i))||^2, and the implied sensitivity lower bound.

    Over M = ceil(n/k) disjoint blocks the block Efron-Stein inequality gives
    max_i E||f(X) - f(X^(i))||^2 >= (2/M) Var(f(X)); the report checks this
    with Monte Carlo slack and returns sqrt(max gap) as the certified ES_2
    lower bound.
    """
    if not isinstance(model, GaussianModel):
        raise ValueError("variance_obstruction requires a GaussianModel")
    _require_trials(trials)
    est = _resolve_estimator(f, model.d, seed)
    budget = CorruptionBudget.from_eta(eta, n)
    budget.require_nonempty()
    n = budget.n
    job = _Job(model, budget)
    layout = block_layout(n, budget.k)
    m_blocks = len(layout)

    # The blocks are consecutive, so the per-block draws of stream
    # (seed, 2t + 1) fill one (n, d) array of fresh rows in row order.
    outputs = np.empty((trials, est.output_dim))
    gaps = np.empty((trials, m_blocks))

    def run_chunk(streams: _TrialStreams, lo: int, hi: int) -> None:
        clean = _clean_stack(job, streams, lo, hi)
        fresh = np.empty_like(clean)
        for i, t in enumerate(range(lo, hi)):
            streams.adversary(t).random(out=fresh[i])
        model.from_random(fresh)
        fx = est.on_stack(clean)
        outputs[lo:hi] = fx
        for b, fxb in enumerate(analysis._replaced_on_stack(est, clean, fresh, layout)):
            gaps[lo:hi, b] = ((fxb - fx) ** 2).sum(axis=1)

    _run_chunked(trials, seed, 1, n * model.d * 8, run_chunk)

    var_clean, var_se = analysis._variance_with_se(outputs)
    block_means, block_ses = analysis._mean_se(gaps, axis=0)
    top = int(np.argmax(block_means))
    max_gap = float(block_means[top])
    max_gap_se = float(block_ses[top])
    verdict = analysis._mc_verdict((2.0 / m_blocks) * var_clean, max_gap,
                                   math.hypot(2.0 / m_blocks * var_se, max_gap_se), trials)
    return VarianceObstructionReport(
        eta=float(eta),
        n=n,
        d=model.d,
        k=budget.k,
        n_blocks=m_blocks,
        trials=trials,
        seed=seed,
        var_clean=var_clean,
        var_clean_stderr=var_se,
        block_gaps=tuple(float(v) for v in block_means),
        max_block_gap=max_gap,
        max_block_gap_stderr=max_gap_se,
        efron_stein_lhs=var_clean,
        efron_stein_rhs=float(0.5 * block_means.sum()),
        two_over_m_holds=verdict.holds,
        implied_es_lb=math.sqrt(max_gap),
    )


@dataclass(frozen=True)
class VerifyRow:
    name: str
    result: analysis.IneqCheckResult


def all_pass(rows: Iterable[VerifyRow]) -> bool:
    return all(row.result.holds for row in rows)


def format_verify_table(rows: Iterable[VerifyRow]) -> str:
    lines = [f"{'check':<42} {'lhs':>14} {'rhs':>14} {'stderr':>10}  status"]
    for row in rows:
        r = row.result
        se = f"{r.mc_stderr:.3g}" if r.mc_stderr is not None else "-"
        status = "PASS" if r.holds else "FAIL"
        lines.append(f"{row.name:<42} {r.lhs:>14.6g} {r.rhs:>14.6g} {se:>10}  {status}")
    return "\n".join(lines)


def _exact(lhs: float, rhs: float, *, atol: float = 0.0) -> analysis.IneqCheckResult:
    # Closed-form row: equality within atol when atol > 0, else lhs <= rhs.
    holds = abs(lhs - rhs) <= atol if atol > 0.0 else lhs <= rhs
    return analysis.IneqCheckResult(lhs=float(lhs), rhs=float(rhs), holds=holds)


def _constant_estimator(value: float) -> Estimator:
    return Estimator(
        name=f"const({value})",
        output_dim=1,
        stack_fn=lambda stack: np.full((stack.shape[0], 1), value),
    )


def _scaled_mean(factor: float) -> Estimator:
    return Estimator(
        name=f"{factor}x-mean",
        output_dim=1,
        stack_fn=lambda stack: factor * stack.mean(axis=1),
        linear_in_data=True,
    )


def _binomial_pmf_floor(max_n: int = 200) -> float:
    worst = math.inf
    for n in range(1, max_n + 1):
        r = np.arange(n + 1)
        pmf = np.array([analysis.binomial_point_mass(n, int(v)) for v in r])
        worst = min(worst, float((pmf * np.sqrt(r + 1.0)).min()))
    return worst


def _beta_binomial_quadrature(n: int) -> np.ndarray:
    # Imported here: scipy.integrate pulls in scipy.optimize, scipy.linalg and
    # scipy.sparse, which nothing else in the package needs.
    from scipy import integrate

    out = np.empty(n + 1)
    for t in range(n + 1):
        coeff = math.comb(n, t)
        out[t] = integrate.quad(lambda p, t=t: coeff * p ** t * (1 - p) ** (n - t), 0, 1)[0]
    return out


def verify_suite(
    trials_scale: int = 100_000,
    seed: int = 0,
    extra_checks: Sequence[tuple[str, Callable[[RngStream], analysis.IneqCheckResult]]] | None = None,
) -> list[VerifyRow]:
    """Run every inequality checker over its documented grid.

    Monte Carlo rows draw ``trials_scale`` samples, which must be at least
    1000 like every checker's (the likelihood-ratio rows draw at least 1e4;
    the chi-square product oracle 10x, to resolve its 5% tolerance). Rows
    are independently seeded by position, so the table is reproducible for
    a given (trials_scale, seed). ``extra_checks`` lets the
    self-test inject a deliberately failing row.
    """
    t_mc = int(trials_scale)
    if t_mc < analysis._MIN_DRAWS:
        raise ValueError(f"trials_scale must be at least {analysis._MIN_DRAWS}, got {t_mc}")
    rows: list[VerifyRow] = []
    counter = 0

    def stream() -> RngStream:
        nonlocal counter
        counter += 1
        return RngStream(seed, counter)

    def add(name: str, result: analysis.IneqCheckResult) -> None:
        rows.append(VerifyRow(name, result))

    t_lr = max(t_mc, 10_000)
    gauss1 = GaussianModel(np.zeros(1))
    mean1 = mean_estimator(1)
    median1 = median_estimator(1)

    # Efron-Stein: linear statistic saturates the inequality, the median obeys it.
    add("efron-stein/mean-n25", analysis.efron_stein_check(mean1, gauss1, 25, t_mc, stream()))
    add("efron-stein/median-n101", analysis.efron_stein_check(median1, gauss1, 101, t_mc, stream()))
    add("efron-stein/constant", analysis.efron_stein_check(_constant_estimator(0.7), gauss1, 10, t_mc, stream()))

    # Variance lower bounds via chi-square (HCR) and Fisher information.
    add("hcr/mean-n25", analysis.hcr_check(mean1, 0.0, 1.0 / math.sqrt(25), 25, t_mc, stream()))
    add("hcr/median-n101", analysis.hcr_check(median1, 0.0, 1.0 / math.sqrt(101), 101, t_mc, stream()))
    add("hcr/constant", analysis.hcr_check(_constant_estimator(0.3), 0.0, 0.2, 25, t_mc, stream()))
    add("cramer-rao/mean-n25", analysis.cramer_rao_check(mean1, 0.0, 25, t_mc, stream()))
    add("cramer-rao/scaled-mean-n25", analysis.cramer_rao_check(_scaled_mean(2.0), 0.0, 25, t_mc, stream()))
    add("cramer-rao/constant", analysis.cramer_rao_check(_constant_estimator(0.3), 0.0, 25, t_mc, stream()))

    # Gaussian likelihood-ratio product identity.
    add("gaussian-lr/orthogonal", analysis.gaussian_lr_identity_check([1.0, 0.0], [0.0, 1.0], t_lr, stream()))
    add("gaussian-lr/aligned", analysis.gaussian_lr_identity_check([1.0], [1.0], t_lr, stream()))
    add("gaussian-lr/opposite", analysis.gaussian_lr_identity_check([1.0], [-1.0], t_lr, stream()))

    # Overlap MGF of two independent random k-subsets.
    add("hypergeom-mgf/lambda-zero", analysis.hypergeom_mgf_check(100, 10, 0.0, t_mc, stream()))
    add("hypergeom-mgf/n100-k10", analysis.hypergeom_mgf_check(100, 10, 1.0, t_mc, stream()))
    add("hypergeom-mgf/degenerate-n-equals-k", analysis.hypergeom_mgf_check(10, 10, 1.0, t_mc, stream()))

    # chi-square closed forms against likelihood-ratio simulation.
    add("chi2-products/zero-delta", _exact(analysis.chi2_gaussian_products(0.0, 100), 0.0, atol=1e-15))
    closed = analysis.chi2_gaussian_products(0.1, 100)
    mc, se = analysis.chi2_products_mc(0.1, 100, 10 * t_mc, stream())
    add("chi2-products/e-minus-1-mc",
        analysis._mc_verdict(mc, closed, se, 10 * t_mc, floor=0.05 * closed, two_sided=True))
    add("chi2-localshift/zero-delta", _exact(analysis.chi2_localshift_bound(10, 100, 0.0), 0.0, atol=1e-15))
    grid_k = [analysis.chi2_localshift_bound(k, 100, 0.5) for k in (1, 5, 20, 60, 100)]
    grid_d = [analysis.chi2_localshift_bound(10, 100, dl) for dl in (0.0, 0.3, 0.8, 1.5)]
    worst_step = max(max(a - b for a, b in zip(grid_k, grid_k[1:])),
                     max(a - b for a, b in zip(grid_d, grid_d[1:])))
    add("chi2-localshift/monotone", _exact(worst_step, 0.0))
    for label, (k_, n_, d_) in (("k3-n50", (3, 50, 0.5)), ("k5-n100", (5, 100, 0.8))):
        bound = analysis.chi2_localshift_bound(k_, n_, d_)
        mc, se = analysis.chi2_localshift_mc(k_, n_, d_, t_mc, stream())
        add(f"chi2-localshift/mc-{label}", analysis._mc_verdict(mc, bound, se, t_mc))

    # TV of a Gaussian mean shift: below eta, increasing, tending to 1.
    grid = [1e-3, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0]
    tv = [analysis.tv_gaussian_shift(e) for e in grid]
    add("tv/strictly-below-eta", _exact(max(t - e for t, e in zip(tv, grid)), 0.0))
    add("tv/strictly-increasing", _exact(max(a - b for a, b in zip(tv, tv[1:])), 0.0))
    add("tv/limit-one", _exact(1.0 - analysis.tv_gaussian_shift(50.0), 1e-6))

    # Chernoff bounds against exact binomial tails.
    add("chernoff/n100-p001-t10", _exact(analysis.binomial_tail(100, 0.01, 10),
                                         analysis.chernoff_tail_bound(100, 0.01, 10)))
    add("chernoff/vacuous", _exact(analysis.binomial_tail(100, 0.5, 10),
                                   analysis.chernoff_tail_bound(100, 0.5, 10)))
    p_couple = analysis.tv_gaussian_shift(0.1)
    add("chernoff/coupling-sharp", _exact(analysis.binomial_tail(2000, p_couple, 200),
                                          analysis.chernoff_tail_bound(2000, p_couple, 200, sharp=True)))

    # Binomial point masses: frozen exact values plus the measured floor of
    # pmf * sqrt(r+1) over the desk-scale grid (a measured value, no provenance).
    add("binomial-point-mass/r-zero", _exact(analysis.binomial_point_mass(7, 0), 1.0, atol=1e-12))
    add("binomial-point-mass/n4-r2", _exact(analysis.binomial_point_mass(4, 2), 0.375, atol=1e-12))
    add("binomial-point-mass/n9-r3", _exact(analysis.binomial_point_mass(9, 3), 5376.0 / 19683.0, atol=1e-12))
    add("binomial-point-mass/floor-0.24", _exact(0.24, _binomial_pmf_floor(200)))

    # Uniform spacing moments (Beta(1, n) marginals).
    add("uniform-spacing/n1", analysis.uniform_spacing_check(1, 1, t_mc, stream()))
    add("uniform-spacing/n9-i5", analysis.uniform_spacing_check(9, 5, t_mc, stream()))

    # Flat layer law of the uniform Bernoulli mixture.
    law3 = beta_binomial_layer_law(3)
    add("beta-binomial/n3", _exact(float(np.abs(law3 - 0.25).max()), 1e-12))
    law10 = beta_binomial_layer_law(10)
    add("beta-binomial/n10-quadrature", _exact(float(np.abs(law10 - _beta_binomial_quadrature(10)).max()), 1e-10))
    add("beta-binomial/sums-to-one", _exact(abs(float(law10.sum()) - 1.0), 1e-12))

    if extra_checks:
        for name, fn in extra_checks:
            add(name, fn(stream()))
    return rows

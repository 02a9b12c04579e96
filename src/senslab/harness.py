"""Monte Carlo estimation of distributional empirical sensitivity.

``estimate_es`` samples clean datasets, lets an adversary corrupt them, and
aggregates the per-trial displacements into an L^q estimate with a
confidence interval. Unless the adversary is exact ("median-exact",
"hamming-ball"), each trial's displacement is a pointwise lower bound on the
true sup, so the report is flagged ``lower_bound_only``.

Reproducibility contract: trial t always draws its clean data from stream
(seed, 2t) and its adversary from (seed, 2t + 1), except tv-coupling, which
draws its coupled pair from (seed, 2t) alone. ``_stream_ids`` spells these
ids and ``_trial_streams`` hands the streams out by re-keying each thread's
one generator; per-trial values are stored by index before a fixed-order
reduction. Reports are therefore byte-identical across reruns regardless of
the worker count.

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
import itertools
import math
import os
import queue
import threading
import warnings
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from . import analysis
from .adversaries import (_block_stack, _layer_ball_stack, _layer_path, _median_push_admissible,
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
    _BELOW_ONE,
    _Rekeyer,
    _check_finite,
    _count,
    _hamming_stack,
    _require_finite,
    _require_scalar_rows,
    standard_normal,
)
from .estimators import (Estimator, _median_stack, _require_scalar, build_estimator,
                         mean_estimator, median_estimator)

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
        return _record("unbounded-sensitivity", estimator=self.estimator,
                       adversary=self.adversary, reason=self.reason)


def _record(kind: str, **fields) -> dict:
    """A JSON record of the package: its schema, its kind, then ``fields``."""
    return {"schema": SCHEMA, "kind": kind, **fields}


def _dump_json(obj, _newline: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte:
    the one place the package forms JSON.

    ``json.dumps`` runs its pure-Python encoder whenever it indents; this one
    writes the same text with fewer calls. A float is spelled by
    ``float.__repr__``, and NaN and ±Infinity as json spells them; an int by
    ``int.__repr__``, once it is not a bool; a string or key by json's own
    ``encode_basestring_ascii``. A tuple is written as a list. A list of
    floats is joined in one pass, one item per line, unless its text holds
    an "n", which only nan and inf put there. A key that is not a string, or
    any other value, raises ``TypeError``. ``_newline`` is the line break and
    indent of the level ``obj`` sits at.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    inner = _newline + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(key) + ": " + _dump_json(obj[key], inner)
                 for key in sorted(obj))
        return "{" + inner + sep.join(items) + _newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            text = sep.join(map(float.__repr__, obj))
        except TypeError:  # an item that is not a float
            text = None
        if text is None or "n" in text:
            text = sep.join(_dump_json(item, inner) for item in obj)
        return "[" + inner + text + _newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


class _Report:
    """A report dataclass, written as one JSON record (``_record``) of kind
    ``_KIND``: one walk over its fields, each under its own name.

    A report that writes a field otherwise overrides ``_json_fields``, whose
    keywords are the ``options`` of ``to_json_dict`` and ``to_json``.
    """

    _KIND: ClassVar[str]

    def _json_fields(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json_dict(self, **options) -> dict:
        return _record(self._KIND, **self._json_fields(**options))

    def to_json(self, **options) -> str:
        return _dump_json(self.to_json_dict(**options))


@dataclass(frozen=True, eq=False)
class SensitivityReport(_Report):
    """L^q sensitivity estimate with its full experiment configuration."""

    _KIND = "sensitivity-report"

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

    def _json_fields(self, include_trials: bool = False) -> dict:
        # The per-trial values are written only when asked for.
        out = super()._json_fields()
        del out["per_trial"]
        if include_trials:
            out["per_trial"] = self.per_trial.tolist()
        return out

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
    # A float is spelled as _dump_json spells it, a numpy float64 included.
    if isinstance(value, bool):
        return "true" if value else "false"
    return float.__repr__(value) if isinstance(value, float) else str(value)


# Bytes per trial-stacked buffer of a chunk, and the most trials in one chunk.
# Without the trial cap, chunks sized by bytes alone ran 8% slower on resample
# at n = 50 and 6% slower on median-exact at n = 101 (10,000 trials each).
_CHUNK_BYTES = 1 << 19
_CHUNK_TRIALS = 256
# Fewest trials of an obstruction experiment: a stderr is std(ddof=1), NaN for one.
_FEWEST_TRIALS = 2


# Each thread's one trial generator, built at its first trial (``_trial_streams``).
_THREAD = threading.local()


def _stream_ids(role: int, lo: int, hi: int) -> range:
    """The stream id 2t + role of each trial t = lo..hi-1, in order: role 0
    is the trial's clean data, role 1 its adversary. This is the one spelling
    of the stream contract."""
    return range(2 * lo + role, 2 * hi, 2)


def _trial_streams(job: _Job, role: int, lo: int, hi: int):
    """Stream (seed, 2t + role) of each trial t = lo..hi-1, in order: the job's
    seed keyed by each of ``_stream_ids``.

    Every stream is the calling thread's one Philox generator re-keyed
    (``core._Rekeyer``), which draws the same bytes as
    ``RngStream(seed, 2t + role).generator()`` whatever the thread last read
    from it. So a step must be done with one trial's stream before it asks
    for the next, and no user code, the estimator included, may run while a
    stream is held. Every step keeps both rules, which is why a request nested
    in an estimator may re-key the same generator.
    """
    try:
        rekeyer = _THREAD.rekeyer
    except AttributeError:
        rekeyer = _THREAD.rekeyer = _Rekeyer()
    at, seed = rekeyer.at, job.seed
    return (at(seed, stream_id) for stream_id in _stream_ids(role, lo, hi))


# Fewest entries n * d of one trial's rows at which a job's steps run on
# more than one thread. Below it the GIL-free draw is too short against the
# per-trial ``choice`` and the hand-over: at two threads on 2 cores,
# estimate_es at d = 1 ran 0.78-0.98x up to n = 1000 and 1.02-1.31x at
# n = 2000 (BENCH_worker-rule.json).
_THREADED_MIN_ENTRIES = 2000


def _worker_cap(workers: int | None) -> int:
    """The most threads a job may run on: ``workers``, a count >= 1, or by
    default the CPUs this process may run on."""
    if workers is not None:
        return _count("workers", workers)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class _Helper:
    """A thread that runs ``step(job, lo, hi)`` over its chunks, in order,
    with its own trial generator; the calling thread reads each result with
    ``take``. It starts a chunk only once the previous one has been taken, so
    it is at most one chunk ahead of the calling thread."""

    def __init__(self, job: _Job, step: Callable, chunks: list[tuple[int, int]]):
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._taken = threading.Semaphore(0)
        self._stop = False
        self._thread = threading.Thread(target=self._run, args=(job, step, chunks), daemon=True)
        self._thread.start()

    def _run(self, job: _Job, step: Callable, chunks: list[tuple[int, int]]) -> None:
        for lo, hi in chunks:
            if self._stop:
                break
            try:
                self._done.put((step(job, lo, hi), None))
            except BaseException as exc:  # re-raised on the calling thread by take
                self._done.put((None, exc))
                return
            self._taken.acquire()

    def take(self):
        """The next chunk's result, once the thread has made it."""
        result, exc = self._done.get()
        if exc is not None:
            raise exc
        self._taken.release()
        return result

    def close(self) -> None:
        """Stop after the chunk in hand, and wait for the thread to end."""
        self._stop = True
        self._taken.release()
        self._thread.join()


def _run_chunked(job: _Job, workers: int | None, step: Callable,
                 take: Callable[[int, int, object], None]) -> None:
    """Call ``take(lo, hi, step(job, lo, hi))`` over contiguous chunks of the
    job's trials, in chunk order, on the calling thread.

    A chunk holds at most 256 trials and at most 512 KiB per trial-stacked
    (n, d) buffer. Chunk i's step runs on thread i mod w, thread 0 being the
    calling thread and each other a ``_Helper``; each thread draws from its
    own generator (``_trial_streams``). ``take`` and everything it calls, the
    estimator included, run on the calling thread only. w is the
    ``_worker_cap`` of ``workers`` and at most the chunk count; it is 1 for
    an adversary that holds the GIL for each trial (``_Adversary.one_thread``)
    and for trials of fewer than ``_THREADED_MIN_ENTRIES`` entries. ``take``
    stores its results by trial index, so the reduction that follows sees
    them in a fixed order whatever w is.
    """
    workers = _worker_cap(workers)
    entries = job.budget.n * job.model.d
    size = max(1, min(_CHUNK_TRIALS, _CHUNK_BYTES // (entries * 8)))
    chunks = [(lo, min(lo + size, job.trials)) for lo in range(0, job.trials, size)]
    w = min(workers, len(chunks))
    if job.spec.one_thread or entries < _THREADED_MIN_ENTRIES:
        w = 1
    helpers = [_Helper(job, step, chunks[j::w]) for j in range(1, w)]
    try:
        for i, (lo, hi) in enumerate(chunks):
            j = i % w
            take(lo, hi, step(job, lo, hi) if j == 0 else helpers[j - 1].take())
    finally:
        for helper in helpers:
            helper.close()


@dataclass(frozen=True)
class _Job:
    """One checked request (see ``_request``): everything its trials and its
    report read. ``spec`` is the table entry of ``adversary``. With a
    ``prior``, trial t first draws a mean mu' uniformly from it and its clean
    rows are N(mu', 1)."""

    est: Estimator
    adversary: str
    spec: _Adversary
    model: GaussianModel | BernoulliModel
    budget: CorruptionBudget
    trials: int
    seed: int
    q: int
    delta: float | None
    prior: tuple[float, float] | None


def _report(cls: type, job: _Job, **values):
    """A ``cls`` report of ``job``: each request field that ``cls`` declares,
    read from the job here and nowhere else, then ``values``."""
    request = {"estimator": job.est.name, "adversary": job.adversary, "n": job.budget.n,
               "d": job.model.d, "eta": job.budget.eta, "k": job.budget.k, "q": job.q,
               "trials": job.trials, "seed": job.seed, "delta": job.delta, "prior": job.prior}
    return cls(**{f.name: request[f.name] for f in fields(cls) if f.name in request}, **values)


def _clean_stack(job: _Job, role: int, lo: int, hi: int) -> np.ndarray:
    """Model rows of trials lo..hi-1 from each trial's stream of ``role``
    (``_trial_streams``): 0 for the clean data, 1 for the adversary's."""
    clean = np.empty((hi - lo, job.budget.n, job.model.d))
    shift = np.empty((hi - lo, 1, 1))
    for i, gen in enumerate(_trial_streams(job, role, lo, hi)):
        if job.prior is not None:
            shift[i] = _uniform_scalar(gen, *job.prior)
        gen.random(out=clean[i])
    job.model.from_random(clean)
    if job.prior is not None:
        # The model's mean is 0 and no normal is -0.0: the bytes of adding mu'.
        clean += shift
    return clean


def _resample_pairs(job: _Job, lo: int, hi: int):
    clean = _clean_stack(job, 0, lo, hi)
    gens = _trial_streams(job, 1, lo, hi)
    return clean, _resample_stack(clean, job.budget, job.model, gens)


def _local_shift_pairs(job: _Job, lo: int, hi: int):
    clean = _clean_stack(job, 0, lo, hi)
    gens = _trial_streams(job, 1, lo, hi)
    return clean, _shift_stack(clean, job.budget, job.delta, gens)


def _block_pairs(job: _Job, lo: int, hi: int):
    clean = _clean_stack(job, 0, lo, hi)
    layout = block_layout(job.budget.n, job.budget.k)
    blocks = [layout[t % len(layout)] for t in range(lo, hi)]
    gens = _trial_streams(job, 1, lo, hi)
    return clean, _block_stack(clean, job.model, blocks, gens)


def _coupling_pairs(job: _Job, lo: int, hi: int):
    eta, n = job.budget.eta, job.budget.n
    clean, corrupted = np.empty((2, hi - lo, n, 1))
    for i, gen in enumerate(_trial_streams(job, 0, lo, hi)):
        mu = float(job.model.mu[0]) if job.prior is None else _uniform_scalar(gen, *job.prior)
        clean[i, :, 0], corrupted[i, :, 0] = couple_gaussian_pair(gen, mu, eta, n)
    return clean, corrupted


def _median_pairs(job: _Job, lo: int, hi: int):
    """Each trial's achieving dataset from one push pass over the chunk, the
    body ``median_worst_case`` runs on a one-trial stack."""
    clean = _clean_stack(job, 0, lo, hi)
    return clean, _median_push_stack(clean, job.budget.k)[0]


def _ball_pairs(job: _Job, lo: int, hi: int):
    """A layer estimator's achieving datasets come from one layer pass over
    the chunk, the body ``hamming_ball_sup`` runs on a one-trial stack; any
    other ball's (see ``_layer_path``) from ``hamming_ball_sup``, trial by
    trial, called through this module's binding, which bench/tracing.py
    wraps."""
    clean = _clean_stack(job, 0, lo, hi)
    if _layer_path(job.est, job.budget.n, job.budget.k):
        return clean, _layer_ball_stack(clean, job.est.stack_fn, job.budget.k)
    return clean, np.stack([hamming_ball_sup(job.est, Dataset(x), job.budget).corrupted.samples
                            for x in clean])


def _fresh_pairs(job: _Job, lo: int, hi: int):
    """The clean rows of trials lo..hi-1 and a fresh draw of them from each
    trial's adversary stream, the variance obstruction's step."""
    return _clean_stack(job, 0, lo, hi), _clean_stack(job, 1, lo, hi)


def _run_pairs(job: _Job, workers: int | None = None):
    """f(corrupted) - f(clean) of every trial of the adversary's step, and
    whether its recomputed Hamming distance is at most k. Both stacks must
    be finite. A trial over the budget scores 0, which keeps every average
    of the scores a valid lower bound."""
    diff = np.empty((job.trials, job.est.output_dim))
    feasible = np.empty(job.trials, dtype=bool)

    def take(lo: int, hi: int, pair: tuple[np.ndarray, np.ndarray]) -> None:
        clean, corrupted = pair
        _check_finite(clean)
        _check_finite(corrupted)
        feasible[lo:hi] = _hamming_stack(clean, corrupted) <= job.budget.k
        diff[lo:hi] = job.est.on_stack(corrupted) - job.est.on_stack(clean)

    _run_chunked(job, workers, job.spec.step, take)
    diff[~feasible] = 0.0
    return diff, feasible


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of the (T, d) array ``diff``.

    Each is np.linalg.norm's body for a real vector (numpy/linalg/_linalg.py:
    "sqnorm = x.dot(x)", then "ret = sqrt(sqnorm)"), since a vectorised
    norm(axis=1) can differ from it in the last bit. For d = 1 the dot is the
    one rounded product x * x, so the squares are taken in one pass
    (``test_one_column_norms_are_the_row_dot``); wider rows keep the dot.
    """
    if diff.shape[1] == 1:
        sq = diff[:, 0] * diff[:, 0]
    else:
        sq = np.array([row.dot(row) for row in diff])
    return np.sqrt(sq, out=sq)


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


def _ball_only(est: Estimator, budget: CorruptionBudget) -> None:
    # A ball of binary corruptions, admitted by the guards of the path it takes.
    if not est.binary_domain:
        raise ValueError("hamming-ball enumerates binary corruptions; use a "
                         "binary-domain estimator such as bernoulli-plugin")
    _layer_path(est, budget.n, budget.k)


@dataclass(frozen=True)
class _Adversary:
    """One adversary of ``estimate_es``. ``step(job, lo, hi)`` returns
    the clean and corrupted stacks of trials lo..hi-1, drawn by the body the
    public adversary also runs. ``exact`` marks a corruption that attains the
    sup, so the report is not ``lower_bound_only``. ``off_binary`` marks one
    whose corrupted rows leave {0, 1}, which a binary-domain estimator cannot
    read. ``one_thread`` marks a step that holds the GIL for each trial or
    evaluates the estimator, so it runs on the calling thread only
    (``_run_chunked``). ``check(est, budget)`` may reject."""

    step: Callable
    models: tuple[type, ...] = (GaussianModel, BernoulliModel)
    exact: bool = False
    needs_delta: bool = False
    scalar_only: bool = False
    nonempty: bool = False
    off_binary: bool = False
    one_thread: bool = False
    check: Callable[[Estimator, CorruptionBudget], None] = lambda est, budget: None


_ADVERSARIES = {
    "resample": _Adversary(_resample_pairs),
    "local-shift": _Adversary(_local_shift_pairs, needs_delta=True, scalar_only=True,
                              nonempty=True, off_binary=True),
    # The coupling's rejection rounds hold the GIL: 0.74-1.00x at two threads.
    "tv-coupling": _Adversary(_coupling_pairs, (GaussianModel,), scalar_only=True,
                              one_thread=True),
    "block-resample": _Adversary(_block_pairs, nonempty=True),
    "median-exact": _Adversary(_median_pairs, exact=True, scalar_only=True, check=_median_only),
    # Its step evaluates the estimator, which runs on the calling thread only.
    "hamming-ball": _Adversary(_ball_pairs, (BernoulliModel,), exact=True, one_thread=True,
                               check=_ball_only),
}
ADVERSARY_NAMES = tuple(_ADVERSARIES)
# Adversaries whose corruption attains the exact pointwise sensitivity.
EXACT_ADVERSARIES = frozenset(name for name, spec in _ADVERSARIES.items() if spec.exact)


def _gaussian_point(estimator: str, d: int, mu: float | Sequence[float],
                    seed: int) -> tuple[Estimator, GaussianModel]:
    """The estimator, built at dimension d, and its clean-data model: the
    point of ``senslab sensitivity`` and of each ``scaling_sweep`` value.

    d is a count (``build_estimator`` counts it). ``mu`` is one value, or a
    sequence of d entries or of one that is broadcast. An estimator whose
    output is not d-dimensional (the ``projected:<inner>`` lift) lifts scalar
    samples into R^d itself, so its clean data stay scalar: its ``mu`` has
    one entry.
    """
    est = build_estimator(estimator, d=d, seed=seed)
    mu = [float(v) for v in np.atleast_1d(mu)]
    if est.output_dim != d:
        if len(mu) != 1:
            raise ValueError(f"{estimator} takes scalar clean data, so mu needs one entry, "
                             f"got {len(mu)}")
        return est, GaussianModel(mu)
    if len(mu) == 1:
        mu = mu * est.output_dim
    if len(mu) != est.output_dim:
        raise ValueError(f"mu has {len(mu)} entries but d is {est.output_dim}")
    return est, GaussianModel(mu)


def _require_bernoulli_data(est: Estimator, model) -> None:
    """A binary-domain estimator reads Bernoulli clean data only."""
    if est.binary_domain and not isinstance(model, BernoulliModel):
        raise ValueError(f"{est.name} requires a BernoulliModel for the clean data")


def _request(estimator: Estimator | str, adversary: str, model, *, eta: float, n: int,
             trials: int, seed: int, q: int = 2, delta: float | None = None,
             prior: tuple[float, float] | None = None, fewest: int = 100,
             nonempty: bool = False) -> _Job:
    """The job of a request to ``adversary``, once every check that needs no
    trial has passed: the one validation of ``estimate_es``, each point of
    ``scaling_sweep`` and the three obstruction experiments.

    A request runs at least ``fewest`` trials. ``nonempty`` asks for k >= 1
    whatever the adversary's entry says (the coupling obstruction's budget
    must allow a corruption; ``estimate_es``'s tv-coupling need not). A
    ``prior`` is an interval inside [0, 1]. The seed must key every stream
    of the request's trials.
    """
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")
    trials = _count("trials", trials, fewest)
    est = estimator
    if isinstance(estimator, str):
        est = build_estimator(estimator, d=model.d, seed=seed)
        if est.output_dim != model.d:
            raise ValueError(f"{estimator} takes scalar clean data, but the model has d = "
                             f"{model.d}; to lift to d, pass build_estimator({estimator!r}, "
                             f"d={model.d}) and GaussianModel([mu])")
    budget = CorruptionBudget.from_eta(eta, n)
    spec = _ADVERSARIES.get(adversary)
    if spec is None:
        raise ValueError(f"unknown adversary {adversary!r}; known: {', '.join(ADVERSARY_NAMES)}")
    spec.check(est, budget)
    if not isinstance(model, spec.models):
        names = " or ".join(m.__name__ for m in spec.models)
        raise ValueError(f"{adversary} requires a {names} for the clean data")
    _require_bernoulli_data(est, model)
    if spec.off_binary and est.binary_domain:
        raise ValueError(f"{adversary} moves corrupted rows out of {{0, 1}}, which "
                         f"{est.name} cannot read")
    if spec.needs_delta and delta is None:
        raise ValueError(f"{adversary} requires delta")
    if not spec.needs_delta and delta is not None:
        raise ValueError(f"{adversary} takes no delta, got delta={delta}")
    if delta is not None:
        _require_finite("delta", delta)
        delta = float(delta)
    if spec.scalar_only:
        _require_scalar_rows(model.d, adversary)
    if spec.nonempty or nonempty:
        budget.require_nonempty()
    if prior is not None:
        lo, hi = prior
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"prior must be an interval inside [0, 1], got {prior}")
        prior = (float(lo), float(hi))
    RngStream(seed, _stream_ids(1, 0, trials)[-1])  # the largest key: a bad seed raises here
    return _Job(est, adversary, spec, model, budget, trials, int(seed), int(q), delta, prior)


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
    workers: int | None = None,
) -> SensitivityReport:
    """Monte Carlo estimate of the L^q distributional empirical sensitivity.

    Per trial t: sample a clean dataset from the model with stream (seed, 2t),
    corrupt it with stream (seed, 2t + 1) (tv-coupling draws both from
    (seed, 2t)), and record the displacement
    |f(Y) - f(X)| (exact when the adversary's Y attains the sup). Over-budget
    trials contribute 0, which keeps the estimate a valid lower bound. The
    q-th-moment CI is mean +/- 1.96 stderr mapped through x -> x^{1/q}.
    ``workers`` caps the threads the draws run on (by default, the CPUs the
    process may use; see ``_run_chunked``); it never changes the report.
    """
    return _sensitivity(_request(estimator, adversary, model, eta=eta, n=n, trials=trials,
                                 seed=seed, q=q, delta=delta), workers)


def _sensitivity(job: _Job, workers: int | None) -> SensitivityReport:
    """The report of an ``estimate_es`` job."""
    per_trial = _row_norms(_run_pairs(job, workers)[0])
    moment, stderr = analysis._mean_se(per_trial if job.q == 1 else per_trial * per_trial)
    lo = max(moment - 1.96 * stderr, 0.0)
    hi = moment + 1.96 * stderr
    root = 1.0 / job.q
    per_trial.flags.writeable = False
    return _report(
        SensitivityReport, job,
        es_estimate=moment ** root,
        ci_low=lo ** root,
        ci_high=hi ** root,
        lower_bound_only=not job.spec.exact,
        per_trial=per_trial,
    )


@dataclass(frozen=True)
class _BernoulliExactReport(_Report):
    """The exact q = 1 sensitivity of a ``hamming-ball`` job on Bernoulli(p)
    data (``bernoulli_expected_sensitivity``): ``senslab bernoulli``'s exact
    record."""

    _KIND = "bernoulli-exact"

    estimator: str
    n: int
    eta: float
    k: int
    p: float
    expected_sensitivity: float


@dataclass(frozen=True, eq=False)
class ScalingFit(_Report):
    """Log-log least-squares fit of sensitivity against one swept variable.

    Only points whose CI half-width is below 10% of the point estimate enter
    the fit; ``used`` records which ones survived.
    """

    _KIND = "scaling-fit"

    variable: str
    values: tuple[float, ...]
    reports: tuple[SensitivityReport, ...]
    used: tuple[bool, ...]
    slope: float
    intercept: float
    r_squared: float

    def _json_fields(self) -> dict:
        # Each point's report is written as its estimate and CI bounds.
        out = super()._json_fields()
        reports = out.pop("reports")
        out.update(es_estimates=[r.es_estimate for r in reports],
                   ci_lows=[r.ci_low for r in reports], ci_highs=[r.ci_high for r in reports])
        return out


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
    workers: int | None = None,
) -> ScalingFit:
    """Run ``estimate_es`` over a grid of eta, n, or d and fit a log-log line.

    ``mu`` is one value (broadcast) or a mean vector of d entries. Each
    point is a plain request: its estimator and model come from
    ``_gaussian_point`` and its job from ``_request``, which check it, before
    the first trial of any point runs, so a bad request fails at once. A bad
    ``workers`` fails after every point's request is built, before the first
    draw.
    """
    if variable not in ("eta", "n", "d"):
        raise ValueError(f"sweep variable must be eta, n, or d, got {variable!r}")
    values = tuple(float(v) for v in values)
    if len(values) < 4:
        raise ValueError("sweep grid needs at least 4 points")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    jobs = []
    for v in values:
        point = {"eta": eta, "n": n, "d": d, variable: v}
        est, model = _gaussian_point(estimator, point["d"], mu, seed)
        jobs.append(_request(est, adversary, model, eta=point["eta"], n=point["n"],
                             trials=trials, seed=seed, q=q, delta=delta))
    reports = [_sensitivity(job, workers) for job in jobs]

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
    """lo + (hi - lo) u for one ``uniform_open`` variate u, whose add and clamp
    (``core._open_unit``) run here as the same two float operations."""
    return lo + (hi - lo) * min(gen.random() + 2.0 ** -54, _BELOW_ONE)


@dataclass(frozen=True)
class MeanObstructionReport(_Report):
    """Low-corruption obstruction: local shift vs the global shift it mimics."""

    _KIND = "mean-obstruction-low"

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
    job = _request(h, "local-shift", GaussianModel(np.zeros(1)), eta=eta, n=n, trials=trials,
                   seed=seed, delta=delta, prior=prior, fewest=_FEWEST_TRIALS)
    _require_scalar(job.est, "mean_obstruction_low")
    n, k = job.budget.n, job.budget.k
    chi2_budget = analysis.chi2_localshift_bound(k, n, delta)  # checks delta before any trial
    regime_ok = k <= math.sqrt(n)
    if not regime_ok:
        warnings.warn(f"k = {k} exceeds sqrt(n) = {math.sqrt(n):.2f}; "
                      "outside the low-corruption regime", stacklevel=2)

    avg, stderr = analysis._mean_se(_run_pairs(job)[0][:, 0])
    return _report(
        MeanObstructionReport, job,
        avg_displacement=avg,
        stderr=stderr,
        predicted=job.budget.eta * job.delta,
        chi2_budget=chi2_budget,
        regime_ok=regime_ok,
    )


@dataclass(frozen=True)
class CouplingObstructionReport(_Report):
    """High-corruption obstruction: TV-coupled datasets bridge nearby means."""

    _KIND = "coupling-obstruction-high"

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
    if not (0.0 < eta <= 0.1):
        raise ValueError(f"coupling obstruction requires eta in (0, 1/10], got {eta}")
    job = _request(h, "tv-coupling", GaussianModel(np.zeros(1)), eta=eta, n=n, trials=trials,
                   seed=seed, prior=(0.0, 1.0 - eta) if prior is None else prior,
                   fewest=_FEWEST_TRIALS, nonempty=True)
    _require_scalar(job.est, "coupling_obstruction_high")
    diff, feasible = _run_pairs(job)
    avg, stderr = analysis._mean_se(diff[:, 0])
    trials, eta = job.trials, job.budget.eta
    rate = (trials - int(np.count_nonzero(feasible))) / trials
    return _report(
        CouplingObstructionReport, job,
        avg_displacement_on_feasible=avg,
        stderr=stderr,
        infeasible_rate=rate,
        predicted=eta,
        proof_floor=eta / 3.0 - rate,
    )


@dataclass(frozen=True)
class VarianceObstructionReport(_Report):
    """Block resampling converts clean output variance into sensitivity."""

    _KIND = "variance-obstruction"

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
    lower bound. The draws run on the CPUs the process may use
    (``_run_chunked``); the report does not depend on how many.
    """
    if not isinstance(model, GaussianModel):
        raise ValueError("variance_obstruction requires a GaussianModel")
    job = _request(f, "block-resample", model, eta=eta, n=n, trials=trials, seed=seed,
                   fewest=_FEWEST_TRIALS)
    est, trials, n, k = job.est, job.trials, job.budget.n, job.budget.k
    layout = block_layout(n, k)
    m_blocks = len(layout)

    # The blocks are consecutive, so the per-block draws of stream
    # (seed, 2t + 1) fill one (n, d) array of fresh rows in row order.
    outputs = np.empty((trials, est.output_dim))
    gaps = np.empty((trials, m_blocks))

    def take(lo: int, hi: int, stacks: tuple[np.ndarray, np.ndarray]) -> None:
        outputs[lo:hi], block_gaps = analysis._leave_out_gaps(est, *stacks, layout)
        for b, g in enumerate(block_gaps):
            gaps[lo:hi, b] = g

    _run_chunked(job, None, _fresh_pairs, take)

    var_clean, var_se = analysis._variance_with_se(outputs)
    block_means, block_ses = analysis._mean_se(gaps, axis=0)
    top = int(np.argmax(block_means))
    max_gap = float(block_means[top])
    max_gap_se = float(block_ses[top])
    verdict = analysis._mc_verdict((2.0 / m_blocks) * var_clean, max_gap,
                                   math.hypot(2.0 / m_blocks * var_se, max_gap_se), trials)
    return _report(
        VarianceObstructionReport, job,
        n_blocks=m_blocks,
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


def verify_suite(trials_scale: int = 100_000, seed: int = 0) -> list[VerifyRow]:
    """Run every inequality checker over its documented grid.

    Monte Carlo rows draw ``trials_scale`` samples, which must be at least
    1000 like every checker's (the likelihood-ratio rows draw at least 1e4;
    the chi-square product oracle 10x, to resolve its 5% tolerance). Rows
    are independently seeded by position, so the table is reproducible for
    a given (trials_scale, seed).
    """
    t_mc = _count("trials_scale", trials_scale, analysis._MIN_DRAWS)
    rows: list[VerifyRow] = []
    streams = (RngStream(seed, i) for i in itertools.count(1))

    def add(name: str, result: analysis.IneqCheckResult) -> None:
        rows.append(VerifyRow(name, result))

    t_lr = max(t_mc, 10_000)
    gauss1 = GaussianModel(np.zeros(1))
    mean1 = mean_estimator(1)
    median1 = median_estimator(1)

    # Efron-Stein: linear statistic saturates the inequality, the median obeys it.
    add("efron-stein/mean-n25", analysis.efron_stein_check(mean1, gauss1, 25, t_mc, next(streams)))
    add("efron-stein/median-n101", analysis.efron_stein_check(median1, gauss1, 101, t_mc, next(streams)))
    add("efron-stein/constant", analysis.efron_stein_check(_constant_estimator(0.7), gauss1, 10, t_mc, next(streams)))

    # Variance lower bounds via chi-square (HCR) and Fisher information.
    add("hcr/mean-n25", analysis.hcr_check(mean1, 0.0, 1.0 / math.sqrt(25), 25, t_mc, next(streams)))
    add("hcr/median-n101", analysis.hcr_check(median1, 0.0, 1.0 / math.sqrt(101), 101, t_mc, next(streams)))
    add("hcr/constant", analysis.hcr_check(_constant_estimator(0.3), 0.0, 0.2, 25, t_mc, next(streams)))
    add("cramer-rao/mean-n25", analysis.cramer_rao_check(mean1, 0.0, 25, t_mc, next(streams)))
    add("cramer-rao/scaled-mean-n25", analysis.cramer_rao_check(_scaled_mean(2.0), 0.0, 25, t_mc, next(streams)))
    add("cramer-rao/constant", analysis.cramer_rao_check(_constant_estimator(0.3), 0.0, 25, t_mc, next(streams)))

    # Gaussian likelihood-ratio product identity.
    add("gaussian-lr/orthogonal", analysis.gaussian_lr_identity_check([1.0, 0.0], [0.0, 1.0], t_lr, next(streams)))
    add("gaussian-lr/aligned", analysis.gaussian_lr_identity_check([1.0], [1.0], t_lr, next(streams)))
    add("gaussian-lr/opposite", analysis.gaussian_lr_identity_check([1.0], [-1.0], t_lr, next(streams)))

    # Overlap MGF of two independent random k-subsets.
    add("hypergeom-mgf/lambda-zero", analysis.hypergeom_mgf_check(100, 10, 0.0, t_mc, next(streams)))
    add("hypergeom-mgf/n100-k10", analysis.hypergeom_mgf_check(100, 10, 1.0, t_mc, next(streams)))
    add("hypergeom-mgf/degenerate-n-equals-k", analysis.hypergeom_mgf_check(10, 10, 1.0, t_mc, next(streams)))

    # chi-square closed forms against likelihood-ratio simulation.
    add("chi2-products/zero-delta", _exact(analysis.chi2_gaussian_products(0.0, 100), 0.0, atol=1e-15))
    closed = analysis.chi2_gaussian_products(0.1, 100)
    mc, se = analysis.chi2_products_mc(0.1, 100, 10 * t_mc, next(streams))
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
        mc, se = analysis.chi2_localshift_mc(k_, n_, d_, t_mc, next(streams))
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
    add("uniform-spacing/n1", analysis.uniform_spacing_check(1, 1, t_mc, next(streams)))
    add("uniform-spacing/n9-i5", analysis.uniform_spacing_check(9, 5, t_mc, next(streams)))

    # Flat layer law of the uniform Bernoulli mixture.
    law3 = beta_binomial_layer_law(3)
    add("beta-binomial/n3", _exact(float(np.abs(law3 - 0.25).max()), 1e-12))
    law10 = beta_binomial_layer_law(10)
    add("beta-binomial/n10-quadrature", _exact(float(np.abs(law10 - _beta_binomial_quadrature(10)).max()), 1e-10))
    add("beta-binomial/sums-to-one", _exact(abs(float(law10.sum()) - 1.0), 1e-12))
    return rows

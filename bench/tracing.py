"""Spans around the calls into each senslab layer, recorded from outside.

``Tracer.installed()`` replaces the public functions at the module bindings
their callers use (``standard_normal`` as bound in ``core``, ``adversaries``,
``estimators``, ``harness`` and ``analysis``; ``harness.resampling_adversary``;
``Estimator.__call__``; ...) with wrappers, and puts every original back on
exit. A wrapper records a span only while ``Tracer.active`` is set, so the
output checks that run between jobs are not traced.

A span is (job, parent, name, start, end, count, flag). ``count`` is the
work measured at the boundary (variates drawn, rows evaluated, trials run)
and ``flag`` is 1/0 for a feasible/infeasible adversary outcome, -1 when the
span is not an adversary attempt. A span's self time is its duration minus
the durations of its direct children; calls are synchronous on one thread,
so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np

import senslab as sl

COLUMNS = ("job", "parent", "name", "start", "end", "count", "flag")

# Per-layer metrics whose value must repeat exactly for a fixed job list.
COUNT_METRICS = (
    "core.normal.variates",
    "adversaries.coupling.rounds",
    "adversaries.hamming-ball.points",
    "bernoulli.exact.mask_steps",
    "estimators.calls",
    "harness.trials",
    "analysis.binomial_point_mass.calls",
)

# Span name of each analysis checker family, keyed by the public function.
ANALYSIS_FAMILIES = {
    "efron_stein_check": "efron_stein",
    "hcr_check": "hcr",
    "cramer_rao_check": "cramer_rao",
    "gaussian_lr_identity_check": "gaussian_lr",
    "hypergeom_mgf_check": "hypergeom_mgf",
    "chi2_products_mc": "chi2_mc",
    "chi2_localshift_mc": "chi2_mc",
    "uniform_spacing_check": "uniform_spacing",
    "binomial_point_mass": "binomial_point_mass",
}


def _arg(fn, name):
    """Reader of argument ``name`` from a call's (args, kwargs)."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _trials_count(fn):
    trials = _arg(fn, "trials")
    return lambda a, k, r: int(trials(a, k))


def _bindings():
    """(owner, attribute, span name, count(args, kwargs, result), flag(...))."""
    core, est, adv, har = sl.core, sl.estimators, sl.adversaries, sl.harness
    size = lambda a, k, r: int(np.size(r))  # noqa: E731
    outcome = lambda a, k, r: int(r.feasible)  # noqa: E731
    pair_eta, pair_n = _arg(adv.couple_gaussian_pair, "eta"), _arg(adv.couple_gaussian_pair, "n")
    bern_n = _arg(sl.bernoulli_expected_sensitivity, "n")
    bern_budget = _arg(sl.bernoulli_expected_sensitivity, "budget")

    def coupling_feasible(a, k, r):
        # The budget rule coupling_obstruction_high applies to the pair.
        return int(np.count_nonzero(r[0] != r[1]) <= sl.compute_k(pair_eta(a, k), pair_n(a, k)))

    def mask_steps(a, k, r):
        # XOR passes over the 2^n cube: one per nonzero mask of weight <= k.
        n, radius = bern_n(a, k), bern_budget(a, k).k
        return (1 << n) * sum(math.comb(n, j) for j in range(1, min(radius, n) + 1))

    def estimator_span(a, k):
        return "estimators.projected" if a[0].name.startswith("projected:") else "estimators.call"

    out = [
        (core.RngStream, "generator", "core.stream", None, None),
        (core.Dataset, "__post_init__", "core.dataset", None, None),
        (adv, "hamming_distance", "core.hamming", None, None),
        (est.Estimator, "__call__", estimator_span, None, None),
        (est.Estimator, "on_stack", "estimators.stack", lambda a, k, r: int(r.shape[0]), None),
        (har, "resampling_adversary", "adversaries.resample", None, outcome),
        (har, "local_shift_adversary", "adversaries.local-shift", None, outcome),
        (har, "tv_coupling_adversary", "adversaries.tv-coupling", None,
         lambda a, k, r: int(r[1].feasible)),
        (har, "couple_gaussian_pair", "adversaries.coupling", None, coupling_feasible),
        (adv, "couple_gaussian_pair", "adversaries.coupling", None, None),
        (har, "median_worst_case", "adversaries.median-exact", None, outcome),
        (har, "hamming_ball_sup", "adversaries.hamming-ball", None, outcome),
        (sl, "bernoulli_expected_sensitivity", "bernoulli.exact", mask_steps, None),
        (sl, "estimate_es", "harness.estimate_es", _trials_count(sl.estimate_es), None),
        (sl, "mean_obstruction_low", "harness.obstruction",
         _trials_count(sl.mean_obstruction_low), None),
        (sl, "coupling_obstruction_high", "harness.obstruction",
         _trials_count(sl.coupling_obstruction_high), None),
        (sl, "variance_obstruction", "harness.obstruction",
         _trials_count(sl.variance_obstruction), None),
        (sl.SensitivityReport, "to_json", "harness.serialize", None, None),
        (sl.MeanObstructionReport, "__repr__", "harness.serialize", None, None),
        (sl.CouplingObstructionReport, "__repr__", "harness.serialize", None, None),
        (sl.VarianceObstructionReport, "__repr__", "harness.serialize", None, None),
    ]
    out += [(module, "standard_normal", "core.normal", size, None)
            for module in (core, adv, est, har, sl.analysis)]
    # Callers reach the checkers through senslab's top level; the harness
    # reaches binomial_point_mass through the analysis module.
    out += [(sl, fn, f"analysis.{family}", None, None) for fn, family in ANALYSIS_FAMILIES.items()]
    out.append((sl.analysis, "binomial_point_mass", "analysis.binomial_point_mass", None, None))
    return out


class Tracer:
    """In-memory span recorder for one traced pass over a job list."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.rows: list[list] = []
        self._stack = [-1]

    def _wrap(self, fn, span, count, flag):
        rows, stack, clock = self.rows, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = span(args, kwargs) if callable(span) else span
            sid = len(rows)
            row = [self.job, stack[-1], name, clock(), 0.0, 1, -1]
            rows.append(row)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = clock()
                stack.pop()
            if count is not None:
                row[5] = count(args, kwargs, result)
            if flag is not None:
                row[6] = flag(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, span, count, flag in _bindings():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span, count, flag))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        selfs = [row[4] - row[3] for row in self.rows]
        for row in self.rows:
            if row[1] >= 0:
                selfs[row[1]] -= row[4] - row[3]
        return selfs

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate the spans into the per-layer metrics of BENCHMARK.json."""
        selfs = self.self_times()
        calls, self_s, count = defaultdict(int), defaultdict(float), defaultdict(int)
        feasible = attempts = 0
        rounds = ball_points = 0
        for row, own in zip(self.rows, selfs):
            name, parent = row[2], row[1]
            calls[name] += 1
            self_s[name] += own
            count[name] += row[5]
            if row[6] >= 0:
                attempts += 1
                feasible += row[6]
            parent_name = self.rows[parent][2] if parent >= 0 else None
            if name == "core.normal" and parent_name == "adversaries.coupling":
                rounds += 1
            if name == "estimators.stack" and parent_name == "adversaries.hamming-ball":
                ball_points += row[5]
        rounds -= calls["adversaries.coupling"]
        estimator_spans = ("estimators.call", "estimators.stack", "estimators.projected")
        out = {
            "core.stream.calls": calls["core.stream"],
            "core.stream.self_s": self_s["core.stream"],
            "core.normal.calls": calls["core.normal"],
            "core.normal.variates": count["core.normal"],
            "core.normal.self_s": self_s["core.normal"],
            "core.dataset.calls": calls["core.dataset"],
            "core.dataset.self_s": self_s["core.dataset"],
            "core.hamming.self_s": self_s["core.hamming"],
            "estimators.calls": sum(calls[s] for s in estimator_spans),
            "estimators.stack_rows": sum(count[s] for s in estimator_spans),
            "estimators.self_s": self_s["estimators.call"] + self_s["estimators.stack"],
            "estimators.projected.self_s": self_s["estimators.projected"],
        }
        for adversary in ("resample", "local-shift", "median-exact", "hamming-ball"):
            out[f"adversaries.{adversary}.self_s"] = self_s[f"adversaries.{adversary}"]
        out["adversaries.tv-coupling.self_s"] = (self_s["adversaries.tv-coupling"]
                                                 + self_s["adversaries.coupling"])
        out["adversaries.coupling.rounds"] = rounds
        out["adversaries.hamming-ball.points"] = ball_points
        out["adversaries.feasible_ratio"] = feasible / attempts if attempts else 0.0
        out["bernoulli.exact.self_s"] = self_s["bernoulli.exact"]
        out["bernoulli.exact.mask_steps"] = count["bernoulli.exact"]
        out["harness.estimate_es.self_s"] = self_s["harness.estimate_es"]
        out["harness.obstruction.self_s"] = self_s["harness.obstruction"]
        out["harness.serialize_s"] = self_s["harness.serialize"]
        out["harness.trials"] = count["harness.estimate_es"] + count["harness.obstruction"]
        for family in dict.fromkeys(ANALYSIS_FAMILIES.values()):
            out[f"analysis.{family}.self_s"] = self_s[f"analysis.{family}"]
        out["analysis.binomial_point_mass.calls"] = calls["analysis.binomial_point_mass"]
        return out

    def dump(self, path) -> None:
        """Write every span, one row per span, times relative to the first."""
        t0 = self.rows[0][3] if self.rows else 0.0
        rows = [[r[0], r[1], r[2], r[3] - t0, r[4] - t0, r[5], r[6]] for r in self.rows]
        with open(path, "w") as fh:
            json.dump({"columns": COLUMNS, "spans": rows}, fh, separators=(",", ":"))

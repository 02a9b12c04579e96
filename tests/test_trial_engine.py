"""The chunked trial engine against golden reports and the per-trial loops it replaced.

The golden digests were computed from the per-trial implementation before
the engine ran those trials. The reference loops below draw and evaluate one
trial at a time, as that implementation did. They make the resampling,
local-shift and block draws themselves (``choice``, then the fresh rows'
raw uniforms through ``model.from_random``) rather than through the public
adversaries, which share the engine's stacked bodies, so a change to those
bodies' draws fails here. The engine does the same floating-point operations
on the same values, so every comparison is exact (bytes and ``==``), not
approximate.
"""

import dataclasses
import hashlib
import json
import math
import os
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import senslab as sl
from senslab import (
    BernoulliModel,
    CorruptionBudget,
    Dataset,
    GaussianModel,
    RngStream,
    UnboundedSensitivityError,
    analysis,
    block_layout,
    build_estimator,
    couple_gaussian_pair,
    coupling_obstruction_high,
    estimate_es,
    hamming_ball_sup,
    mean_obstruction_low,
    median_worst_case,
    tv_coupling_adversary,
    uniform_open,
    variance_obstruction,
)
from senslab import core, harness
from senslab.core import _Rekeyer, _open_unit


def gauss(d, mu=0.0):
    return GaussianModel(np.full(d, mu))


def text(report) -> str:
    if isinstance(report, sl.SensitivityReport):
        return report.to_json(include_trials=True)
    return repr(report)


GOLDEN = {
    "es/mean/resample/d16": (
        lambda: estimate_es("mean", "resample", gauss(16), eta=0.1, n=400, trials=123, seed=11),
        "0ed1917caef4a6d5b8249cce3159e947ca326fdb9a4c37d9f8afb7091b8b94fa"),
    "es/median/resample/d3": (
        lambda: estimate_es("median", "resample", gauss(3, 0.25), eta=0.1, n=101, trials=100,
                            seed=12),
        "c440760fcb63b7bb8ef412e3ab0e0ba7439df9e2cf0400b73db6c1915f801377"),
    "es/clipped-mean/resample": (
        lambda: estimate_es("clipped-mean", "resample", gauss(1, 0.5), eta=0.05, n=200,
                            trials=100, seed=23),
        "39ee6ebe1c11c3b9733e86b0651fad8823d688f4b3ac71b40bdacd561261e7f6"),
    "es/clipped-mean/local-shift": (
        lambda: estimate_es("clipped-mean", "local-shift", gauss(1, 0.5), eta=0.05, n=400,
                            delta=0.5, trials=257, seed=13),
        "1ebe5ad51643c16415f90171e71cb6572ae7e43f226c3be2bc79f926ee40032d"),
    # 300 trials of 51 scalar rows: a full 256-trial chunk and a short one.
    "es/clipped-median/local-shift/n51": (
        lambda: estimate_es("clipped-median", "local-shift", gauss(1, 0.5), eta=0.1, n=51,
                            delta=0.3, trials=300, seed=22),
        "5fa7b562439211a3b0651202640e71a4fb572a2235133c217e5f326620d10123"),
    # k = 7 at n = 101: fourteen blocks of 7 rows and a last block of 3.
    "es/mean/block-resample/uneven": (
        lambda: estimate_es("mean", "block-resample", gauss(2), eta=0.07, n=101, trials=150,
                            seed=14),
        "139b31fe26a5942685472829ce66847b91c46074e6b2ee172ae5637201b3ca90"),
    # The mean's lift: one (T, n, d) stack per chunk on the draws' mean
    # (test_projected_mean_reports_are_the_scalar_mean_reports holds its law).
    "es/projected:16/resample": (
        lambda: estimate_es(build_estimator("projected:16", d=4, seed=15), "resample", gauss(1),
                            eta=0.1, n=50, trials=100, seed=15),
        "2a7a23dc02dfeedbb0f2362db6e75bc8538b71d151fe251cf4016df0789ca7ab"),
    # The bench's mc-heavy job shape: 256 noise draws at d = 8, n = 200.
    "es/projected:256/resample/d8": (
        lambda: estimate_es(build_estimator("projected:256", d=8, seed=41), "resample", gauss(1),
                            eta=0.1, n=200, trials=100, seed=41),
        "14ee9ab08ab12c48c64ab47fbe43f42c3daeca0abe296e7fb9410a9ed0109b05"),
    # A matmul over the whole stack's lifts moves the last bit here; a per-row sum does not.
    "es/projected:1/resample/d3": (
        lambda: estimate_es(build_estimator("projected:1", d=3, seed=42), "resample", gauss(1),
                            eta=0.1, n=200, trials=100, seed=42),
        "276c476ba3428da0e90c64a090e1b1aa5706460c8235d9d6476b11335086dfaa"),
    "efron-stein/mean-d3": (
        lambda: analysis.efron_stein_check(sl.mean_estimator(3), gauss(3, 0.5), 25, 1000,
                                           RngStream(43, 0)),
        "20b1d345468dca5e403f43fe1913990b36ed7d3114f3179d87b43db682f9720f"),
    "efron-stein/median-n101": (
        lambda: analysis.efron_stein_check(sl.median_estimator(1), gauss(1), 101, 1000,
                                           RngStream(44, 0)),
        "73608b201bba84aecad41b72f1652cee3eaef709ecffe28066eaa7b10ffabe71"),
    "es/mean/resample/k0": (
        lambda: estimate_es("mean", "resample", gauss(1), eta=0.005, n=100, trials=100, seed=16),
        "131f6f5f6870656f1be17c0a0dd596646ecf191c172c618fa75a55d42fdef452"),
    "obstruction/mean-low": (
        lambda: mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=400, trials=300,
                                     seed=17),
        "6a07962067a1469ac0a6b77f5afdcf95ba48fa7249ec38c86cc0b7f81263e35e"),
    "obstruction/variance/mean-d16": (
        lambda: variance_obstruction("mean", gauss(16), eta=0.1, n=400, trials=25, seed=18),
        "6389239f9c5b5806f2dcaf4c856ddf1eb3ace1169446cbad9b832e9d6d19e5b3"),
    "obstruction/variance/median-d3-n101": (
        lambda: variance_obstruction("median", gauss(3), eta=0.07, n=101, trials=40, seed=19),
        "5b348d5d4ad5cd16707bdea069c36e86470947cbfb4bbb94f7d56d3637872da3"),
    "obstruction/coupling-high": (
        lambda: sl.coupling_obstruction_high("clipped-mean", eta=0.1, n=500, trials=50, seed=20),
        "90169f1eb3c7f7ff2c775b556a358672d04b85d81538b05a9a4de87f9c8c6f8f"),
    "es/clipped-mean/tv-coupling": (
        lambda: estimate_es("clipped-mean", "tv-coupling", gauss(1), eta=0.05, n=500, trials=100,
                            seed=21),
        "1cc4d1d9a196c690f163de6b03a60217462cd9916776e3d5ca82de5d375f6887"),
    "es/bernoulli-plugin/resample": (
        lambda: estimate_es("bernoulli-plugin", "resample", BernoulliModel(0.3), eta=0.1, n=40,
                            trials=120, seed=31),
        "ecdd174d4e5719ffbd81001d228a996a4084424dca61c7ef484915ff4ac7d6c9"),
    "es/bernoulli-plugin/block-resample": (
        lambda: estimate_es("bernoulli-plugin", "block-resample", BernoulliModel(0.6), eta=0.07,
                            n=45, trials=110, seed=32),
        "b77a651970624cd6785d8f2213c875de7a0d158c5571425438ea1485a7db27eb"),
    # Several chunks each. tv-coupling and hamming-ball stay on one thread;
    # the median-exact steps run on helper threads.
    "es/clipped-mean/tv-coupling/workers2": (
        lambda: estimate_es("clipped-mean", "tv-coupling", gauss(1, 0.4), eta=0.05, n=2000,
                            trials=120, seed=33, workers=2),
        "216d3b793a1ece6baf402e8860e24166ee495c14450e75fb23aefca38a7439d6"),
    "es/median/median-exact/workers3": (
        lambda: estimate_es("median", "median-exact", gauss(1), eta=0.1, n=4001, trials=130,
                            seed=34, workers=3),
        "5bc1f35c668578afdd3050f0c8f7e39f3a3a49da98436befd6a76d0e79127219"),
    # Binary rows tie at every rank: 90 of the 130 certificates are zero gaps
    # between equal order statistics. Five 32-trial chunks over two threads.
    "es/median/median-exact/bernoulli-ties/workers2": (
        lambda: estimate_es("median", "median-exact", BernoulliModel(0.5), eta=0.005, n=2001,
                            trials=130, seed=36, workers=2),
        "093c8f9fd6bc2f7d6f449f82a49fed30da89a7784696de75b4e70746ad896581"),
    "es/bernoulli-plugin/hamming-ball/workers2": (
        lambda: estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.4), eta=0.2,
                            n=10, trials=300, seed=35, workers=2),
        "2cf9d9f5167c3d6f865954e3da865b9c04e1c3fb8f32eeb3554bff4df7e824f4"),
}


def run_on_cpus(monkeypatch, cpus: int) -> None:
    """Let the default ``workers`` resolve to ``cpus`` CPUs and drop the n * d
    crossover, so every job of more than one chunk whose adversary allows
    threads starts its helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(harness, "_THREADED_MIN_ENTRIES", 0)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name):
    run, digest = GOLDEN[name]
    assert hashlib.sha256(text(run()).encode()).hexdigest() == digest


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_on_any_cpu_count(monkeypatch, name, cpus):
    # The default workers resolves to cpus, the obstruction experiments' too.
    run_on_cpus(monkeypatch, cpus)
    run, digest = GOLDEN[name]
    assert hashlib.sha256(text(run()).encode()).hexdigest() == digest


# -- one generator per thread: no step holds two trial streams at once --

REPORT_JOBS = sorted(name for name in GOLDEN if name.startswith(("es/", "obstruction/")))


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", REPORT_JOBS)
def test_a_new_generator_per_stream_gives_the_same_bytes(monkeypatch, name, cpus):
    # Every adversary's step and every obstruction's: with each stream drawn
    # from a generator of its own, a step that held two streams of its
    # thread's one generator at once would read other bytes than it does.
    run_on_cpus(monkeypatch, cpus)
    run, digest = GOLDEN[name]
    want = text(run())
    at = _Rekeyer.at
    monkeypatch.setattr(_Rekeyer, "at",
                        lambda self, seed, stream_id: at(_Rekeyer(), seed, stream_id))
    assert text(run()) == want
    assert hashlib.sha256(want.encode()).hexdigest() == digest


def nesting(est: sl.Estimator) -> sl.Estimator:
    """``est``, running a request of its own on the calling thread before
    each stack it evaluates."""
    def stack_fn(stack):
        estimate_es(sl.mean_estimator(1), "resample", gauss(1), eta=0.1, n=20, trials=100,
                    seed=99, workers=1)
        return est.stack_fn(stack)

    return dataclasses.replace(est, stack_fn=stack_fn)


# The jobs whose estimator the request builds by name (the projected lifts are
# built in GOLDEN); the median-exact and hamming-ball certificates key on the
# estimator's own stack_fn.
NESTED_JOBS = [name for name in REPORT_JOBS
               if not any(s in name for s in ("projected", "median-exact", "hamming-ball"))]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", NESTED_JOBS)
def test_a_request_nested_in_the_estimator_leaves_the_reports_bytes(monkeypatch, name, cpus):
    # Every estimator a request builds by name nests a request: it re-keys
    # the calling thread's generator between the outer request's chunks, and
    # on 3 CPUs while helper threads draw.
    run_on_cpus(monkeypatch, cpus)
    build = harness.build_estimator
    monkeypatch.setattr(harness, "build_estimator", lambda *a, **kw: nesting(build(*a, **kw)))
    run, digest = GOLDEN[name]
    assert hashlib.sha256(text(run()).encode()).hexdigest() == digest


def test_over_budget_trials_score_zero(monkeypatch):
    # Every trial's recomputed Hamming distance over the budget: each score is
    # 0 in the sensitivity report and in both obstructions that score pairs.
    monkeypatch.setattr(harness, "_hamming_stack",
                        lambda clean, corrupted: np.full(clean.shape[0], clean.shape[1] + 1))
    low = mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=400, trials=300, seed=17)
    assert (low.avg_displacement, low.stderr) == (0.0, 0.0)
    high = coupling_obstruction_high("clipped-mean", eta=0.1, n=500, trials=50, seed=20)
    assert high.avg_displacement_on_feasible == high.stderr == 0.0
    assert high.infeasible_rate == 1.0
    report = estimate_es("mean", "resample", gauss(16), eta=0.1, n=400, trials=123, seed=11)
    assert report.per_trial.tolist() == [0.0] * 123 and report.es_estimate == 0.0


# -- every report is written as one record: its kind, then its fields --

KINDS = {
    sl.SensitivityReport: "sensitivity-report",
    sl.ScalingFit: "scaling-fit",
    sl.MeanObstructionReport: "mean-obstruction-low",
    sl.CouplingObstructionReport: "coupling-obstruction-high",
    sl.VarianceObstructionReport: "variance-obstruction",
}
REPORTS = {name: run for name, (run, _) in GOLDEN.items()
           if name.startswith(("es/", "obstruction/"))}
REPORTS["scaling-fit"] = lambda: sl.scaling_sweep("mean", "resample", variable="n",
                                                  values=[100, 200, 400, 800], trials=400, seed=11)


def record_fields(report) -> set[str]:
    """The dataclass field names the record holds: all but ``per_trial``, and a
    fit's point reports as their three lists."""
    names = {f.name for f in dataclasses.fields(report)} - {"per_trial"}
    if isinstance(report, sl.ScalingFit):
        names = names - {"reports"} | {"es_estimates", "ci_lows", "ci_highs"}
    return names


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_report_writes_one_record_of_its_fields(name):
    report = REPORTS[name]()
    record = json.loads(report.to_json())
    assert record.pop("schema") == "senslab/v1"
    assert record.pop("kind") == KINDS[type(report)]
    assert set(record) == record_fields(report)
    for field, value in record.items():
        if hasattr(report, field):
            want = getattr(report, field)
            assert value == (list(want) if isinstance(want, tuple) else want)


def test_the_unbounded_error_writes_one_record():
    with pytest.raises(UnboundedSensitivityError) as err:
        estimate_es("mean", "median-exact", gauss(1), eta=0.1, n=51, trials=100)
    record = json.loads(harness._dump_json(err.value.to_json_dict()))
    assert (record.pop("schema"), record.pop("kind")) == ("senslab/v1", "unbounded-sensitivity")
    assert record == {"estimator": "mean", "adversary": "median-exact",
                      "reason": err.value.reason}


@pytest.mark.parametrize("name", sorted(n for n in REPORTS if n.startswith("obstruction/")))
def test_obstruction_json_on_any_cpu_count(monkeypatch, name):
    texts = []
    for cpus in (1, 3):
        run_on_cpus(monkeypatch, cpus)
        texts.append(REPORTS[name]().to_json())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("inner, d, n, seed", [(16, 4, 50, 15), (256, 8, 200, 41), (1, 3, 200, 42)])
def test_projected_mean_reports_are_the_scalar_mean_reports(inner, d, n, seed):
    # The golden projected reports' law: the mean's lift is the scalar mean
    # of t in exact arithmetic, and the clean and corrupted data read the
    # same streams, so every per-trial displacement is the scalar mean's
    # within roundoff (measured 0.6 eps; |t| < 5 at these sizes).
    lifted = estimate_es(build_estimator(f"projected:{inner}", d=d, seed=seed), "resample",
                         gauss(1), eta=0.1, n=n, trials=100, seed=seed)
    scalar = estimate_es("mean", "resample", gauss(1), eta=0.1, n=n, trials=100, seed=seed)
    gap = np.abs(np.array(lifted.per_trial) - np.array(scalar.per_trial))
    assert gap.max() <= 16 * np.finfo(float).eps


# --- reference loops: one trial at a time, with their own adversary draws ---

def ref_resample(x, budget, model, gen):
    idx = gen.choice(x.n, size=budget.k, replace=False)
    return x.replace_rows(idx, model.from_random(gen.random((budget.k, x.d))))


def ref_shift(x, budget, delta, gen):
    idx = gen.choice(x.n, size=budget.k, replace=False)
    return x.replace_rows(idx, x.samples[idx] + float(delta))


def ref_block(x, start, stop, model, gen):
    fresh = model.from_random(gen.random((stop - start, x.d)))
    return x.replace_rows(np.arange(start, stop), fresh)


def reference_es(est, adversary, model, *, eta, n, trials, seed, delta=None):
    budget = CorruptionBudget.from_eta(eta, n)
    layout = block_layout(n, budget.k) if adversary == "block-resample" else []
    values = np.empty(trials)
    for t in range(trials):
        data_rng, adv_gen = RngStream(seed, 2 * t), RngStream(seed, 2 * t + 1).generator()
        if adversary == "tv-coupling":
            x, out = tv_coupling_adversary(float(model.mu[0]), eta, n, data_rng)
            y = out.corrupted
        else:
            x = model.sample(n, data_rng)
        if adversary == "median-exact":
            values[t] = median_worst_case(x, budget).certificate
            continue
        if adversary == "hamming-ball":
            values[t] = hamming_ball_sup(est, x, budget).certificate
            continue
        if adversary == "resample":
            y = ref_resample(x, budget, model, adv_gen)
        elif adversary == "local-shift":
            y = ref_shift(x, budget, delta, adv_gen)
        elif adversary == "block-resample":
            y = ref_block(x, *layout[t % len(layout)], model, adv_gen)
        feasible = sl.hamming_distance(x, y) <= budget.k
        values[t] = float(np.linalg.norm(est(y) - est(x))) if feasible else 0.0
    return values


def reference_mean_low(est, *, eta, delta, n, prior, trials, seed):
    budget = CorruptionBudget.from_eta(eta, n)
    disps = np.empty(trials)
    for t in range(trials):
        gen = RngStream(seed, 2 * t).generator()
        mu_prime = prior[0] + (prior[1] - prior[0]) * float(uniform_open(gen, ()))
        x = Dataset(mu_prime + sl.standard_normal(gen, (n, 1)))
        y = ref_shift(x, budget, delta, RngStream(seed, 2 * t + 1).generator())
        disps[t] = float(est(y)[0] - est(x)[0])
    return disps


def reference_coupling_high(est, *, eta, n, prior, trials, seed):
    k = sl.compute_k(eta, n)
    vals = np.empty(trials)
    infeasible = 0
    for t in range(trials):
        gen = RngStream(seed, 2 * t).generator()
        mu_prime = prior[0] + (prior[1] - prior[0]) * float(uniform_open(gen, ()))
        x, y = couple_gaussian_pair(gen, mu_prime, eta, n)
        if int(np.count_nonzero(x != y)) <= k:
            vals[t] = float(est(Dataset(y))[0] - est(Dataset(x))[0])
        else:
            vals[t] = 0.0
            infeasible += 1
    return vals, infeasible


def reference_variance(est, model, *, eta, n, trials, seed):
    layout = block_layout(n, CorruptionBudget.from_eta(eta, n).k)
    outputs = np.empty((trials, est.output_dim))
    gaps = np.empty((trials, len(layout)))
    for t in range(trials):
        x = model.sample(n, RngStream(seed, 2 * t)).samples
        fx = est.on_stack(x[None])[0]
        outputs[t] = fx
        adv_gen = RngStream(seed, 2 * t + 1).generator()
        stack = np.broadcast_to(x, (len(layout),) + x.shape).copy()
        for i, (start, stop) in enumerate(layout):
            stack[i, start:stop, :] = model.from_random(adv_gen.random((stop - start, model.d)))
        gaps[t] = ((est.on_stack(stack) - fx) ** 2).sum(axis=1)
    return outputs, gaps


def oracle_case(adversary, bernoulli, name, n, d, eta):
    """Move a drawn case onto a combination that ``adversary`` accepts."""
    if adversary == "hamming-ball":
        bernoulli, name, n = True, "bernoulli-plugin", min(n, 12)
    elif adversary == "tv-coupling":
        bernoulli = False
    elif adversary == "median-exact":
        name, n, eta = "median", n | 1, min(eta, 0.45)
    if name == "bernoulli-plugin" and (not bernoulli or adversary == "local-shift"):
        name = "mean"  # the plug-in rejects non-binary rows
    if bernoulli or name.startswith("clipped") or adversary in (
            "local-shift", "tv-coupling", "median-exact"):
        d = 1
    if adversary in ("local-shift", "block-resample") and sl.compute_k(eta, n) < 1:
        eta = 1.0 / n + 1e-9
    return bernoulli, name, n, d, eta


@settings(max_examples=80, deadline=None)
@given(
    adversary=st.sampled_from(sl.ADVERSARY_NAMES),
    bernoulli=st.booleans(),
    name=st.sampled_from(["mean", "median", "clipped-mean", "clipped-median",
                          "bernoulli-plugin"]),
    n=st.integers(2, 90),
    d=st.integers(1, 5),
    eta=st.floats(0.01, 0.6),
    mu=st.floats(-3.0, 3.0),
    p=st.floats(0.0, 1.0),
    trials=st.integers(100, 130),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_es_matches_per_trial_loop(adversary, bernoulli, name, n, d, eta, mu, p, trials, seed):
    bernoulli, name, n, d, eta = oracle_case(adversary, bernoulli, name, n, d, eta)
    model = BernoulliModel(p) if bernoulli else gauss(d, mu)
    delta = 0.7 if adversary == "local-shift" else None
    report = estimate_es(name, adversary, model, eta=eta, n=n, trials=trials, seed=seed,
                         delta=delta)
    est = build_estimator(name, d=d, seed=seed)
    want = reference_es(est, adversary, model, eta=eta, n=n, trials=trials, seed=seed,
                        delta=delta)
    assert report.per_trial.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,n,eta,trials,seed", [
    ("clipped-mean", 400, 0.05, 170, 3),
    ("clipped-median", 101, 0.1, 60, 2 ** 64 - 1),
    ("median", 7, 0.3, 300, 0),
])
def test_mean_low_matches_per_trial_loop(name, n, eta, trials, seed):
    prior = (0.1, 0.9)
    report = mean_obstruction_low(name, eta=eta, delta=0.5, n=n, prior=prior, trials=trials,
                                  seed=seed)
    disps = reference_mean_low(build_estimator(name, d=1, seed=seed), eta=eta, delta=0.5, n=n,
                               prior=prior, trials=trials, seed=seed)
    assert report.avg_displacement == float(disps.mean())
    assert report.stderr == float(disps.std(ddof=1) / math.sqrt(trials))


@pytest.mark.parametrize("name,eta,n,prior,trials,seed", [
    ("clipped-mean", 0.1, 500, (0.0, 0.9), 60, 20),
    # k = 1 with TV(0.05) = 0.02 over 30 rows: about one trial in eight is
    # over budget and scores 0.
    ("clipped-median", 0.05, 30, (0.2, 0.7), 300, 2 ** 64 - 1),
    ("projected:4", 0.1, 41, (0.0, 0.9), 80, 6),
])
def test_coupling_high_matches_per_trial_loop(name, eta, n, prior, trials, seed):
    report = coupling_obstruction_high(name, eta=eta, n=n, prior=prior, trials=trials, seed=seed)
    est = build_estimator(name, d=1, seed=seed)
    vals, infeasible = reference_coupling_high(est, eta=eta, n=n, prior=prior, trials=trials,
                                               seed=seed)
    assert report.avg_displacement_on_feasible == float(vals.mean())
    assert report.stderr == float(vals.std(ddof=1) / math.sqrt(trials))
    assert report.infeasible_rate == infeasible / trials


@pytest.mark.parametrize("name,d,n,eta,trials", [
    ("mean", 16, 400, 0.1, 23),
    ("median", 3, 101, 0.07, 30),
    ("mean", 1, 2000, 0.3, 70),
    ("median", 1, 101, 0.01, 40),  # k = 1: the median's sort shortcut
    ("median", 3, 51, 0.02, 30),
])
def test_variance_matches_per_trial_loop(name, d, n, eta, trials):
    model = gauss(d, 0.4)
    report = variance_obstruction(name, model, eta=eta, n=n, trials=trials, seed=9)
    outputs, gaps = reference_variance(build_estimator(name, d=d, seed=9), model, eta=eta, n=n,
                                       trials=trials, seed=9)
    assert report.block_gaps == tuple(float(v) for v in gaps.mean(axis=0))
    assert (report.var_clean, report.var_clean_stderr) == analysis._variance_with_se(outputs)


# sha256 of repr(report), taken before the block gaps ran through
# analysis._replaced_on_stack: an uneven last block, 51 and 101 blocks,
# trial counts that leave a short last chunk (and chunks of one trial at
# n = 4001, d = 16), the median at d = 1 and d = 3, and the clipped mean.
VARIANCE_PINS = {
    "mean-d2-uneven": (
        lambda: variance_obstruction("mean", gauss(2, 0.3), eta=0.07, n=101, trials=300, seed=71),
        "ce58136a657b33e109c61706d995368a256266276c540e6f2ad66d5906517744"),
    "median-d1-m51": (
        lambda: variance_obstruction("median", gauss(1), eta=0.02, n=503, trials=300, seed=72),
        "c53fcd387e4180bba6315fd429de6d99fda57e118b859184e6f81257312022f8"),
    "median-d3": (
        lambda: variance_obstruction("median", gauss(3, -0.2), eta=0.1, n=95, trials=70, seed=73),
        "4b8df0b7b13a68c096f538f527e55ec77dfe5bdd080f59c9ef3be3fe5bd0a0c9"),
    "clipped-mean": (
        lambda: variance_obstruction("clipped-mean", gauss(1, 0.5), eta=0.05, n=213, trials=260,
                                     seed=74),
        "aaabf7940dadee3ecc189e35f0bc71e4062cf6c7f7fdaa50a6e2c21d1bf04304"),
    "mean-d16-m101": (
        lambda: variance_obstruction("mean", gauss(16), eta=0.01, n=4001, trials=5, seed=75),
        "4d7f5fe8ed888981116f9e83d498037b979e8c722ea36bc7ab7166acf39d36fe"),
    # k = 1: one-row blocks, taken before the median's leave-one-out values
    # came from three order statistics here too.
    "median-d1-k1": (
        lambda: variance_obstruction("median", gauss(1), eta=0.01, n=101, trials=300, seed=91),
        "9869f82463fd7e5325066eee181578ac755fc4087d7e5f868142c21e29f3de3d"),
    "median-d3-k1": (
        lambda: variance_obstruction("median", gauss(3, 0.2), eta=0.02, n=51, trials=257,
                                     seed=92),
        "1e11ce7259e162dc6efbb058e1e637f5beb3e9583ce5a4ffaf2bb2090c64e867"),
}


@pytest.mark.parametrize("name", sorted(VARIANCE_PINS))
def test_variance_report_pins(name):
    run, digest = VARIANCE_PINS[name]
    assert hashlib.sha256(repr(run()).encode()).hexdigest() == digest


# A stderr needs two trials; the bench warms each experiment up at ten.
@pytest.mark.parametrize("run", [
    lambda trials: mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=400,
                                        trials=trials),
    lambda trials: coupling_obstruction_high("clipped-mean", eta=0.1, n=500, trials=trials),
    lambda trials: variance_obstruction("mean", gauss(1), eta=0.1, n=50, trials=trials),
], ids=["mean-low", "coupling-high", "variance"])
def test_obstructions_need_two_trials(run):
    for trials in (-1, 0, 1):
        with pytest.raises(ValueError, match=rf"^trials must be an integer >= 2, got {trials}$"):
            run(trials)
    assert run(2).trials == 2


# --- validation: every rejection estimate_es makes, with its type and message ---

REJECTIONS = {
    "unknown-adversary": (("mean", "nope", gauss(1)), {},
                          ValueError, r"unknown adversary 'nope'; known: resample, "),
    "q": (("mean", "resample", gauss(1)), {"q": 3}, ValueError, r"q must be 1 or 2"),
    "trials": (("mean", "resample", gauss(1)), {"trials": 99}, ValueError,
               r"trials must be an integer >= 100, got 99"),
    "local-shift/no-delta": (("mean", "local-shift", gauss(1)), {}, ValueError,
                             r"local-shift requires delta"),
    "local-shift/d2": (("mean", "local-shift", gauss(2)), {"delta": 0.5}, ValueError,
                       r"local-shift requires scalar \(d = 1\) data"),
    "median-exact/mean": (("mean", "median-exact", gauss(1)), {"n": 21},
                          UnboundedSensitivityError,
                          r"unbounded sensitivity for \(mean, median-exact\)"),
    "median-exact/clipped-mean": (("clipped-mean", "median-exact", gauss(1)), {"n": 21},
                                  ValueError, r"median-exact certificates apply to the median"),
    "median-exact/d2": (("median", "median-exact", gauss(2)), {"n": 21}, ValueError,
                        r"median-exact requires scalar \(d = 1\) data"),
    "median-exact/even-n": (("median", "median-exact", gauss(1)), {"n": 20}, ValueError,
                            r"median-exact requires odd n"),
    "hamming-ball/non-binary": (("mean", "hamming-ball", BernoulliModel(0.5)), {"n": 10},
                                ValueError, r"hamming-ball enumerates binary corruptions"),
    "hamming-ball/gaussian": (("bernoulli-plugin", "hamming-ball", gauss(1)), {"n": 10},
                              ValueError, r"hamming-ball requires a BernoulliModel"),
    "tv-coupling/bernoulli": (("clipped-mean", "tv-coupling", BernoulliModel(0.5)), {},
                              ValueError, r"tv-coupling requires a (scalar )?GaussianModel"),
    "tv-coupling/d2": (("mean", "tv-coupling", gauss(2)), {}, ValueError,
                       r"tv-coupling requires (a )?scalar"),
    "local-shift/k0": (("mean", "local-shift", gauss(1)), {"eta": 0.01, "delta": 0.5},
                       ValueError, r"budget allows no corruption"),
    "block-resample/k0": (("mean", "block-resample", gauss(1)), {"eta": 0.01}, ValueError,
                          r"budget allows no corruption"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejections(case):
    args, overrides, error, message = REJECTIONS[case]
    kwargs = {"eta": 0.1, "n": 20, "trials": 100, "seed": 0, **overrides}
    with pytest.raises(error, match=message) as info:
        estimate_es(*args, **kwargs)
    assert type(info.value) is error


def no_trials(*args, **kwargs):
    raise AssertionError("a trial ran before the request was checked")


@pytest.mark.parametrize("estimator,adversary,model,n", [
    ("mean", "resample", gauss(1), 50),
    ("clipped-mean", "tv-coupling", gauss(1), 50),
    ("mean", "block-resample", gauss(2), 50),
    ("median", "median-exact", gauss(1), 21),
    ("bernoulli-plugin", "hamming-ball", BernoulliModel(0.5), 10),
])
def test_delta_is_rejected_where_no_trial_reads_it(monkeypatch, estimator, adversary, model, n):
    # Only local-shift reads delta; a report must not record one that nothing used.
    monkeypatch.setattr(harness, "_run_pairs", no_trials)
    with pytest.raises(ValueError, match=rf"^{adversary} takes no delta, got delta=0.5$"):
        estimate_es(estimator, adversary, model, eta=0.1, n=n, trials=100, seed=1, delta=0.5)


def test_mean_obstruction_checks_delta_before_the_first_trial(monkeypatch):
    monkeypatch.setattr(harness, "_run_pairs", no_trials)
    with pytest.raises(ValueError, match=r"^delta must be nonnegative, got -0.5$"):
        mean_obstruction_low("clipped-mean", eta=0.05, delta=-0.5, n=400, trials=20000)


def test_projected_request_rejects_a_mu_vector():
    # The lift's clean data are scalar, so a second mu entry has nowhere to go.
    with pytest.raises(ValueError, match=r"mu needs one entry, got 4$"):
        harness._gaussian_point("projected:16", 4, [1, 2, 3, 4], 0)
    est, model = harness._gaussian_point("projected:16", 4, [1.5], 0)
    assert est.name == "projected:16(mean)" and model.mu.tolist() == [1.5]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 9, 12, 16, 24, 64, 72])
def test_hamming_stack_matches_hamming_distance(d):
    # One coordinate moved, or a 0.0 swapped for -0.0 (equal under !=), at
    # random rows and coordinates; every word width and both code paths.
    gen = np.random.default_rng(d)
    clean = gen.normal(size=(7, 30, d))
    clean[:, ::4] = 0.0
    corrupted = clean.copy()
    for i in range(7):
        for row in gen.choice(30, size=i * 4, replace=False):
            j = gen.integers(d)
            corrupted[i, row, j] = -0.0 if clean[i, row, j] == 0.0 else clean[i, row, j] + 1.0
    want = np.count_nonzero(np.any(clean != corrupted, axis=2), axis=1).tolist()
    assert core._hamming_stack(clean, corrupted).tolist() == want
    assert [sl.hamming_distance(Dataset(x), Dataset(y)) for x, y in zip(clean, corrupted)] == want
    assert core._hamming_stack(clean, clean).tolist() == [0] * 7


@pytest.mark.parametrize("workers", [1, 2])
def test_median_exact_checks_k_before_the_first_trial(monkeypatch, workers):
    def no_draw(*args):
        raise AssertionError("a chunk was drawn before the budget was checked")

    monkeypatch.setattr(harness, "_clean_stack", no_draw)
    with pytest.raises(ValueError, match=r"^need k <= m - 1 = 5, got k = 6$"):
        estimate_es("median", "median-exact", GaussianModel([0]), eta=0.6, n=11, trials=100,
                    workers=workers)


# --- median-exact certifies what the estimator computes, not what it is called ---

def median_exact(est, **kwargs):
    return estimate_es(est, "median-exact", gauss(1), eta=0.1, n=21, trials=100, seed=5,
                       **kwargs)


def test_median_exact_rejects_the_mean_named_median():
    fake = sl.Estimator("median", 1, sl.mean_estimator(1).stack_fn)
    with pytest.raises(ValueError, match=r"median only"):
        median_exact(fake)


def test_median_exact_rejects_the_clipped_mean_named_mean():
    fake = dataclasses.replace(sl.clip_estimator(sl.mean_estimator(1), sl.ClipInterval(0.0, 1.0)),
                               name="mean")
    with pytest.raises(ValueError, match=r"median only") as info:
        median_exact(fake)
    assert type(info.value) is ValueError


def test_median_exact_accepts_the_median_under_another_name():
    renamed = dataclasses.replace(sl.median_estimator(1), name="my-median")
    want = median_exact("median").per_trial
    assert median_exact(renamed).per_trial.tobytes() == want.tobytes()


# --- threads, streams, checks and memory ---

@pytest.mark.parametrize("adversary,model,n,trials,delta", [
    ("resample", gauss(16), 200, 100, None),     # 20 trials per chunk
    ("local-shift", gauss(1), 1000, 200, 0.5),   # 65 trials per chunk
    ("block-resample", gauss(4), 300, 150, None),  # 54 trials per chunk
    ("resample", gauss(1), 101, 100, None),      # one chunk, fewer chunks than workers
])
def test_reports_identical_across_workers(monkeypatch, adversary, model, n, trials, delta):
    monkeypatch.setattr(harness, "_THREADED_MIN_ENTRIES", 0)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        texts = [estimate_es("mean", adversary, model, eta=0.1, n=n, trials=trials, seed=5,
                             delta=delta, workers=w).to_json(include_trials=True)
                 for w in (1, 2, 3, None)]
    finally:
        sys.setswitchinterval(interval)
    assert texts[0] == texts[1] == texts[2] == texts[3]


KEYS = [(0, 0), (0, 2 ** 64 - 1), (2 ** 64 - 1, 0), (2 ** 64 - 1, 2 ** 64 - 1)] + [
    (int(a), int(b)) for a, b in np.random.default_rng(2024).integers(
        0, 2 ** 64, size=(12, 2), dtype=np.uint64, endpoint=False)]


def draws(gen: np.random.Generator) -> tuple:
    return (gen.random(5).tobytes(), gen.integers(0, 10, size=3).tobytes(),
            gen.choice(50, size=4, replace=False).tobytes(), gen.standard_normal(3).tobytes())


def leave_mid_block(gen: np.random.Generator) -> None:
    # A half-used 32-bit draw and a partly used Philox output block.
    gen.integers(0, 7, size=3)
    gen.random(3)


def stream_bytes(seed: int, stream_id: int) -> tuple:
    # The stream key packed into numpy's 128-bit Philox key.
    return draws(np.random.Generator(np.random.Philox(key=seed | stream_id << 64)))


def test_rekey_draws_the_stream_bytes():
    rekeyer = _Rekeyer()
    for seed, stream_id in KEYS:
        leave_mid_block(rekeyer.generator)
        want = stream_bytes(seed, stream_id)
        assert draws(rekeyer.at(seed, stream_id)) == want
        assert draws(RngStream(seed, stream_id).generator()) == want


def test_rekey_accepts_numpy_key_words():
    # RngStream accepts np.integer keys; the list-valued state takes them too.
    rekeyer = _Rekeyer()
    for seed, stream_id in KEYS + [(0, 0), (2 ** 64 - 1, 2 ** 64 - 1)]:
        want = draws(rekeyer.at(seed, stream_id))
        assert draws(rekeyer.at(np.uint64(seed), np.uint64(stream_id))) == want
        assert draws(rekeyer.at(np.uint64(seed), stream_id)) == want


def thread_streams(seed: int, stream_id: int) -> np.random.Generator:
    """Stream (seed, stream_id) as the trial engine hands it out on this thread."""
    t, role = divmod(stream_id, 2)
    (gen,) = harness._trial_streams(types.SimpleNamespace(seed=seed), role, t, t + 1)
    return gen


def test_a_reused_generator_draws_the_stream_bytes():
    # After the first key, each stream is the thread's generator as the last
    # key left it, mid-block.
    gens = []
    for seed, stream_id in KEYS:
        gens.append(thread_streams(seed, stream_id))
        assert draws(gens[-1]) == stream_bytes(seed, stream_id)
        leave_mid_block(gens[-1])
    assert all(gen is gens[0] for gen in gens)
    # Another thread re-keys a generator of its own.
    other = []
    thread = threading.Thread(target=lambda: other.append(thread_streams(*KEYS[1])))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert other[0] is not gens[0]
    assert draws(other[0]) == stream_bytes(*KEYS[1])


def raise_on_second_chunk(est):
    calls = []

    def stack_fn(stack):
        calls.append(None)
        if len(calls) > 2:  # each chunk evaluates two stacks
            raise RuntimeError("second chunk")
        return est.stack_fn(stack)

    return dataclasses.replace(est, stack_fn=stack_fn)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_request_that_raises_leaves_the_next_requests_bytes(monkeypatch, workers):
    monkeypatch.setattr(harness, "_THREADED_MIN_ENTRIES", 0)
    mean = build_estimator("mean", d=1)
    # 163 trials a chunk at n = 400, d = 1: three chunks.
    kwargs = dict(eta=0.1, n=400, trials=400, seed=21, workers=workers)
    want = text(estimate_es(mean, "resample", gauss(1), **kwargs))
    with pytest.raises(RuntimeError, match="second chunk"):
        estimate_es(raise_on_second_chunk(mean), "resample", gauss(1), **kwargs)
    assert text(estimate_es(mean, "resample", gauss(1), **kwargs)) == want


def test_two_workers_on_a_used_generator_give_the_one_worker_bytes(monkeypatch):
    monkeypatch.setattr(harness, "_THREADED_MIN_ENTRIES", 0)
    kwargs = dict(eta=0.1, n=400, trials=700, seed=8)
    want = text(estimate_es("median", "local-shift", gauss(1), delta=0.5, workers=1, **kwargs))
    # A request at another seed leaves this thread's generator read mid-stream.
    estimate_es("mean", "resample", gauss(1), eta=0.1, n=400, trials=700, seed=9, workers=2)
    used = harness._THREAD.rekeyer
    got = text(estimate_es("median", "local-shift", gauss(1), delta=0.5, workers=2, **kwargs))
    assert got == want
    assert harness._THREAD.rekeyer is used


def test_a_step_that_raises_on_a_helper_raises_on_the_calling_thread(monkeypatch):
    # 32 trials a chunk at n = 2000, d = 1: the second chunk's step is the helper's.
    kwargs = dict(eta=0.1, n=2000, trials=100, seed=6, workers=2)
    want = text(estimate_es("mean", "resample", gauss(1), **kwargs))
    clean_stack = harness._clean_stack

    def fail_after_the_first_chunk(job, role, lo, hi):
        if lo > 0:
            raise RuntimeError(f"chunk at trial {lo}")
        return clean_stack(job, role, lo, hi)

    threads = threading.active_count()
    monkeypatch.setattr(harness, "_clean_stack", fail_after_the_first_chunk)
    with pytest.raises(RuntimeError, match=r"^chunk at trial 32$"):
        estimate_es("mean", "resample", gauss(1), **kwargs)
    assert threading.active_count() == threads
    monkeypatch.setattr(harness, "_clean_stack", clean_stack)
    assert text(estimate_es("mean", "resample", gauss(1), **kwargs)) == want


def test_a_helper_with_chunks_queued_stops_when_the_estimator_raises(monkeypatch):
    # 163 trials a chunk at n = 400, d = 1: seven chunks, the helper's the
    # second, fourth and sixth. The estimator raises on the second, while the
    # helper holds the fourth and has the sixth still to draw.
    monkeypatch.setattr(harness, "_THREADED_MIN_ENTRIES", 0)
    threads = threading.active_count()
    raised = []

    def call():
        try:
            estimate_es(raise_on_second_chunk(build_estimator("mean", d=1)), "resample",
                        gauss(1), eta=0.1, n=400, trials=1100, seed=5, workers=2)
        except RuntimeError as exc:
            raised.append(str(exc))

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert raised == ["second chunk"]
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [None, 3])
def test_the_default_cap_without_cpu_affinity_is_the_cpu_count(monkeypatch, cpus):
    # A platform without os.sched_getaffinity: os.cpu_count, or 1 when unknown.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert harness._worker_cap(None) == (cpus or 1)


# --- the worker rule: which steps run on helper threads ---

def count_helpers(monkeypatch) -> list:
    """One entry per helper thread started from here on."""
    started = []

    class Counted(harness._Helper):
        def __init__(self, *args):
            started.append(None)
            super().__init__(*args)

    monkeypatch.setattr(harness, "_Helper", Counted)
    return started


class RecordingEstimator(sl.Estimator):
    """The estimator it wraps, noting the thread of every stack it evaluates."""

    def __init__(self, inner: sl.Estimator):
        super().__init__(inner.name, inner.output_dim, inner.stack_fn, inner.linear_in_data,
                         inner.binary_domain)
        object.__setattr__(self, "threads", set())

    def on_stack(self, stack):
        self.threads.add(threading.get_ident())
        return super().on_stack(stack)


THREADED_JOBS = {
    # 10 trials a chunk at n = 400, d = 16: ten chunks.
    "resample": lambda est, workers: estimate_es(est, "resample", gauss(16), eta=0.1, n=400,
                                                 trials=100, seed=3, workers=workers),
    # 16 trials a chunk at n = 4001: seven chunks.
    "median-exact": lambda est, workers: estimate_es(est, "median-exact", gauss(1), eta=0.1,
                                                     n=4001, trials=100, seed=3,
                                                     workers=workers),
    # Four chunks; the experiment takes no workers, so it runs on the default.
    "variance-obstruction": lambda est, workers: variance_obstruction(est, gauss(16), eta=0.1,
                                                                      n=400, trials=40, seed=3),
}


@pytest.mark.parametrize("name", sorted(THREADED_JOBS))
def test_the_estimator_runs_on_the_calling_thread_only(monkeypatch, name):
    run_on_cpus(monkeypatch, 3)
    started = count_helpers(monkeypatch)
    base = sl.median_estimator(1) if name == "median-exact" else sl.mean_estimator(16)
    est = RecordingEstimator(base)
    got = text(THREADED_JOBS[name](est, 3))
    assert len(started) == 2
    assert est.threads == {threading.get_ident()}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert got == text(THREADED_JOBS[name](base, 1))
    assert len(started) == 2


NO_HELPER_JOBS = {
    "one-cpu": lambda: estimate_es("mean", "resample", gauss(16), eta=0.1, n=400, trials=100,
                                   seed=3),
    "one-cpu/variance-obstruction": lambda: variance_obstruction("mean", gauss(16), eta=0.1,
                                                                 n=400, trials=40, seed=3),
    "tv-coupling": lambda: estimate_es("clipped-mean", "tv-coupling", gauss(1), eta=0.05, n=2000,
                                       trials=100, seed=3, workers=3),
    "coupling-obstruction": lambda: coupling_obstruction_high("clipped-mean", eta=0.1, n=2000,
                                                              trials=100, seed=3),
    "hamming-ball": lambda: estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.4),
                                        eta=0.2, n=10, trials=300, seed=3, workers=3),
    # 1999 entries a trial, 32 trials a chunk: four chunks.
    "below-crossover": lambda: estimate_es("mean", "resample", gauss(1), eta=0.1, n=1999,
                                           trials=100, seed=3, workers=3),
    "below-crossover/mean-obstruction": lambda: mean_obstruction_low(
        "clipped-mean", eta=0.05, delta=0.5, n=400, trials=1000, seed=3),
}


@pytest.mark.parametrize("name", sorted(NO_HELPER_JOBS))
def test_no_helper_starts_where_the_rule_keeps_one_thread(monkeypatch, name):
    cpus = 1 if name.startswith("one-cpu") else 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    started = count_helpers(monkeypatch)
    NO_HELPER_JOBS[name]()
    assert started == []


def test_helpers_start_at_the_crossover(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    started = count_helpers(monkeypatch)
    estimate_es("mean", "resample", gauss(1), eta=0.1, n=harness._THREADED_MIN_ENTRIES,
                trials=100, seed=3)
    assert len(started) == 2


@pytest.mark.parametrize("workers", [0, -1, 1.5, math.nan])
def test_a_bad_worker_count_fails_before_any_draw(monkeypatch, workers):
    monkeypatch.setattr(harness, "_trial_streams", no_trials)
    message = rf"^workers must be an integer >= 1, got {workers!r}$"
    with pytest.raises(ValueError, match=message):
        estimate_es("mean", "resample", gauss(16), eta=0.1, n=400, trials=100, workers=workers)
    with pytest.raises(ValueError, match=message):
        sl.scaling_sweep("mean", "resample", variable="eta", values=[0.1, 0.2, 0.3, 0.4],
                         n=400, trials=100, workers=workers)


def test_a_one_chunk_request_runs_on_the_calling_thread(monkeypatch):
    # 10 trials a chunk at n = 400, d = 16: 10 trials are one chunk, 11 are two.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    started = count_helpers(monkeypatch)
    variance_obstruction("mean", gauss(16), eta=0.1, n=400, trials=10, seed=3)
    assert started == []
    variance_obstruction("mean", gauss(16), eta=0.1, n=400, trials=11, seed=3)
    assert len(started) == 1


def test_one_column_norms_are_the_row_dot():
    rng = np.random.default_rng(77)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64, endpoint=False)
    magnitudes = bits.view(np.float64)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e200, -1e200])
    diff = np.concatenate([edges, magnitudes[np.isfinite(magnitudes)]])[:, None]
    # The squares of 1e200 and of about half the random magnitudes overflow;
    # dot and the product both warn.
    with np.errstate(over="ignore"):
        want = np.array([math.sqrt(row.dot(row)) for row in diff])
        got = harness._row_norms(diff)
    assert got.tobytes() == want.tobytes()
    # 5e-324^2 rounds to 0; 1e-160^2 is subnormal, and its root is near 1e-160.
    assert got[:4].tobytes() == np.zeros(4).tobytes()
    assert 0.99e-160 < got[4] == got[5] < 1.01e-160
    assert got[6] == got[7] == math.inf


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_out_of_range_seed_raises(seed):
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        estimate_es("mean", "resample", gauss(1), eta=0.1, n=20, trials=100, seed=seed)
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        mean_obstruction_low("clipped-mean", eta=0.1, delta=0.5, n=20, trials=10, seed=seed)
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        variance_obstruction("mean", gauss(1), eta=0.1, n=20, trials=10, seed=seed)


@pytest.mark.parametrize("adversary", ["resample", "local-shift", "block-resample"])
def test_non_finite_rows_raise(adversary):
    model = gauss(1)
    object.__setattr__(model, "mu", np.array([np.inf]))
    with pytest.raises(ValueError, match="finite"):
        estimate_es("mean", adversary, model, eta=0.1, n=30, trials=100, seed=0,
                    delta=0.5 if adversary == "local-shift" else None)
    with pytest.raises(ValueError, match="finite"):
        variance_obstruction("mean", model, eta=0.1, n=30, trials=10, seed=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_shift_raises():
    # The clean rows are finite; only the shifted rows overflow.
    with pytest.raises(ValueError, match="finite"):
        estimate_es("mean", "local-shift", gauss(1, 1.5e308), eta=0.1, n=30, trials=100, seed=0,
                    delta=1.5e308)


def test_infeasible_trial_scores_zero(monkeypatch):
    n, k = 60, 6
    # Blocks alternate between k rows (feasible) and 2k rows (over budget).
    layout = [(0, 6), (6, 18), (18, 24), (24, 36), (36, 42), (42, 54), (54, 60)]
    monkeypatch.setattr(harness, "block_layout", lambda n_, k_: layout)
    report = estimate_es("mean", "block-resample", gauss(2), eta=k / n + 1e-9, n=n, trials=140,
                         seed=4)
    over = np.array([layout[t % len(layout)][1] - layout[t % len(layout)][0] > k
                     for t in range(140)])
    assert np.all(report.per_trial[over] == 0.0)
    assert np.all(report.per_trial[~over] > 0.0)


def test_variance_peak_memory():
    model = gauss(16)
    variance_obstruction("mean", model, eta=0.1, n=400, trials=10, seed=0)
    tracemalloc.start()
    try:
        variance_obstruction("mean", model, eta=0.1, n=400, trials=25, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_variance_rejects_other_models():
    with pytest.raises(ValueError, match="GaussianModel"):
        variance_obstruction("bernoulli-plugin", sl.BernoulliModel(0.5), eta=0.1, n=20, trials=10)


# --- open uniforms ---

def integer_uniform_open(gen, size):
    """The former draw: (j + 0.5) / 2^53 over gen.integers(0, 2^53)."""
    j = gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (j.astype(np.float64) + 0.5) * (2.0 ** -53)


def stream_position(gen) -> tuple:
    state = gen.bit_generator.state
    return (state["state"]["counter"].tobytes(), state["buffer_pos"], state["has_uint32"])


@pytest.mark.parametrize("size", [(), None, 1, 7, (3, 5), (0,), 4097])
def test_uniform_open_matches_integer_draw(size):
    for seed, stream_id in KEYS:
        a = RngStream(seed, stream_id).generator()
        b = RngStream(seed, stream_id).generator()
        got, want = uniform_open(a, size), integer_uniform_open(b, size)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert stream_position(a) == stream_position(b)
        assert a.choice(1000, size=5, replace=False).tobytes() == \
            b.choice(1000, size=5, replace=False).tobytes()


def test_open_unit_extremes():
    top = 1.0 - 2.0 ** -53  # random() for j = 2^53 - 1
    assert top + 2.0 ** -54 == 1.0  # unclamped, (j + 0.5) / 2^53 rounds to 1
    u = _open_unit(np.array([top, 0.0]))
    assert u[0] == np.nextafter(1.0, 0.0) < 1.0
    assert u[1] == 2.0 ** -54
    assert np.all(np.isfinite(special.ndtri(u)))
    buf = np.array([top, 0.5])
    assert _open_unit(buf, out=buf) is buf and buf[0] < 1.0


def test_uniform_scalar_is_the_open_uniform_draw():
    priors = [(-0.5, 0.5), (0.0, 1.0), (2.0, 3.7), (-1e3, -1e-3)]
    for t in range(10_000):
        a, b = RngStream(2024, t).generator(), RngStream(2024, t).generator()
        if t % 2:
            # Leave a half-used 32-bit draw before the double.
            a.integers(0, 7, size=3)
            b.integers(0, 7, size=3)
        lo, hi = priors[t % len(priors)]
        got = harness._uniform_scalar(a, lo, hi)
        assert got == lo + (hi - lo) * float(uniform_open(b, ()))
        assert stream_position(a) == stream_position(b)


@pytest.mark.parametrize("j", [0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 53 - 1])
def test_uniform_scalar_add_and_clamp_is_open_unit(j):
    class Fixed:
        def random(self):
            return j * 2.0 ** -53

    want = float(_open_unit(np.array([j * 2.0 ** -53]))[0])
    assert harness._uniform_scalar(Fixed(), 0.0, 1.0) == want < 1.0


def test_uniform_open_never_returns_one():
    class TopDraws:
        def random(self, size):
            return np.full(size, 1.0 - 2.0 ** -53)

    assert np.all(uniform_open(TopDraws(), 4) < 1.0)
    assert np.all(np.isfinite(sl.standard_normal(TopDraws(), 4)))

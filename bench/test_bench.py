"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

import json
import os
import statistics
from dataclasses import replace

import numpy as np

import run
import worker
import workloads
from tracing import COUNT_METRICS, Tracer, _bindings
from worker import sl


def _kind(name, call, check=lambda r, s: []) -> workloads.JobKind:
    return workloads.JobKind(name, call, call, repr, lambda r: 0, check)


def _small_kinds() -> list[workloads.JobKind]:
    """A fast cycle that still reaches every counted layer."""
    plugin = sl.plugin_estimator()
    budget = sl.CorruptionBudget.from_eta(0.2, 8)
    trial_check = lambda r, s: workloads._per_trial_problems(r)  # noqa: E731
    return [
        workloads._es("tv", 100, trial_check, "clipped-mean", "tv-coupling",
                      sl.GaussianModel(np.zeros(1)), eta=0.05, n=200),
        workloads._es("ball", 100, trial_check, "bernoulli-plugin", "hamming-ball",
                      sl.BernoulliModel(0.5), eta=0.2, n=8),
        _kind("enum", lambda s: sl.bernoulli_expected_sensitivity(plugin, 8, 0.5, budget)),
    ]


def test_raising_job_is_counted_as_failed_not_dropped():
    def boom(seed):
        raise RuntimeError("injected failure")

    kinds = [_small_kinds()[2], _kind("boom", boom)]
    records = worker.run_cycles(kinds, seed=3, cycles=2)
    assert [r["kind"] for r in records] == ["enum", "boom", "enum", "boom"]
    assert [r["ok"] for r in records] == [True, False, True, False]
    assert "injected failure" in records[1]["problems"][0]
    for r in records:
        r["ref_s"] = run.REF_NOMINAL_S
    metrics, facts = run.end_to_end(records, [(1.0, 1.0)], run.REF_NOMINAL_S, 50.0)
    assert facts["latency_jobs"] == 2  # failed jobs do not enter the latencies
    ok_walls = [r["wall_s"] for r in records if r["ok"]]
    assert metrics["job_p50_s"]["value"] == statistics.median(ok_walls)


def test_failed_check_is_counted_as_failed():
    kind = _kind("wrong", lambda s: 1.0, lambda r, s: ["value is wrong"])
    (record,) = worker.run_cycles([kind], seed=1, cycles=1)
    assert not record["ok"] and record["problems"] == ["value is wrong"]


def test_same_seed_gives_same_digest():
    kinds = _small_kinds()
    first = worker.digest(worker.run_cycles(kinds, seed=11, cycles=1))
    again = worker.digest(worker.run_cycles(kinds, seed=11, cycles=1))
    other = worker.digest(worker.run_cycles(kinds, seed=12, cycles=1))
    assert first == again != other


def test_tracing_keeps_results_and_counts_repeat():
    kinds = _small_kinds()
    one = worker.trace_pass(kinds, seed=5, cycles=1)
    two = worker.trace_pass(kinds, seed=5, cycles=1)
    assert all(r["ok"] for r in one["plain"] + one["traced"])
    assert worker.digest(one["plain"]) == worker.digest(one["traced"])
    assert worker.digest(one["traced"]) == worker.digest(two["traced"])
    for name in COUNT_METRICS:
        assert one["layers"][name] == two["layers"][name], name
    layers = one["layers"]
    assert layers["adversaries.coupling.rounds"] > 0
    assert layers["adversaries.hamming-ball.points"] == 100 * 8  # radius 1 in {0,1}^8
    assert layers["bernoulli.exact.mask_steps"] == 2 ** 8 * 8
    assert layers["harness.trials"] == 200


def test_self_times_sum_to_traced_wall_within_overhead():
    res = worker.trace_pass(workloads.mc_light(5), seed=5, cycles=1)
    selfs = res["tracer"].self_times()
    assert min(selfs) >= 0.0
    overhead = max(res["traced_wall_s"] - res["plain_wall_s"], 0.0)
    unattributed = res["traced_wall_s"] - res["self_sum_s"]
    assert 0.0 <= unattributed <= overhead + 0.02 * res["traced_wall_s"]


def test_tracer_restores_every_binding():
    before = [getattr(owner, attr) for owner, attr, *_ in _bindings()]
    with Tracer().installed():
        during = [getattr(owner, attr) for owner, attr, *_ in _bindings()]
    after = [getattr(owner, attr) for owner, attr, *_ in _bindings()]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_tail_has_ten_jobs_beyond_it_and_is_at_least_p90():
    walls = [float(i) for i in range(1, 201)]
    assert run.tail(walls) == (190.0, 95.0, run.TAIL_BEYOND)
    few = [float(i) for i in range(1, 13)]
    value, pct, beyond = run.tail(few)
    assert pct >= run.TAIL_MIN_PERCENTILE and value == 11.0 and beyond == 1


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    records = worker.run_cycles(_small_kinds()[2:], seed=1, cycles=11, ref=True)
    metrics, _ = run.end_to_end(records, [(1.0, 1.0)], run.REF_NOMINAL_S, 50.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()}
    layers = dict(Tracer().layer_metrics(), **{"trace.overhead_ratio": 1.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._layer_unit(name) for name in layers}


def test_mean_low_check_bounds_the_displacement():
    report = sl.mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=400, trials=200, seed=4)
    assert workloads._mean_low_problems(report) == []
    shift = report.k * report.delta / report.n
    for wrong in (0.0, 0.5 * shift, shift + 1e-9):
        assert workloads._mean_low_problems(replace(report, avg_displacement=wrong))


def test_analysis_checks_pass_and_catch_a_wrong_result():
    (kind,) = workloads.analysis_jobs(2)
    results = kind.warmup(2)
    assert kind.check(results, 2) == []
    cramer_rao = results[2]
    results[2] = replace(cramer_rao, rhs=2 * cramer_rao.rhs)
    assert len(kind.check(results, 2)) == 1

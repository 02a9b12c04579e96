"""One fresh benchmark process: set up a workload, then run its jobs.

    python3 bench/worker.py --workload NAME --seed N --mode MODE [--seconds S] [--spans PATH]

Modes:

* ``setup``: import senslab, build the workload's models and estimators, run
  one untimed warm-up job of each kind, report the set-up time and exit;
* ``run``: set up, then run whole cycles of jobs back to back (a closed loop
  with one client). The number of cycles is fixed by ``--seconds`` and the
  workload's nominal cycle time, so every run of a workload does the same
  jobs and its latency percentiles cover the same job count;
* ``trace``: set up, then run a fixed list of ``TRACE_CYCLES`` cycles twice,
  untraced and traced, and report the per-layer metrics. The list is fixed,
  not timed, so counts compare across commits and repeat exactly per seed.

The last line of stdout is one JSON object for ``run.py``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import special  # noqa: E402

import senslab as sl  # noqa: E402

if not os.path.abspath(sl.__file__).startswith(os.path.join(ROOT, "src", "")):
    raise SystemExit(f"senslab was imported from {sl.__file__}, not from {ROOT}/src")

import workloads  # noqa: E402
from tracing import COUNT_METRICS, Tracer  # noqa: E402

# Fewest jobs in a run: job_tail_s looks for 10 jobs beyond its percentile.
MIN_JOBS = 11
# A run stops early once it has taken this many times --seconds.
CAP_FACTOR = 3.0
# Reference samples taken right after set-up, to rescale the set-up time.
SETUP_REF_SAMPLES = 20
TRACE_CYCLES = {"mc-light": 4, "mc-heavy": 1, "exact": 4, "analysis": 2}
# After each measured job, reference samples are taken off the clock until
# they add up to this share of the job's time, and at least REF_MIN of them.
REF_SHARE = 0.1
REF_MIN = 2
# Fixed inputs of the reference work, independent of senslab.
_REF_RNG = np.random.default_rng(12345)
_REF_SMALL = _REF_RNG.random(200_000)
_REF_BIG = _REF_RNG.random(1_000_000)
_REF_ROWS = _REF_RNG.random((2000, 101))
_REF_TINY = _REF_RNG.random(16)


def reference_s() -> float:
    """Time a fixed mix of the work senslab does, without calling senslab.

    Interpreter loop, inverse-CDF transform on an L2-sized and a larger
    array, row-wise selection and tiny numpy calls. Only the host's speed
    moves it; run.py divides each job's time by the reference time around it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    special.ndtri(_REF_SMALL).sum()
    special.ndtri(_REF_BIG).sum()
    np.partition(_REF_ROWS, 50, axis=1)
    for _ in range(300):
        np.add(_REF_TINY, _REF_TINY)
    return time.perf_counter() - t0


def run_job(kind: workloads.JobKind, seed: int, tracer: Tracer | None = None) -> dict:
    """Time one job (call plus payload serialisation), then check it.

    A job that raises or fails a check is recorded as failed, never dropped.
    """
    error = None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        result = kind.run(seed)
        text = kind.payload(result)
    except Exception:  # a failing job is a measured outcome, not a crash
        error = traceback.format_exc(limit=4)
    finally:
        if tracer is not None:
            tracer.active = False
    record = {"kind": kind.name, "seed": seed,
              "wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
    if error is not None:
        record.update(ok=False, problems=[error], trials=0, digest=None)
        return record
    try:
        problems = kind.check(result, seed)
    except Exception:  # a check that cannot run fails the job
        problems = ["check raised: " + traceback.format_exc(limit=4)]
    record.update(ok=not problems, problems=problems, trials=int(kind.trials(result)),
                  digest=hashlib.sha256(text.encode()).hexdigest())
    return record


def run_cycles(kinds, seed: int, cycles: int, *, cap_s: float | None = None,
               tracer: Tracer | None = None, ref: bool = False) -> list[dict]:
    """Run ``cycles`` whole cycles of ``kinds`` back to back.

    Job ``j`` (counted across cycles) gets seed ``job_seed(seed, j)``, so
    runs of one seed share their first jobs. Past ``cap_s`` seconds the run
    stops at the next cycle boundary that leaves ``MIN_JOBS`` jobs. With
    ``ref``, each record gets the median of reference samples taken right
    after the job, off the clock.
    """
    records: list[dict] = []
    start = time.perf_counter()
    for cycle in range(cycles):
        if (cap_s is not None and len(records) >= MIN_JOBS
                and time.perf_counter() - start > cap_s):
            break
        for i, kind in enumerate(kinds):
            index = cycle * len(kinds) + i
            if tracer is not None:
                tracer.job = index
            record = run_job(kind, workloads.job_seed(seed, index), tracer)
            record.update(job=index, cycle=cycle)
            records.append(record)
            if ref:
                samples = [reference_s() for _ in range(REF_MIN)]
                while sum(samples) < REF_SHARE * record["wall_s"]:
                    samples.append(reference_s())
                record["ref_s"] = statistics.median(samples)
    return records


def digest(records: list[dict]) -> str:
    """sha256 over the jobs' payload digests, in job order."""
    text = "\n".join(r["digest"] or "failed" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


def setup(workload: str, seed: int):
    """Build the workload and run one untimed warm-up job of each kind."""
    kinds = workloads.WORKLOAD_JOBS[workload](seed)
    for i, kind in enumerate(kinds):
        kind.payload(kind.warmup(workloads.job_seed(seed, -1 - i)))
    return kinds, time.perf_counter() - T_START


def trace_pass(kinds, seed: int, cycles: int) -> dict:
    """Run the fixed job list untraced, then traced; return both and the layers."""
    plain = run_cycles(kinds, seed, cycles)
    tracer = Tracer()
    with tracer.installed():
        traced = run_cycles(kinds, seed, cycles, tracer=tracer)
    plain_wall = sum(r["wall_s"] for r in plain)
    traced_wall = sum(r["wall_s"] for r in traced)
    layers = tracer.layer_metrics()
    layers["trace.overhead_ratio"] = traced_wall / plain_wall
    return {
        "plain": plain,
        "traced": traced,
        "tracer": tracer,
        "layers": layers,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "self_sum_s": sum(tracer.self_times()),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", help="write the traced spans here (trace mode)")
    args = parser.parse_args(argv)

    kinds, setup_s = setup(args.workload, args.seed)
    out = {"setup_s": setup_s, "versions": {
        "senslab": sl.__version__, "numpy": np.__version__, "scipy": scipy.__version__,
        "senslab_file": sl.__file__,
    }}
    if args.mode != "trace":
        out["setup_ref_s"] = [reference_s() for _ in range(SETUP_REF_SAMPLES)]
    if args.mode == "run":
        cycles = max(math.ceil(MIN_JOBS / len(kinds)),
                     round(args.seconds / workloads.NOMINAL_CYCLE_S[args.workload]))
        out["jobs"] = run_cycles(kinds, args.seed, cycles, cap_s=CAP_FACTOR * args.seconds,
                                 ref=True)
    elif args.mode == "trace":
        res = trace_pass(kinds, args.seed, TRACE_CYCLES[args.workload])
        if args.spans:
            res["tracer"].dump(args.spans)
        out.update(
            jobs=res["plain"] + res["traced"],
            layers=res["layers"],
            counts={name: res["layers"][name] for name in COUNT_METRICS},
            digest_untraced=digest(res["plain"]),
            digest_traced=digest(res["traced"]),
            untraced_wall_s=res["plain_wall_s"],
            traced_wall_s=res["traced_wall_s"],
            span_self_sum_s=res["self_sum_s"],
            spans=len(res["tracer"].rows),
        )
    if "jobs" in out:
        out["digest"] = digest(out["jobs"][:len(kinds)])
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""senslab benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {mc-light,mc-heavy,exact,analysis} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; senslab is imported from ``src/``. Every
measurement runs in a fresh ``bench/worker.py`` process with BLAS/OpenMP
pools capped at the CPU count.

``--trace 0`` starts ``SETUP_PROBES`` set-up-only processes, then one that
sets up and runs the workload's jobs for about ``--seconds``, and prints the
end-to-end metrics. Times are rescaled to a nominal host speed: each process
also times a fixed reference work that calls no senslab code (after set-up,
and after every job, off the clock), and a time is multiplied by
``REF_NOMINAL_S`` over the reference time measured around it. This removes
most of the host's speed drift (10-35% between runs on a shared 2-core VM)
and leaves changes in senslab's own speed; the unscaled values are in the
detail line.

* ``setup_s``: median set-up time (import, build, one warm-up job per kind)
  over the probes and the measuring process;
* ``trials_per_s``: Monte Carlo trials over the time of the jobs that ran
  them, per cycle of jobs, median over cycles;
* ``job_p50_s``, ``job_tail_s``: median job latency, and the latency at the
  highest percentile that still has 10 jobs beyond it, but never below the
  90th (a run of mc-heavy holds too few jobs for 10 beyond the 90th);
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` runs a fixed job list untraced and then traced, and prints the
per-layer metrics of ``bench/tracing.py``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the run's provenance, payload digest and latency
percentile. Both, with every job record, are also written to ``bench/out/``.
The exit code is 0 whenever that result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-light", "mc-heavy", "exact", "analysis")
SETUP_PROBES = 2
# Every run must end within 180 s; children are killed past this deadline.
DEADLINE_S = 170.0
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 90
# Nominal time of worker.reference_s(); timings are rescaled to it.
REF_NOMINAL_S = 0.019
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Cache sizes in bytes as glibc reports them (``getconf``)."""
    try:
        done = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    out = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            out[parts[0].lower()] = int(parts[1])
    return out


def _git_commit() -> str:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run bench/worker.py to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} passed the {DEADLINE_S:.0f} s deadline")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {done.returncode}")
    return json.loads(lines[-1])


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, jobs beyond) at the highest percentile with
    TAIL_BEYOND jobs beyond it, or at TAIL_MIN_PERCENTILE (nearest rank) if
    that is higher.
    """
    ordered = sorted(walls)
    i = max(len(ordered) - TAIL_BEYOND - 1,
            math.ceil(TAIL_MIN_PERCENTILE / 100 * len(ordered)) - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - i - 1


def trials_per_s(jobs: list[dict], key: str) -> float:
    """Median over cycles of (trials completed / time of the jobs that ran trials)."""
    per_cycle: dict[int, list[float]] = {}
    for job in jobs:
        if job["ok"] and job["trials"] > 0:
            acc = per_cycle.setdefault(job["cycle"], [0.0, 0.0])
            acc[0] += job["trials"]
            acc[1] += job[key]
    rates = [trials / wall for trials, wall in per_cycle.values()]
    return statistics.median(rates) if rates else 0.0


def host_scale(ref_s: float) -> float:
    """Factor that turns seconds measured at reference time ``ref_s`` into nominal seconds."""
    return REF_NOMINAL_S / ref_s


def end_to_end(jobs: list[dict], setups: list[tuple[float, float]], first_ref_s: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of a measured run, plus the facts behind them.

    ``setups`` holds (set-up seconds, reference seconds after it) per
    process. Each job's ``ref_s`` is the reference time right after it; the
    one before it is its predecessor's (``first_ref_s`` for the first job).
    """
    before = first_ref_s
    for job in jobs:
        job["nominal_s"] = job["wall_s"] * host_scale((before + job["ref_s"]) / 2)
        before = job["ref_s"]
    timed = [j for j in jobs if j["ok"]] or jobs
    values = {}
    for key in ("wall_s", "nominal_s"):
        walls = [j[key] for j in timed]
        values[key] = {"trials_per_s": trials_per_s(jobs, key),
                       "job_p50_s": statistics.median(walls),
                       "job_tail_s": tail(walls)[0]}
    nominal = values["nominal_s"]
    _, tail_percentile, tail_beyond = tail([j["wall_s"] for j in timed])
    metrics = {
        "setup_s": (statistics.median(t * host_scale(ref) for t, ref in setups), "s"),
        "trials_per_s": (nominal["trials_per_s"], "trials/s"),
        "job_p50_s": (nominal["job_p50_s"], "s"),
        "job_tail_s": (nominal["job_tail_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    facts = {
        "unscaled": dict(values["wall_s"], setup_s=statistics.median(t for t, _ in setups)),
        "setup_ref_s": [ref for _, ref in setups],
        "job_ref_p50_s": statistics.median(j["ref_s"] for j in jobs),
        "latency_jobs": len(timed),
        "job_tail_percentile": round(tail_percentile, 2),
        "job_tail_jobs_beyond": tail_beyond,
        "cycles": len({j["cycle"] for j in jobs}),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, facts


def per_kind(jobs: list[dict]) -> dict:
    out = {}
    for kind in dict.fromkeys(j["kind"] for j in jobs):
        mine = [j for j in jobs if j["kind"] == kind]
        out[kind] = {
            "jobs": len(mine),
            "failed": sum(not j["ok"] for j in mine),
            "wall_p50_s": statistics.median(j["wall_s"] for j in mine),
            "cpu_p50_s": statistics.median(j["cpu_s"] for j in mine),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "senslab", "__init__.py")):
        print(f"bench: no senslab sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = _nproc()
    env = dict(os.environ, **{name: str(nproc) for name in BLAS_ENV})
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{stem}.json")
            res = _worker(common + ["--mode", "trace", "--spans", spans], env, deadline)
            metrics = {name: {"value": value, "unit": _layer_unit(name)}
                       for name, value in res["layers"].items()}
            problems = []
            if res["digest_traced"] != res["digest_untraced"]:
                problems.append("traced and untraced payload digests differ")
            facts = {
                "digest_untraced": res["digest_untraced"],
                "digest_traced": res["digest_traced"],
                "counts": res["counts"],
                "untraced_wall_s": res["untraced_wall_s"],
                "traced_wall_s": res["traced_wall_s"],
                "span_self_sum_s": res["span_self_sum_s"],
                "spans": res["spans"],
                "spans_file": os.path.relpath(spans, ROOT),
            }
        else:
            probes = [_worker(common + ["--mode", "setup"], env, deadline)
                      for _ in range(SETUP_PROBES)]
            res = _worker(common + ["--mode", "run", "--seconds", str(args.seconds)], env, deadline)
            setups = [(p["setup_s"], statistics.median(p["setup_ref_s"])) for p in probes + [res]]
            metrics, facts = end_to_end(res["jobs"], setups, setups[-1][1], res["peak_rss_mb"])
            problems = []
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1

    jobs = res["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(jobs),
        "failed": failed,
        "error_rate": failed / len(jobs),
        "problems": problems + [p for j in jobs for p in j["problems"]][:20],
        "digest_first_cycle": res["digest"],
        **facts,
        "per_kind": per_kind(jobs),
        "cpu_over_wall": sum(j["cpu_s"] for j in jobs) / sum(j["wall_s"] for j in jobs),
        "provenance": {
            "nproc": nproc,
            "cpu_model": _cpu_model(),
            "cache_bytes": _caches(),
            "python": platform.python_version(),
            **res["versions"],
            "git_commit": _git_commit(),
            "blas_thread_cap": nproc,
        },
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result, "jobs": jobs}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

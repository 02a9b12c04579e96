"""The benchmark's output contract: one cycle of every workload, checked and pinned.

Each workload in ``bench/workloads.py`` runs one cycle at seed 4242, job j
seeded with ``job_seed(4242, j)`` as ``bench/run.py`` seeds it. Every job's
own output check must pass, and the sha256 over the jobs' payload digests
must equal the pinned first-cycle digest, so a change that moves any byte of
a benchmark payload fails here before the benchmark compares runs.
"""

import hashlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

SEED = 4242
FIRST_CYCLE = {
    "mc-light": "d24a00bcf3be91832a24a3f397b27f37310216d517e8f7d4175e80fa77c64cff",
    "mc-heavy": "7fc10cc73d430c8701a46bccd118b5e7444ae8bf8c6e3e6b29d4470f84749d76",
    "exact": "182ce95e7e3cc03f421bfbe2d82e4bc67aa6d0fc886186d372524d52b03f8d95",
    "analysis": "ad3fe9e7d0d54e42eec6d121ddb6f432c62b30757b3b0a11dcf34c4514304fd6",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_cycle_checks_and_digest(workload):
    digests = []
    for j, kind in enumerate(workloads.WORKLOAD_JOBS[workload](SEED)):
        seed = workloads.job_seed(SEED, j)
        result = kind.run(seed)
        assert kind.check(result, seed) == [], kind.name
        digests.append(sha256(kind.payload(result)))
    assert sha256("\n".join(digests)) == FIRST_CYCLE[workload]

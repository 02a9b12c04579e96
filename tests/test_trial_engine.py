"""The chunked trial engine against golden reports and the per-trial loops it replaced.

The golden digests were computed from the per-trial implementation before
the engine existed. The reference loops below draw and evaluate one trial at
a time through the public adversaries, as that implementation did; the
engine does the same floating-point operations on the same values, so every
comparison is exact (bytes and ``==``), not approximate.
"""

import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import senslab as sl
from senslab import (
    CorruptionBudget,
    Dataset,
    GaussianModel,
    RngStream,
    analysis,
    block_layout,
    block_resample,
    build_estimator,
    estimate_es,
    local_shift_adversary,
    mean_obstruction_low,
    resampling_adversary,
    uniform_open,
    variance_obstruction,
)
from senslab import harness
from senslab.core import _open_unit, _rekey


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
    # No stack_fn: on_stack evaluates the stacked datasets one at a time.
    "es/projected:16/resample": (
        lambda: estimate_es(build_estimator("projected:16", d=4, seed=15), "resample", gauss(1),
                            eta=0.1, n=50, trials=100, seed=15),
        "7a1f14baf2f32274ba5119d7ba4b3feccc21416226c8635941bd2bc1d97bc8c1"),
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
    # Still per trial: pinned so that the engine leaves them alone.
    "obstruction/coupling-high": (
        lambda: sl.coupling_obstruction_high("clipped-mean", eta=0.1, n=500, trials=50, seed=20),
        "90169f1eb3c7f7ff2c775b556a358672d04b85d81538b05a9a4de87f9c8c6f8f"),
    "es/clipped-mean/tv-coupling": (
        lambda: estimate_es("clipped-mean", "tv-coupling", gauss(1), eta=0.05, n=500, trials=100,
                            seed=21),
        "1cc4d1d9a196c690f163de6b03a60217462cd9916776e3d5ca82de5d375f6887"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name):
    run, digest = GOLDEN[name]
    assert hashlib.sha256(text(run()).encode()).hexdigest() == digest


# --- reference loops: one trial at a time through the public adversaries ---

def reference_es(est, adversary, model, *, eta, n, trials, seed, delta=None):
    budget = CorruptionBudget.from_eta(eta, n)
    n_blocks = len(block_layout(n, budget.k)) if adversary == "block-resample" else 0
    values = np.empty(trials)
    for t in range(trials):
        x = model.sample(n, RngStream(seed, 2 * t))
        adv_rng = RngStream(seed, 2 * t + 1)
        if adversary == "resample":
            out = resampling_adversary(x, budget, model, adv_rng)
        elif adversary == "local-shift":
            out = local_shift_adversary(x, budget, delta, adv_rng)
        else:
            out = block_resample(x, budget, t % n_blocks, model, adv_rng)
        values[t] = float(np.linalg.norm(est(out.corrupted) - est(x))) if out.feasible else 0.0
    return values


def reference_mean_low(est, *, eta, delta, n, prior, trials, seed):
    budget = CorruptionBudget.from_eta(eta, n)
    disps = np.empty(trials)
    for t in range(trials):
        gen = RngStream(seed, 2 * t).generator()
        mu_prime = prior[0] + (prior[1] - prior[0]) * float(uniform_open(gen, ()))
        x = Dataset(mu_prime + sl.standard_normal(gen, (n, 1)))
        out = local_shift_adversary(x, budget, delta, RngStream(seed, 2 * t + 1))
        disps[t] = float(est(out.corrupted)[0] - est(x)[0])
    return disps


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
            stack[i, start:stop, :] = model.draw(adv_gen, stop - start)
        gaps[t] = ((est.on_stack(stack) - fx) ** 2).sum(axis=1)
    return outputs, gaps


@settings(max_examples=40, deadline=None)
@given(
    adversary=st.sampled_from(["resample", "local-shift", "block-resample"]),
    name=st.sampled_from(["mean", "median", "clipped-mean", "clipped-median"]),
    n=st.integers(2, 90),
    d=st.integers(1, 5),
    eta=st.floats(0.01, 0.6),
    mu=st.floats(-3.0, 3.0),
    trials=st.integers(100, 130),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_es_matches_per_trial_loop(adversary, name, n, d, eta, mu, trials, seed):
    if adversary == "local-shift" or name.startswith("clipped"):
        d = 1
    if adversary != "resample" and sl.compute_k(eta, n) < 1:
        eta = 1.0 / n + 1e-9
    model = gauss(d, mu)
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


@pytest.mark.parametrize("name,d,n,eta,trials", [
    ("mean", 16, 400, 0.1, 23),
    ("median", 3, 101, 0.07, 30),
    ("mean", 1, 2000, 0.3, 70),
])
def test_variance_matches_per_trial_loop(name, d, n, eta, trials):
    model = gauss(d, 0.4)
    report = variance_obstruction(name, model, eta=eta, n=n, trials=trials, seed=9)
    outputs, gaps = reference_variance(build_estimator(name, d=d, seed=9), model, eta=eta, n=n,
                                       trials=trials, seed=9)
    assert report.block_gaps == tuple(float(v) for v in gaps.mean(axis=0))
    assert (report.var_clean, report.var_clean_stderr) == analysis._variance_with_se(outputs)


# --- threads, streams, checks and memory ---

@pytest.mark.parametrize("adversary,model,n,trials,delta", [
    ("resample", gauss(16), 200, 100, None),     # 20 trials per chunk
    ("local-shift", gauss(1), 1000, 200, 0.5),   # 65 trials per chunk
    ("block-resample", gauss(4), 300, 150, None),  # 54 trials per chunk
    ("resample", gauss(1), 101, 100, None),      # one chunk, fewer shards than workers
])
def test_reports_identical_across_workers(adversary, model, n, trials, delta):
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        texts = [estimate_es("mean", adversary, model, eta=0.1, n=n, trials=trials, seed=5,
                             delta=delta, workers=w).to_json(include_trials=True)
                 for w in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert texts[0] == texts[1] == texts[2]


KEYS = [(0, 0), (0, 2 ** 64 - 1), (2 ** 64 - 1, 0), (2 ** 64 - 1, 2 ** 64 - 1)] + [
    (int(a), int(b)) for a, b in np.random.default_rng(2024).integers(
        0, 2 ** 64, size=(12, 2), dtype=np.uint64, endpoint=False)]


def draws(gen: np.random.Generator) -> tuple:
    return (gen.random(5).tobytes(), gen.integers(0, 10, size=3).tobytes(),
            gen.choice(50, size=4, replace=False).tobytes(), gen.standard_normal(3).tobytes())


def test_rekey_draws_the_stream_bytes():
    gen = np.random.Generator(np.random.Philox(0))
    for seed, stream_id in KEYS:
        # Leave a half-used 32-bit draw and a partly used Philox output block.
        gen.integers(0, 7, size=3)
        gen.random(3)
        assert draws(_rekey(gen, seed, stream_id)) == draws(RngStream(seed, stream_id).generator())


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
        estimate_es("mean", adversary, model, eta=0.1, n=30, trials=100, seed=0, delta=0.5)
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


def test_uniform_open_never_returns_one():
    class TopDraws:
        def random(self, size):
            return np.full(size, 1.0 - 2.0 ** -53)

    assert np.all(uniform_open(TopDraws(), 4) < 1.0)
    assert np.all(np.isfinite(sl.standard_normal(TopDraws(), 4)))

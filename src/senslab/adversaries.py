"""Contamination mechanisms, each returning a machine-checkable certificate.

Every adversary takes a clean dataset (or generates a coupled pair) and
returns an :class:`AdversaryOutcome` whose achieved Hamming distance is
recomputed from the data -- never trusted from the construction -- together
with a feasibility flag against the budget and, where an exact worst case is
known, a certificate value.

The resampling, local-shift and block draws are written once, as bodies that
corrupt a (T, n, d) stack with one generator per trial: the trial engine runs
them on a chunk of trials, the public functions on a one-trial stack.

Mechanisms:

* ``resampling_adversary``   -- refresh a uniformly random k-subset of rows
  from the clean model (the weakest adversary).
* ``local_shift_adversary``  -- add +delta to a uniformly random k-subset of
  scalar samples.
* ``tv_coupling_adversary``  -- jointly draw (X, X') with N(mu, 1) and
  N(mu + eta, 1) marginals via independent coordinatewise maximal couplings;
  the corrupted indices are the coordinates where the coupling fails.
* ``block_resample``         -- refresh one block of a fixed partition of
  [n] into ceil(n/k) consecutive blocks of size at most k.
* ``median_worst_case``      -- the exact worst-case median displacement
  under k row replacements, with an achieving dataset.
* ``hamming_ball_sup``       -- exact sup over the radius-k Hamming ball for
  estimators on binary data, by full enumeration in stacked chunks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import tv_gaussian_shift
from .core import (
    CorruptionBudget,
    Dataset,
    GaussianModel,
    RngStream,
    hamming_distance,
    standard_normal,
    uniform_open,
)
from .estimators import Estimator

__all__ = [
    "AdversaryOutcome",
    "resampling_adversary",
    "local_shift_adversary",
    "tv_coupling_adversary",
    "couple_gaussian_pair",
    "block_resample",
    "block_layout",
    "median_worst_case",
    "hamming_ball_sup",
]

_BALL_GUARD = 10 ** 6
# Ball points per f.on_stack call in hamming_ball_sup.
_BALL_CHUNK = 8192
# Proposals per residual round, and in total per call, of couple_gaussian_pair.
_COUPLING_BLOCK = 1 << 20
_COUPLING_MAX_PROPOSALS = 1 << 26


@dataclass(frozen=True)
class AdversaryOutcome:
    """Corrupted dataset plus its certificate.

    ``achieved_hamming`` is recomputed via ``hamming_distance`` and
    ``feasible`` is exactly ``achieved_hamming <= k``.
    """

    corrupted: Dataset
    achieved_hamming: int
    feasible: bool
    certificate: float | None = None


def _outcome(original: Dataset, corrupted: Dataset, budget: CorruptionBudget,
             certificate: float | None = None) -> AdversaryOutcome:
    achieved = hamming_distance(original, corrupted)
    return AdversaryOutcome(
        corrupted=corrupted,
        achieved_hamming=achieved,
        feasible=achieved <= budget.k,
        certificate=certificate,
    )


def _check_budget(x: Dataset, budget: CorruptionBudget) -> None:
    if budget.n != x.n:
        raise ValueError(f"budget is for n={budget.n} but dataset has n={x.n}")


def _chosen_rows(clean: np.ndarray, k: int, gens, fresh: np.ndarray | None = None):
    """Index of k random rows per trial of ``clean`` by ``choice``, after which the
    trial's generator fills its ``fresh`` rows. ``gens`` yields one generator
    per trial and is consumed in trial order, so each may be the previous one
    re-keyed."""
    idx = np.empty((clean.shape[0], k), dtype=np.intp)
    for i, gen in enumerate(gens):
        idx[i] = gen.choice(clean.shape[1], size=k, replace=False)
        if fresh is not None:
            gen.random(out=fresh[i])
    return np.arange(clean.shape[0])[:, None], idx


def _resample_stack(clean: np.ndarray, budget: CorruptionBudget, model, gens) -> np.ndarray:
    """Copy of the stack ``clean`` with k random rows per trial redrawn from the model."""
    fresh = np.empty((clean.shape[0], budget.k, clean.shape[2]))
    chosen = _chosen_rows(clean, budget.k, gens, fresh)
    corrupted = clean.copy()
    corrupted[chosen] = model.from_random(fresh)
    return corrupted


def _shift_stack(clean: np.ndarray, budget: CorruptionBudget, delta: float, gens) -> np.ndarray:
    """Copy of the stack ``clean`` with k random rows per trial shifted by +delta."""
    chosen = _chosen_rows(clean, budget.k, gens)
    corrupted = clean.copy()
    corrupted[chosen] = clean[chosen] + float(delta)
    return corrupted


def _block_stack(clean: np.ndarray, model, blocks, gens) -> np.ndarray:
    """Copy of the stack ``clean`` with each trial's block [start, stop) of
    ``blocks`` redrawn from the model, all fresh rows in one model pass."""
    corrupted = clean.copy()
    fresh = np.zeros(clean.shape[:2], dtype=bool)
    for i, ((start, stop), gen) in enumerate(zip(blocks, gens)):
        gen.random(out=corrupted[i, start:stop])
        fresh[i, start:stop] = True
    corrupted[fresh] = model.from_random(corrupted[fresh])
    return corrupted


def resampling_adversary(x: Dataset, budget: CorruptionBudget, model: GaussianModel,
                         rng: RngStream) -> AdversaryOutcome:
    """Replace a uniformly random k-subset of rows by fresh draws from the model."""
    _check_budget(x, budget)
    if model.d != x.d:
        raise ValueError(f"model dimension {model.d} does not match dataset d={x.d}")
    corrupted = _resample_stack(x.samples[None], budget, model, [rng.generator()])
    return _outcome(x, Dataset(corrupted[0]), budget)


def local_shift_adversary(x: Dataset, budget: CorruptionBudget, delta: float,
                          rng: RngStream) -> AdversaryOutcome:
    """Shift a uniformly random k-subset of scalar samples by +delta.

    All other entries are returned bit-identical. The shift is one-sided by
    construction; use a negative delta for the other direction explicitly.
    """
    _check_budget(x, budget)
    if x.d != 1:
        raise ValueError("local shift is defined for scalar (d = 1) datasets")
    budget.require_nonempty()
    corrupted = _shift_stack(x.samples[None], budget, delta, [rng.generator()])
    return _outcome(x, Dataset(corrupted[0]), budget)


def couple_gaussian_pair(gen: np.random.Generator, mu: float, eta: float,
                          n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinatewise maximal coupling of N(mu, 1) and N(mu + eta, 1).

    Densities p, q cross at c = mu + eta/2, with p(x)/q(x) = exp(eta (c - x)).
    Draw X ~ p and accept X' = X with probability min(1, q/p); otherwise X'
    is drawn from the residual (q - p)_+ / TV by rejection from q. The
    acceptance tests reduce to half-line comparisons at c, so no numerical
    inversion of residual CDFs is needed, and P(X != X') = TV(p, q) exactly.

    The residual is drawn in blocks: a round proposes about
    1.25 * pending / TV + 16 values from q (at most 2^20), keeps the accepted
    ones and gives the first of them, in order, to the pending coordinates;
    surplus accepted values are discarded. Accepted proposals are i.i.d. from
    the residual, and the rule that picks which of them are used never looks
    at their values, so every assigned X' still has the residual law and both
    marginals stay exact. One to three rounds usually suffice. A sampler
    that has drawn 2^26 proposals without filling every pending coordinate
    raises RuntimeError.
    """
    c = mu + eta / 2.0
    x = mu + standard_normal(gen, n)
    keep = np.log(uniform_open(gen, n)) <= eta * (x - c)
    y = x.copy()
    pending = np.flatnonzero(~keep)
    tv = tv_gaussian_shift(abs(eta))
    drawn = 0
    while pending.size:
        size = min(math.ceil(1.25 * pending.size / tv) + 16, _COUPLING_BLOCK)
        drawn += size
        if drawn > _COUPLING_MAX_PROPOSALS:
            raise RuntimeError("maximal-coupling rejection sampler failed to terminate")
        prop = mu + eta + standard_normal(gen, size)
        accept = np.log(uniform_open(gen, size)) > eta * (c - prop)
        got = prop[accept][:pending.size]
        y[pending[:got.size]] = got
        pending = pending[got.size:]
    return x, y


def tv_coupling_adversary(mu: float, eta: float, n: int,
                          rng: RngStream) -> tuple[Dataset, AdversaryOutcome]:
    """Jointly generate clean X ~ N(mu,1)^n and corrupted X' ~ N(mu+eta,1)^n.

    Coordinates are coupled independently and maximally, so the number of
    disagreeing coordinates is Binomial(n, TV) with TV = 2 Phi(eta/2) - 1.
    Returns the clean dataset and the outcome holding X'.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    budget = CorruptionBudget.from_eta(eta, n)
    x, y = couple_gaussian_pair(rng.generator(), float(mu), float(eta), int(n))
    clean = Dataset(x)
    return clean, _outcome(clean, Dataset(y), budget)


def block_layout(n: int, k: int) -> list[tuple[int, int]]:
    """Half-open row ranges of the fixed block partition of [n].

    Blocks 0 .. M-2 hold exactly k consecutive rows; the last block holds the
    remaining n - (M-1)k rows (between 1 and k), where M = ceil(n/k).
    """
    if k < 1:
        raise ValueError("block layout needs k >= 1")
    m = math.ceil(n / k)
    return [(i * k, min((i + 1) * k, n)) for i in range(m)]


def block_resample(x: Dataset, budget: CorruptionBudget, block_index: int,
                   model: GaussianModel, rng: RngStream) -> AdversaryOutcome:
    """Replace the rows of one block by fresh i.i.d. draws from the model."""
    _check_budget(x, budget)
    budget.require_nonempty()
    layout = block_layout(x.n, budget.k)
    if not (0 <= block_index < len(layout)):
        raise ValueError(f"block_index must lie in [0, {len(layout)}), got {block_index}")
    corrupted = _block_stack(x.samples[None], model, [layout[block_index]], [rng.generator()])
    return _outcome(x, Dataset(corrupted[0]), budget)


def median_worst_case(x: Dataset, budget: CorruptionBudget) -> AdversaryOutcome:
    """Exact worst-case median displacement under k row replacements.

    For odd n = 2m - 1 and k <= m - 1 the sup equals
    max(x_(m+k) - x_(m), x_(m) - x_(m-k)), attained by pushing the k smallest
    entries above the maximum (or the k largest below the minimum). The
    corrupting value is x_(n) + 1 (resp. x_(1) - 1) so the dataset stays
    finite; the achieved median is the same order statistic either way.

    The order statistics come from one selection (``np.partition`` with a
    list of ranks), not a sort. The replaced rows are exactly those a stable
    argsort would pick, so ties resolve the same way. A zero certificate is
    always +0.0.
    """
    _check_budget(x, budget)
    if x.d != 1:
        raise ValueError("median worst case is defined for scalar (d = 1) datasets")
    n = x.n
    if n % 2 == 0:
        raise ValueError("median worst case requires odd n")
    m = (n + 1) // 2
    k = budget.k
    if k > m - 1:
        raise ValueError(f"need k <= m - 1 = {m - 1}, got k = {k}")
    if k == 0:
        return _outcome(x, x, budget, certificate=0.0)

    vals = x.samples[:, 0]
    svals = np.partition(vals, [0, k - 1, m - 1 - k, m - 1, m - 1 + k, n - k, n - 1])
    med = svals[m - 1]
    up = float(svals[m - 1 + k] - med)
    down = float(med - svals[m - 1 - k])
    # Replace the rows a stable argsort would put first (resp. last): every
    # value strictly beyond the cut order statistic, then the ties at the
    # cut by lowest (resp. highest) index.
    if up >= down:
        cut = svals[k - 1]
        beyond = np.flatnonzero(vals < cut)
        ties = np.flatnonzero(vals == cut)[:k - beyond.size]
        fill = float(svals[-1]) + 1.0
        cert = up
    else:
        cut = svals[n - k]
        beyond = np.flatnonzero(vals > cut)
        ties = np.flatnonzero(vals == cut)
        ties = ties[ties.size - (k - beyond.size):]
        fill = float(svals[0]) - 1.0
        cert = down
    replace_idx = np.concatenate([beyond, ties])
    corrupted = x.replace_rows(replace_idx, np.full((k, 1), fill))
    # A zero gap between order statistics that are 0.0 and -0.0 would take
    # its sign from how the ties fall; report it as +0.0.
    return _outcome(x, corrupted, budget, certificate=cert + 0.0)


def _ball_size(n: int, k: int) -> int:
    return sum(math.comb(n, j) for j in range(min(k, n) + 1))


@functools.lru_cache(maxsize=8)
def _flip_masks(n: int, k: int) -> np.ndarray:
    """Read-only uint32 masks of the nonzero flips of weight <= k on n bits (k >= 1).

    Bit i of a mask flips row i. The order is ``itertools.combinations``
    order: weight 1 first, then each weight in lexicographic order.
    """
    parts = []
    for j in range(1, min(k, n) + 1):
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), j))
        combos = np.fromiter(flat, dtype=np.int64, count=math.comb(n, j) * j).reshape(-1, j)
        parts.append((np.int64(1) << combos).sum(axis=1).astype(np.uint32))
    masks = np.concatenate(parts)
    masks.flags.writeable = False
    return masks


def hamming_ball_sup(f: Estimator, x: Dataset, budget: CorruptionBudget) -> AdversaryOutcome:
    """Exact sup of |f(y) - f(x)| over binary y within Hamming radius k.

    Enumerates the whole ball, so it is guarded: at most 1e6 points (the
    work and memory) and n <= 32 (the uint32 masks). The flips are a cached
    table of integer masks per (n, k); each chunk of at most 8192 of them is
    expanded into datasets and evaluated with one ``f.on_stack`` call.
    Returns an argmax dataset as the corruption: the first maximiser in
    enumeration order.
    """
    _check_budget(x, budget)
    if x.d != 1:
        raise ValueError("hamming ball enumeration is defined for binary vectors (d = 1)")
    bits = x.samples[:, 0]
    if not np.all((bits == 0.0) | (bits == 1.0)):
        raise ValueError("hamming ball enumeration requires entries in {0, 1}")
    n, k = x.n, budget.k
    if n > 32:
        raise ValueError(f"flip masks are uint32: n <= 32 required, got {n}")
    if _ball_size(n, k) > _BALL_GUARD:
        raise ValueError(f"enumeration guard: ball size {_ball_size(n, k)} exceeds {_BALL_GUARD}")

    base = float(f(x)[0])
    if k == 0:
        return _outcome(x, x, budget, certificate=0.0)

    masks = _flip_masks(n, k)
    shifts = np.arange(n, dtype=np.uint32)
    flipped = 1.0 - bits
    best_gap = 0.0
    best_bits = bits
    for lo in range(0, masks.size, _BALL_CHUNK):
        flip = ((masks[lo:lo + _BALL_CHUNK, None] >> shifts) & 1) != 0
        rows = np.where(flip, flipped, bits)
        gaps = np.abs(f.on_stack(rows[:, :, None])[:, 0] - base)
        j = int(np.argmax(gaps))
        if gaps[j] > best_gap:
            best_gap = float(gaps[j])
            best_bits = rows[j]

    corrupted = Dataset(best_bits) if best_gap > 0.0 else x
    return _outcome(x, corrupted, budget, certificate=best_gap)

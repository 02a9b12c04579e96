"""Contamination mechanisms, each returning a machine-checkable certificate.

Every adversary takes a clean dataset (or generates a coupled pair) and
returns an :class:`AdversaryOutcome` whose achieved Hamming distance is
recomputed from the data -- never trusted from the construction -- together
with a feasibility flag against the budget and, where an exact worst case is
known, a certificate value.

The resampling, local-shift and block draws (one generator per trial), the
median's push and a layer estimator's Hamming ball are written once, as
bodies that corrupt a (T, n, d) stack: the trial engine runs them on a chunk
of trials, the public functions on a one-trial stack.

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
  estimators on binary data: over the n + 1 weight layers for a layer
  estimator, by full enumeration in stacked chunks for any other.
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
    _count,
    _require_finite,
    _require_scalar_rows,
    hamming_distance,
    standard_normal,
    uniform_open,
)
from .estimators import (Estimator, _LayerStack, _median_index, _require_binary,
                         _require_layer_bytes)

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
    budget.require_n(x.n)
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
    _require_finite("delta", delta)
    budget.require_n(x.n)
    _require_scalar_rows(x.d, "local_shift_adversary")
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
    _require_finite("mu", mu)
    n = _count("n", n)
    tv = tv_gaussian_shift(abs(eta))
    c = mu + eta / 2.0
    x = mu + standard_normal(gen, n)
    keep = np.log(uniform_open(gen, n)) <= eta * (x - c)
    y = x.copy()
    pending = np.flatnonzero(~keep)
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
    budget = CorruptionBudget.from_eta(eta, n)
    x, y = couple_gaussian_pair(rng.generator(), float(mu), float(eta), int(n))
    clean = Dataset(x)
    return clean, _outcome(clean, Dataset(y), budget)


def block_layout(n: int, k: int) -> list[tuple[int, int]]:
    """Half-open row ranges of the fixed block partition of [n].

    Blocks 0 .. M-2 hold exactly k consecutive rows; the last block holds the
    remaining n - (M-1)k rows (between 1 and k), where M = ceil(n/k).
    """
    n, k = _count("n", n), _count("k", k)
    m = math.ceil(n / k)
    return [(i * k, min((i + 1) * k, n)) for i in range(m)]


def block_resample(x: Dataset, budget: CorruptionBudget, block_index: int,
                   model: GaussianModel, rng: RngStream) -> AdversaryOutcome:
    """Replace the rows of one block by fresh i.i.d. draws from the model."""
    budget.require_n(x.n)
    budget.require_nonempty()
    layout = block_layout(x.n, budget.k)
    if not (0 <= block_index < len(layout)):
        raise ValueError(f"block_index must lie in [0, {len(layout)}), got {block_index}")
    corrupted = _block_stack(x.samples[None], model, [layout[block_index]], [rng.generator()])
    return _outcome(x, Dataset(corrupted[0]), budget)


def _median_push_stack(clean: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Copy of the scalar (T, n, 1) stack ``clean`` (n = 2m - 1, k <= m - 1)
    with each trial's k rows pushed past the far end, and each trial's sup of
    the median's displacement.

    The sup is max(x_(m+k) - x_(m), x_(m) - x_(m-k)); on ``>=`` the k smallest
    rows move to x_(n) + 1, otherwise the k largest move to x_(1) - 1, so the
    data stay finite and the pushed median is the same order statistic either
    way. The moved rows are exactly those a stable argsort would pick: every
    value beyond the cut order statistic, then the ties at the cut by lowest
    (resp. highest) index. A zero sup is +0.0: a gap between a 0.0 and a -0.0
    order statistic would otherwise take its sign from how the ties fall.

    The order statistics of the whole chunk come from one ``np.sort``: with
    numpy 2.4 it is faster than an ``np.partition`` at the ranks needed, at
    every n measured from 101 to 100001. Each trial then takes one compare
    against its cut and one ``flatnonzero``, and splits the ties only when
    more than k rows sit at or beyond the cut. Masks over the whole chunk
    and a cumulative sum for the tie ranks were slower.
    """
    corrupted = clean.copy()
    if k == 0:
        return corrupted, np.zeros(clean.shape[0])
    vals = clean[:, :, 0]
    svals = np.sort(vals, axis=1)
    n = vals.shape[1]
    mid = _median_index(n)
    med = svals[:, mid]
    up = svals[:, mid + k] - med
    down = med - svals[:, mid - k]
    push_up = up >= down
    cuts = np.where(push_up, svals[:, k - 1], svals[:, n - k])
    fills = np.where(push_up, svals[:, -1] + 1.0, svals[:, 0] - 1.0)
    for i, (row, cut, toward_up) in enumerate(zip(vals, cuts, push_up)):
        idx = np.flatnonzero(row <= cut if toward_up else row >= cut)
        if idx.size > k:
            beyond = np.flatnonzero(row < cut if toward_up else row > cut)
            ties = np.flatnonzero(row == cut)
            ties = ties[:k - beyond.size] if toward_up else ties[ties.size - (k - beyond.size):]
            idx = np.concatenate([beyond, ties])
        corrupted[i, idx, 0] = fills[i]
    return corrupted, np.where(push_up, up, down) + 0.0


def _median_push_admissible(budget: CorruptionBudget, what: str) -> None:
    """Reject a budget the median push does not attain the sup for: it needs
    odd n = 2m - 1 and k <= m - 1. ``what`` names the caller in the message."""
    if budget.n % 2 == 0:
        raise ValueError(f"{what} requires odd n")
    mid = _median_index(budget.n)  # m - 1
    if budget.k > mid:
        raise ValueError(f"need k <= m - 1 = {mid}, got k = {budget.k}")


def median_worst_case(x: Dataset, budget: CorruptionBudget) -> AdversaryOutcome:
    """Exact worst-case median displacement under k row replacements.

    For odd n = 2m - 1 and k <= m - 1 the sup equals
    max(x_(m+k) - x_(m), x_(m) - x_(m-k)), attained by pushing the k smallest
    entries above the maximum (or the k largest below the minimum). This is
    ``_median_push_stack`` on a one-trial stack, the body the ``median-exact``
    adversary runs on a chunk of trials; its docstring gives the corrupting
    values and the tie rule. A zero certificate is always +0.0.
    """
    budget.require_n(x.n)
    _require_scalar_rows(x.d, "median_worst_case")
    _median_push_admissible(budget, "median worst case")
    corrupted, cert = _median_push_stack(x.samples[None], budget.k)
    return _outcome(x, Dataset(corrupted[0]), budget, certificate=float(cert[0]))


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


def _layer_path(f: Estimator, n: int, k: int) -> bool:
    """Whether the radius-k ball of f on n bits takes the layer path, once the
    guards of the path it takes have passed, by arithmetic on (n, k) alone.

    A layer estimator's ball does, under the layer guard, except a ball of
    radius k <= 1 that fits the flip masks (n <= 32): x and its n single
    flips are still enumerated with one ``f.on_stack`` call. ``bench/tracing.py``
    counts ball points at that call, and ``bench/test_bench.py`` pins the
    count for the plug-in at n = 8, k = 1; the layer path evaluates no ball
    point. Both paths return the same outcome byte for byte; the enumeration
    is the slower one. An enumerated ball needs n <= 32 (the uint32 masks)
    and at most 1e6 points (the work and memory).
    """
    if isinstance(f.stack_fn, _LayerStack) and (k > 1 or n > 32):
        _require_layer_bytes(n)
        return True
    if n > 32:
        raise ValueError(f"flip masks are uint32: n <= 32 required, got {n}")
    if _ball_size(n, k) > _BALL_GUARD:
        raise ValueError(f"enumeration guard: ball size {_ball_size(n, k)} exceeds {_BALL_GUARD}")
    return False


def _layer_ball_stack(clean: np.ndarray, layers: _LayerStack, k: int) -> np.ndarray:
    """Copy of the binary (T, n, 1) stack ``clean`` with each trial's rows moved
    to the enumeration's first maximiser of |f(y) - f(x)| over the radius-k ball.

    For x in layer t, the ball reaches the layers t' in [t - k, t + k] ∩ [0, n].
    Let G* be the largest gap and j the smallest |t' - t| reaching it. The
    enumeration visits flip sets by size, then in lexicographic order, so its
    first maximiser is the first j zeros (t' = t + j) or the first j ones
    (t' = t - j) by index; when both reach G*, the set that holds row 0. A
    flipped row becomes 1.0 if it was zero and +0.0 if it was one, the bytes
    of the enumeration's 1.0 - x, so -0.0 rows become 1.0 and every other row
    keeps its bytes. With G* = 0 nothing moves.

    The gaps are read for the chunk's distinct layers only (a presence table
    over the n + 1 layers), O(T k) work. Each layer's window t - k .. t + k is
    read from one copy of g padded with k NaNs at each end: a gap is the
    rounded subtraction g(t') - g(t) the enumeration makes, and NaN off
    [0, n], so it never reaches G*. Column s of the offsets 0 .. k hits when
    the gap at t + s or at t - s is G*; the first hit is j, which is 0 (the
    window's own layer) exactly when G* = 0. A trial then flips the side that
    holds row 0 if its gap at distance j hits, and the other side otherwise.
    """
    n = clean.shape[1]
    g = layers.table(n)
    k = min(k, n)
    if k == 0:
        return clean.copy()
    bits = clean[:, :, 0]
    zero = bits == 0.0
    weight = n - zero.sum(axis=1)
    present = np.zeros(n + 1, dtype=bool)
    present[weight] = True
    layer = present.nonzero()[0]
    trial_layer = np.searchsorted(layer, weight)
    padded = np.full(n + 1 + 2 * k, np.nan)
    padded[k:n + k + 1] = g
    gaps = padded[layer[:, None] + np.arange(2 * k + 1)]
    gaps -= gaps[:, k, None]
    np.abs(gaps, out=gaps)
    hit = gaps == np.fmax.reduce(gaps, axis=1)[:, None]
    j = np.argmax(hit[:, k:] | hit[:, k::-1], axis=1)[trial_layer]
    # Row 0's side: its zeros reach t + j, its ones t - j.
    row0_side = np.where(zero[:, 0], j, -j)
    zeros_move = hit[trial_layer, k + row0_side] == zero[:, 0]
    side = zero == zeros_move[:, None]
    flip = side & (np.cumsum(side, axis=1) <= j[:, None])
    return np.where(flip, zero, bits)[:, :, None]


def hamming_ball_sup(f: Estimator, x: Dataset, budget: CorruptionBudget) -> AdversaryOutcome:
    """Exact sup of |f(y) - f(x)| over binary y within Hamming radius k.

    y ranges over binary datasets only. For an estimator that reads
    real-valued rows, the value is the binary-ball sup, not its sensitivity:
    a row moved off {0, 1} can displace it further.

    Returns an argmax dataset as the corruption: the first maximiser in the
    enumeration's order, which visits the flip sets by size and, within a
    size, in lexicographic order of their sorted row indices. Both paths
    below return it, with the same certificate bytes.

    A layer estimator (f(x) = g(|x|, n), see ``layer_estimator``) takes the
    layer path, O(n + k) work at any n up to a memory guard on its tables,
    unless k <= 1 and n <= 32 (see ``_layer_path``, which holds every guard).
    For x in layer t the sup G* is the largest |g(t') - g(t)| over
    t' in [t - k, t + k] ∩ [0, n]. With j the smallest |t' - t| at which it
    is reached, the first maximiser flips the first j zeros (toward t + j)
    or the first j ones (toward t - j) by index, and when both reach G*,
    the set that holds row 0; the flips write 1.0 - x. With G* = 0 nothing
    moves.

    Any other ball is enumerated whole, so the enumeration is guarded: at most
    1e6 points (the work and memory) and n <= 32 (the uint32 masks). The
    flips are a cached table of integer masks per (n, k); each chunk of at
    most 8192 of them is expanded into datasets and evaluated with one
    ``f.on_stack`` call.
    """
    budget.require_n(x.n)
    _require_scalar_rows(x.d, "hamming_ball_sup")
    bits = x.samples[:, 0]
    _require_binary(bits, "hamming ball enumeration")
    n, k = x.n, budget.k
    if _layer_path(f, n, k):
        corrupted = Dataset(_layer_ball_stack(x.samples[None], f.stack_fn, k)[0])
        gap = abs(float(f(corrupted)[0]) - float(f(x)[0]))
        return _outcome(x, corrupted, budget, certificate=gap)

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

"""Datasets, corruption budgets, and reproducible randomness.

Everything else in the package is built on four values defined here:

* ``Dataset`` -- an immutable block of n samples in R^d,
* ``CorruptionBudget`` -- the pair (eta, k = floor(eta * n)) that limits how
  many rows an adversary may replace,
* ``RngStream`` -- a counter-based random stream keyed by (seed, stream_id),
  so that trial t draws the same bytes no matter how many other trials ran
  first or on which thread,
* ``GaussianModel`` -- the N(mu, I_d) sampling model (covariance is always
  the identity; there is deliberately no field for it).

Gaussian variates are produced by the inverse-CDF transform (``ndtri``) of
uniforms drawn strictly inside (0, 1). The stream key, that transform, the
Hamming count, and the count and finite-scalar rules every module checks its
parameters with are each written once, here.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "Dataset",
    "CorruptionBudget",
    "RngStream",
    "GaussianModel",
    "compute_k",
    "hamming_distance",
    "standard_normal",
    "uniform_open",
]

_MASK64 = (1 << 64) - 1
# The largest double below 1: the top of the open unit interval.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _open_unit(u, out=None):
    """Map raw ``Generator.random`` draws j / 2^53 to (j + 0.5) / 2^53, inside (0, 1).

    Adding 2^-54 gives (j + 0.5) / 2^53 exactly as rounded, since scaling by
    2^-53 is exact and commutes with rounding. The top value j = 2^53 - 1
    would round to 1.0 (fl(2^53 - 0.5) = 2^53 under ties-to-even), so the
    result is clamped to 1 - 2^-53; no other value changes. ``out`` (for
    example ``u`` itself) makes the transform in place.
    """
    return np.minimum(np.add(u, 2.0 ** -54, out=out), _BELOW_ONE, out=out)


def uniform_open(gen: np.random.Generator, size) -> np.ndarray:
    """Uniform variates strictly inside (0, 1).

    Returns (j + 0.5) / 2^53 over a random 53-bit integer j (see
    ``_open_unit``), so neither endpoint is ever produced and the downstream
    inverse-CDF transform stays finite.

    j comes from ``gen.random(size)``, which returns (next_uint64 >> 11) *
    2^-53: one 64-bit draw per value. That is the same j, bit for bit and at
    the same stream position, as ``gen.integers(0, 2^53, dtype=uint64)``:
    for a power-of-two range Lemire's rejection threshold
    (2^64 - 2^53) mod 2^53 is 0, so ``integers`` never rejects, takes one
    draw per value and returns (next * 2^53) >> 64 = next >> 11.
    """
    return _open_unit(gen.random(size))


def _normal_in_place(raw: np.ndarray) -> np.ndarray:
    """Raw ``Generator.random`` draws turned in place into standard normals,
    ``ndtri`` of their ``_open_unit`` values: every normal of the package."""
    return special.ndtri(_open_unit(raw, out=raw), out=raw)


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normal variates by inverse-CDF transform of open uniforms,
    ``ndtri(uniform_open(gen, size))`` computed in the one array drawn."""
    return _normal_in_place(gen.random(size))


def _check_finite(arr: np.ndarray, what: str = "all sample entries") -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")


def _count(name: str, value, fewest: int = 1) -> int:
    """``value`` as an int, once it is an int, numpy int or integral float >= ``fewest``.
    A truncated fraction would size a sample or loop that a report labels ``value``."""
    try:
        count = operator.index(value)
    except TypeError:
        integral = isinstance(value, numbers.Real) and float(value).is_integer()
        count = int(value) if integral else None
    if count is None or count < fewest:
        raise ValueError(f"{name} must be an integer >= {fewest}, got {value!r}")
    return count


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _require_nonnegative(name: str, value: float) -> None:
    _require_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _require_scalar_rows(d: int, what: str) -> None:
    """The rule of every path that reads scalar rows only: d = 1."""
    if d != 1:
        raise ValueError(f"{what} requires scalar (d = 1) data")


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    (seed, stream_id) keys a Philox counter-based generator: key words
    [seed, stream_id], counter 0 (see ``_Rekeyer``). Distinct stream_ids give
    statistically independent streams, and the byte sequence of a given
    stream does not depend on execution order, platform, or thread schedule.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for field in ("seed", "stream_id"):
            value = getattr(self, field)
            if not isinstance(value, (int, np.integer)) or not (0 <= int(value) <= _MASK64):
                raise ValueError(f"{field} must be an unsigned 64-bit integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        return _Rekeyer().at(self.seed, self.stream_id)


# The seed a new generator is built from before its first re-key overwrites
# its whole state: built once, so no new generator hashes a seed of its own.
_BLANK_SEED = np.random.SeedSequence(0)


class _Rekeyer:
    """Resets one Philox generator to the start of stream (seed, stream_id):
    key words [seed, stream_id], counter 0, empty output buffer.

    This is the one spelling of the stream key. The state dict is built once;
    ``at`` writes the key into its key list and hands the same dict to the
    state setter, which copies every field, so each stream's draws start from
    a full reset however far the generator's last stream was read
    (``test_a_reused_generator_draws_the_stream_bytes``).
    ``RngStream.generator`` re-keys a new generator; the trial engine re-keys
    each thread's one generator, at a fraction of the cost of building one.
    The caller validates the key, for example by building the ``RngStream``
    once.

    The state holds plain lists: the setter converts each entry to a uint64
    by itself, and entries read out of uint64 arrays, as numpy scalars, make
    the call about 2.7x slower. It accepts an ``np.uint64`` key word just the
    same (``test_rekey_accepts_numpy_key_words``).
    """

    __slots__ = ("generator", "_bits", "_key", "_state")

    def __init__(self):
        self.generator = np.random.Generator(np.random.Philox(_BLANK_SEED))
        self._bits = self.generator.bit_generator
        self._key = [0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, seed: int, stream_id: int) -> np.random.Generator:
        self._key[0] = seed
        self._key[1] = stream_id
        self._bits.state = self._state
        return self.generator


@dataclass(frozen=True, eq=False)
class Dataset:
    """n samples in R^d stored as a read-only (n, d) float64 array.

    Row i is the sample X_i. Every entry must be finite. A 1-D input array is
    treated as n scalar samples (d = 1).
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"samples must be an (n, d) array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {arr.shape}")
        _check_finite(arr)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]

    def replace_rows(self, indices, rows) -> "Dataset":
        """New Dataset with the given rows replaced; all other rows are
        copied bit-for-bit (so they compare equal under hamming_distance)."""
        out = self.samples.copy()
        out[np.asarray(indices, dtype=np.intp)] = np.asarray(rows, dtype=np.float64).reshape(-1, self.d)
        return Dataset(out)


def compute_k(eta: float, n: int) -> int:
    """Number of corruptible points k = floor(eta * n).

    The floor is taken exactly, in integers: the float eta is the binary
    rational num / den that ``float.as_integer_ratio`` returns, so
    k = (num * n) // den, and no double rounding can push the product across
    an integer. This is the floor of ``Fraction(eta) * n`` without building a
    ``Fraction``. Rounding is never used. eta is checked before n.
    """
    if not (0.0 < float(eta) < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    num, den = float(eta).as_integer_ratio()
    return num * _count("n", n) // den


@dataclass(frozen=True)
class CorruptionBudget:
    """Corruption budget (eta, n, k) with k = floor(eta * n) enforced."""

    eta: float
    n: int
    k: int

    def __post_init__(self):
        expected = compute_k(self.eta, self.n)
        if self.k != expected:
            raise ValueError(f"k must equal floor(eta * n) = {expected}, got {self.k}")

    @classmethod
    def from_eta(cls, eta: float, n: int) -> "CorruptionBudget":
        k = compute_k(eta, n)  # checks eta and counts n before either is converted
        return cls(eta=float(eta), n=int(n), k=k)

    def require_n(self, n: int) -> None:
        """Assert the budget is for n rows."""
        if self.n != n:
            raise ValueError(f"budget is for n={self.n}, got n={n}")

    def require_nonempty(self) -> None:
        """Assert k >= 1 for experiments that need at least one corruption."""
        if self.k < 1:
            raise ValueError(f"budget allows no corruption: eta={self.eta}, n={self.n} gives k=0")


def _hamming_stack(clean: np.ndarray, corrupted: np.ndarray) -> np.ndarray:
    """The Hamming distance of each trial of two (T, n, d) stacks: the number
    of rows that differ under ``!=`` (so 0.0 equals -0.0) in some coordinate.

    Every entry of both stacks is compared. A row's d comparison bytes are
    read as the widest unsigned words that tile them; when that takes at most
    8 words (every d <= 8, d = 16, 64, ...), the word columns are OR-ed
    together in at most 7 passes over the chunk, because an ``any`` over a
    short innermost axis costs about 30 ns per row (at d = 16 and 4000 rows,
    145 µs against 38 µs). Other rows keep ``any``.
    """
    unequal = np.not_equal(corrupted, clean, order="C")
    d = unequal.shape[2]
    size = math.gcd(d, 8)
    if d // size > 8:
        return np.count_nonzero(unequal.any(axis=2), axis=1)
    words = unequal.view(bool if size == 1 else f"u{size}")
    changed = words[:, :, 0]
    for j in range(1, words.shape[2]):
        changed = changed | words[:, :, j]
    return np.count_nonzero(changed, axis=1)


def hamming_distance(x: Dataset, y: Dataset) -> int:
    """Number of rows where x and y differ in at least one coordinate:
    ``_hamming_stack`` on a one-trial stack.

    Comparison is exact on the stored values, not tolerance-based:
    adversaries build corrupted datasets by copying unchanged rows, so
    those rows compare equal bit-for-bit.
    """
    if x.samples.shape != y.samples.shape:
        raise ValueError(f"shape mismatch: {x.samples.shape} vs {y.samples.shape}")
    return int(_hamming_stack(x.samples[None], y.samples[None])[0])


class _RowModel:
    """The sampler of a model with a row width ``d`` and an in-place
    ``from_random`` that turns raw ``Generator.random`` draws into rows."""

    def sample(self, n: int, rng: RngStream) -> Dataset:
        n = _count("n", n)
        return Dataset(self.from_random(rng.generator().random((n, self.d))))


@dataclass(frozen=True, eq=False)
class GaussianModel(_RowModel):
    """Sampling model N(mu, I_d). The covariance is fixed to the identity."""

    mu: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.mu, dtype=np.float64))
        if arr.ndim != 1 or arr.size < 1 or not np.all(np.isfinite(arr)):
            raise ValueError("mu must be a finite vector")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "mu", arr)

    @property
    def d(self) -> int:
        return self.mu.size

    def from_random(self, raw: np.ndarray) -> np.ndarray:
        """Turn raw ``Generator.random`` draws (..., d) into model rows in place:
        ``standard_normal(gen, raw.shape) + mu`` from the generator that drew
        them, without temporaries, checked finite as a ``Dataset`` would be."""
        _normal_in_place(raw)
        raw += self.mu
        _check_finite(raw)
        return raw

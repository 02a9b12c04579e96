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
uniforms drawn strictly inside (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normal variates by inverse-CDF transform of open uniforms."""
    return special.ndtri(uniform_open(gen, size))


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError("all sample entries must be finite")


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    (seed, stream_id) keys a Philox counter-based generator. Distinct
    stream_ids give statistically independent streams, and the byte sequence
    of a given stream does not depend on execution order, platform, or
    thread schedule.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for field in ("seed", "stream_id"):
            value = getattr(self, field)
            if not isinstance(value, (int, np.integer)) or not (0 <= int(value) <= _MASK64):
                raise ValueError(f"{field} must be an unsigned 64-bit integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        key = (int(self.seed) & _MASK64) | ((int(self.stream_id) & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))


def _rekey(gen: np.random.Generator, seed: int, stream_id: int) -> np.random.Generator:
    """Reset ``gen``'s Philox to the start of stream (seed, stream_id).

    The generator then draws the same bytes as
    ``RngStream(seed, stream_id).generator()`` (key words [seed, stream_id],
    counter 0, empty output buffer), at a fraction of the cost of building a
    new generator. The caller validates the key, for example by building the
    ``RngStream`` once.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([seed, stream_id], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


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

    The floor is taken exactly: the float eta is converted to its exact
    binary rational before multiplying, so no double rounding can push the
    product across an integer. Rounding is never used.
    """
    if not (0.0 < float(eta) < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if int(n) != n or int(n) < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return math.floor(Fraction(float(eta)) * int(n))


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
        return cls(eta=float(eta), n=int(n), k=compute_k(eta, n))

    def require_nonempty(self) -> None:
        """Assert k >= 1 for experiments that need at least one corruption."""
        if self.k < 1:
            raise ValueError(f"budget allows no corruption: eta={self.eta}, n={self.n} gives k=0")


def hamming_distance(x: Dataset, y: Dataset) -> int:
    """Number of rows where x and y differ in at least one coordinate.

    Comparison is exact on the stored values, not tolerance-based:
    adversaries build corrupted datasets by copying unchanged rows, so
    those rows compare equal bit-for-bit.
    """
    if x.samples.shape != y.samples.shape:
        raise ValueError(f"shape mismatch: {x.samples.shape} vs {y.samples.shape}")
    return int(np.count_nonzero(np.any(x.samples != y.samples, axis=1)))


@dataclass(frozen=True, eq=False)
class GaussianModel:
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
        special.ndtri(_open_unit(raw, out=raw), out=raw)
        raw += self.mu
        _check_finite(raw)
        return raw

    def sample(self, n: int, rng: RngStream) -> Dataset:
        if int(n) != n or int(n) < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        return Dataset(self.from_random(rng.generator().random((int(n), self.d))))


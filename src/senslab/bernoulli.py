"""Hypercube layer machinery for binary-data sensitivity.

Layer(t) is the set of binary n-vectors of Hamming weight t. This module
provides uniform sampling from a layer, the upward transport coupling that
flips a uniform subset of zeros to ones (carrying Unif(Layer(t)) to
Unif(Layer(t + ell)) at Hamming distance exactly ell), the uniform-mixture
law of the weight (which is flat: 1/(n+1) per layer), and the exact expected
pointwise sensitivity of a binary estimator by full enumeration of the cube.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import CorruptionBudget, Dataset, RngStream, _open_unit
from .estimators import Estimator

__all__ = [
    "LayerSpec",
    "BernoulliModel",
    "uniform_layer_sample",
    "layer_transport",
    "beta_binomial_layer_law",
    "bernoulli_expected_sensitivity",
]

_ENUM_GUARD_BITS = 20


@dataclass(frozen=True)
class LayerSpec:
    """A Hamming-weight layer: binary n-vectors with exactly t ones."""

    n: int
    t: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (0 <= self.t <= self.n):
            raise ValueError(f"need 0 <= t <= n, got t={self.t}, n={self.n}")


def uniform_layer_sample(spec: LayerSpec, rng: RngStream) -> np.ndarray:
    """Uniformly random weight-t vector: a random t-subset of positions set to 1."""
    out = np.zeros(spec.n, dtype=np.uint8)
    if spec.t > 0:
        gen = rng.generator()
        out[gen.choice(spec.n, size=spec.t, replace=False)] = 1
    return out


def layer_transport(x: np.ndarray, ell: int, rng: RngStream) -> np.ndarray:
    """Flip a uniformly random ell-subset of the zero coordinates of x to 1.

    The output has weight |x| + ell and Hamming distance exactly ell from x.
    """
    x = np.asarray(x)
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("x must be a binary vector")
    zeros = np.flatnonzero(x == 0)
    if ell < 0 or ell > zeros.size:
        raise ValueError(f"need 0 <= ell <= n - |x| = {zeros.size}, got ell={ell}")
    out = x.astype(np.uint8).copy()
    if ell > 0:
        gen = rng.generator()
        out[gen.choice(zeros, size=ell, replace=False)] = 1
    return out


def beta_binomial_layer_law(n: int) -> np.ndarray:
    """Law of |X| under P ~ Unif[0,1], X ~ Bern(P)^{x n}, via the beta integral
    C(n,t) B(t+1, n-t+1). Every entry equals 1/(n+1)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    t = np.arange(n + 1)
    log_choose = special.gammaln(n + 1) - special.gammaln(t + 1) - special.gammaln(n - t + 1)
    return np.exp(log_choose + special.betaln(t + 1, n - t + 1))


@dataclass(frozen=True)
class BernoulliModel:
    """Sampling model Bern(p)^{x n}, producing binary d = 1 datasets."""

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    @property
    def d(self) -> int:
        return 1

    def from_random(self, raw: np.ndarray) -> np.ndarray:
        """Turn raw ``Generator.random`` draws (..., 1) into 0/1 rows in place."""
        raw[...] = _open_unit(raw, out=raw) < self.p
        return raw

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return self.from_random(gen.random((size, 1)))

    def sample(self, n: int, rng: RngStream) -> Dataset:
        if int(n) < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        return Dataset(self.draw(rng.generator(), int(n)))


def _cube_values(f: Estimator, n: int) -> np.ndarray:
    """f evaluated on every vertex of {0,1}^n, indexed by the bit pattern.

    Vertices are built and evaluated 2^14 at a time, so the float block in
    memory never exceeds (2^14, n).
    """
    size = 1 << n
    shifts = np.arange(n, dtype=np.uint32)
    vals = np.empty(size)
    chunk = 1 << 14
    for lo in range(0, size, chunk):
        idx = np.arange(lo, min(lo + chunk, size), dtype=np.uint32)
        bits = ((idx[:, None] >> shifts) & 1).astype(np.float64)
        vals[lo:lo + idx.size] = f.on_stack(bits[:, :, None])[:, 0]
    return vals


def _dilate(table: np.ndarray, n: int, op) -> np.ndarray:
    """One radius-1 step over the cube: op of each vertex and its n neighbours.

    Every neighbour is read from ``table``, never from the partly updated
    result. Flipping bit j is a swap on the middle axis of the
    (2^(n-j-1), 2, 2^j) view.
    """
    out = table.copy()
    for j in range(n):
        shape = (-1, 2, 1 << j)
        op(out.reshape(shape), table.reshape(shape)[:, ::-1], out=out.reshape(shape))
    return out


def bernoulli_expected_sensitivity(f: Estimator, n: int, p: float,
                                   budget: CorruptionBudget) -> float:
    """Exact E_{X ~ Bern(p)^n}[ sup_{d_H(X, y) <= k} |f(y) - f(X)| ].

    Enumerates all 2^n datasets (guarded at 2^20) with weights computed in
    log space per term. The radius-k ball sup comes from dilating the table
    of f over the cube k times, once with max and once with min: with hi and
    lo the ball's extremes, the sup is max(hi - f(x), f(x) - lo). Rounded
    subtraction is monotone and fl(b - a) = -fl(a - b), so for finite f this
    equals the largest |f(y) - f(x)| over the ball bit for bit. Runtime grows
    with 2^n * n * k, for any estimator.
    """
    if f.output_dim != 1:
        raise ValueError("expected sensitivity takes a scalar estimator")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if budget.n != n:
        raise ValueError(f"budget is for n={budget.n}, got n={n}")
    if n > _ENUM_GUARD_BITS:
        raise ValueError(f"enumeration guard: 2^n <= 2^{_ENUM_GUARD_BITS} required, got n={n}")

    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    weight = np.zeros(size, dtype=np.uint32)
    for j in range(n):
        weight += (idx >> j) & 1

    # Per-dataset probability p^|x| (1-p)^(n-|x|), exponentiated term by term;
    # the 0 * log(0) corners follow the 0^0 = 1 convention.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
        log_w = (np.where(weight > 0, weight * log_p, 0.0)
                 + np.where(n - weight > 0, (n - weight) * log_q, 0.0))
    probs = np.exp(log_w)

    if budget.k == 0:
        return 0.0
    fv = _cube_values(f, n)
    hi, lo = fv, fv
    for _ in range(min(budget.k, n)):
        hi, lo = _dilate(hi, n, np.maximum), _dilate(lo, n, np.minimum)
    sup = np.maximum(hi - fv, fv - lo)
    return float(np.sum(probs * sup))

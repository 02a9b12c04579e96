"""Hypercube layer machinery for binary-data sensitivity.

Layer(t) is the set of binary n-vectors of Hamming weight t. This module
provides the Bernoulli sampling model, the uniform-mixture law of the weight
(which is flat: 1/(n+1) per layer), and the exact expected pointwise
sensitivity of a binary estimator: over the n + 1 layers for a layer
estimator, by full enumeration of the cube for any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import CorruptionBudget, _count, _open_unit, _RowModel
from .estimators import Estimator, _LayerStack, _require_scalar

__all__ = [
    "BernoulliModel",
    "beta_binomial_layer_law",
    "bernoulli_expected_sensitivity",
]

# Bounds the memory of the cube enumeration's 2^n-entry tables, not time (the
# work is 2^n * n * k): a non-layer estimator at p = 0.5, eta = 0.2 peaked at
# 18 MiB for n = 18 and 72 MiB for n = 20, in 0.07 s and 0.38 s (Python 3.11,
# numpy 2.4, 2-core Xeon). A layer estimator's tables have n + 1 entries and
# meet the layer guard of ``_LayerStack.table`` instead.
_ENUM_GUARD_BITS = 20


def beta_binomial_layer_law(n: int) -> np.ndarray:
    """Law of |X| under P ~ Unif[0,1], X ~ Bern(P)^{x n}, via the beta integral
    C(n,t) B(t+1, n-t+1). Every entry equals 1/(n+1)."""
    n = _count("n", n)
    t = np.arange(n + 1)
    log_choose = special.gammaln(n + 1) - special.gammaln(t + 1) - special.gammaln(n - t + 1)
    return np.exp(log_choose + special.betaln(t + 1, n - t + 1))


@dataclass(frozen=True)
class BernoulliModel(_RowModel):
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


def _log_point_mass(ones: np.ndarray, n: int, p: float) -> np.ndarray:
    """log(p^ones (1 - p)^(n - ones)), with the 0 * log(0) corners following
    the 0^0 = 1 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
        return (np.where(ones > 0, ones * log_p, 0.0)
                + np.where(n - ones > 0, (n - ones) * log_q, 0.0))


def _log_binomials(n: int) -> np.ndarray:
    """log C(n, t) for t = 0 .. n, in O(n) work.

    Each is the compensated (Kahan) running sum of log((n - i) / (i + 1))
    over i < t, within one ulp of the log of the exact integer for n up to
    20000 at least; log-gamma differences lose about 1e-11 at n = 5000.
    """
    out = np.zeros(n + 1)
    total = carry = 0.0
    for t in range(n // 2):
        term = math.log((n - t) / (t + 1)) - carry
        step = total + term
        carry = (step - total) - term
        total = step
        out[t + 1] = out[n - t - 1] = total
    return out


def _window_extreme(table: np.ndarray, k: int, op, pad: float) -> np.ndarray:
    """``op`` (np.maximum or np.minimum) of ``table`` over [t - k, t + k] ∩ [0, n]
    for every t, by doubling: O(n log k) exact comparisons. ``pad`` (-inf for
    the maximum, +inf for the minimum) fills the k places beyond each end."""
    span = 2 * k + 1
    ext = np.concatenate([np.full(k, pad), table, np.full(k, pad)])
    width = 1
    while 2 * width <= span:
        # ext[i] now covers [i, i + width) of the padded table; double it.
        ext = op(ext[:-width], ext[width:])
        width *= 2
    # Two overlapping runs of ``width`` cover the window [t, t + span).
    return op(ext[:table.size], ext[span - width:span - width + table.size])


def bernoulli_expected_sensitivity(f: Estimator, n: int, p: float,
                                   budget: CorruptionBudget) -> float:
    """Exact E_{X ~ Bern(p)^n}[ sup_{d_H(X, y) <= k} |f(y) - f(X)| ].

    y ranges over binary datasets only. For an estimator that reads
    real-valued rows, the value is the binary-ball sup, not its sensitivity:
    a row moved off {0, 1} can displace it further.

    For a layer estimator (f(x) = g(|x|, n), see ``layer_estimator``) the
    sup depends on the layer t = |x| alone: it is the largest |g(t') - g(t)|
    over t' in [t - k, t + k] ∩ [0, n], the floats the enumeration compares.
    With hi and lo the window maximum and minimum of g, that sup is
    max(hi - g(t), g(t) - lo), by the rounding argument below. The result is
    the sum over the n + 1 layers of P(|X| = t) times that sup, O(n log k)
    work at any n up to the layer guard. It sums n + 1 terms where the
    enumeration sums 2^n, so its last bits can differ from the enumeration's.

    Any other estimator enumerates all 2^n datasets (guarded at 2^20) with
    weights computed in log space per term. The radius-k ball sup comes from
    dilating the table of f over the cube k times, once with max and once
    with min: with hi and lo the ball's extremes, the sup is
    max(hi - f(x), f(x) - lo). Rounded subtraction is monotone and
    fl(b - a) = -fl(a - b), so for finite f this equals the largest
    |f(y) - f(x)| over the ball bit for bit. Runtime grows with 2^n * n * k.
    """
    n = _count("n", n)
    _require_scalar(f, "bernoulli_expected_sensitivity")
    BernoulliModel(p)  # the model's check of p
    budget.require_n(n)
    if isinstance(f.stack_fn, _LayerStack):
        g = f.stack_fn.table(n)
        k = min(budget.k, n)
        hi = _window_extreme(g, k, np.maximum, -np.inf)
        lo = _window_extreme(g, k, np.minimum, np.inf)
        probs = np.exp(_log_binomials(n) + _log_point_mass(np.arange(n + 1), n, p))
        return float(np.sum(probs * np.maximum(hi - g, g - lo)))
    if n > _ENUM_GUARD_BITS:
        raise ValueError(f"enumeration guard: 2^n <= 2^{_ENUM_GUARD_BITS} required, got n={n}")
    if budget.k == 0:
        return 0.0

    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    weight = np.zeros(size, dtype=np.uint32)
    for j in range(n):
        weight += (idx >> j) & 1

    # Per-dataset probability p^|x| (1-p)^(n-|x|), exponentiated term by term.
    probs = np.exp(_log_point_mass(weight, n, p))
    fv = _cube_values(f, n)
    hi, lo = fv, fv
    for _ in range(min(budget.k, n)):
        hi, lo = _dilate(hi, n, np.maximum), _dilate(lo, n, np.minimum)
    sup = np.maximum(hi - fv, fv - lo)
    return float(np.sum(probs * sup))

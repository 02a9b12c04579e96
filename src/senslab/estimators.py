"""Estimators and the combinators that wrap them.

An :class:`Estimator` evaluates a (T, n, d) stack of datasets at once through
its ``stack_fn`` and returns (T, output_dim); that stacked call is its only
evaluation path, and one dataset is evaluated as a stack of one. It carries
the metadata the rest of the package reads (linearity in the data, binary
domain). The concrete estimators here are the coordinatewise mean and
median, the interval-clipped versions of either, the layer estimators of
binary data (among them the plug-in mean), and the scalar projection lift
that turns a d-dimensional estimator into a deterministic estimator of one
coordinate along a chosen unit direction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Dataset, RngStream, _check_finite, _count, _require_scalar_rows, standard_normal

__all__ = [
    "ClipInterval",
    "Estimator",
    "clip_estimator",
    "project_scalar",
    "mean_estimator",
    "median_estimator",
    "layer_estimator",
    "plugin_estimator",
    "sample_unit_direction",
    "build_estimator",
    "ESTIMATOR_NAMES",
]

# Purpose tag for the frozen projection noise stream (clear of trial ids).
_PROJECTION_STREAM_TAG = (1 << 63) + 0x9E37


@dataclass(frozen=True)
class ClipInterval:
    """Closed interval [lo, hi] used for scalar clipping."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def clip(self, v):
        return np.clip(v, self.lo, self.hi)


@dataclass(frozen=True)
class Estimator:
    """A deterministic map Dataset -> R^output_dim plus harness metadata.

    ``stack_fn`` evaluates the estimator on a (T, n, d) stack of datasets at
    once and returns (T, output_dim); row t must depend on dataset t alone.

    ``linear_in_data`` declares f affine in the stacked data: f(sum_r a_r X_r)
    = sum_r a_r f(X_r) for datasets X_r of one shape whenever sum_r a_r = 1
    (up to roundoff). The projection lift evaluates such an f once, on the
    mean of its noise draws, and the exact adversaries read it as "one
    replaced row moves f without bound" (``harness._median_only``, through
    ``harness._request``). A binary-domain estimator declares it of the formula
    it evaluates on {0, 1} data (the plug-in's is the mean).
    """

    name: str
    output_dim: int
    stack_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    linear_in_data: bool = False
    binary_domain: bool = False

    def __call__(self, x: Dataset) -> np.ndarray:
        return self.on_stack(x.samples[None])[0]

    def on_stack(self, stack: np.ndarray) -> np.ndarray:
        """Evaluate on a (T, n, d) stack; the result is (T, output_dim)."""
        stack = np.asarray(stack, dtype=np.float64)
        if stack.ndim != 3:
            raise ValueError(f"stack must be (T, n, d), got shape {stack.shape}")
        out = np.asarray(self.stack_fn(stack), dtype=np.float64)
        if out.shape != (stack.shape[0], self.output_dim):
            raise ValueError(f"estimator {self.name!r} returned shape {out.shape}, "
                             f"expected ({stack.shape[0]}, {self.output_dim})")
        return out


def _median_index(n: int) -> int:
    # 0-based rank of the order statistic x_((n+1)/2) for odd n and the
    # lower median x_(n/2) for even n.
    return (n - 1) // 2


def _mean_stack(stack: np.ndarray) -> np.ndarray:
    """``stack.mean(axis=1)`` of a (T, n, d) stack, bit for bit.

    numpy's mean reduces a non-last axis of a C-contiguous stack by adding
    the rows one after another, one d-element inner loop per (trial, row).
    ``einsum("tij->tj")`` adds the same rows in the same sequential order in
    one pass, and the division by n is the mean's own, so at d >= 2 it gives
    the same bits at a fraction of the cost. At d = 1 the rows are contiguous
    and numpy's mean sums them pairwise, so einsum's sequential sum moves the
    last bit there, and d = 1 keeps the mean; so does any stack that is not
    C-contiguous. einsum overflows silently: a result that is not all finite
    is recomputed by the mean, which raises numpy's overflow
    ``RuntimeWarning`` and gives the same inf or nan.
    """
    if stack.shape[2] >= 2 and stack.flags.c_contiguous:
        out = np.einsum("tij->tj", stack)
        out /= stack.shape[1]
        if np.isfinite(out).all():
            return out
    return stack.mean(axis=1)


def mean_estimator(d: int = 1) -> Estimator:
    return Estimator(
        name="mean",
        output_dim=_count("d", d),
        stack_fn=_mean_stack,
        linear_in_data=True,
    )


def _median_stack(stack: np.ndarray) -> np.ndarray:
    # Per-coordinate selection (introselect), not a full sort: the middle
    # order statistic for odd n, the lower median x_(n/2) for even n. A
    # selection along axis 1 copies each strided lane in and out of a buffer
    # when d >= 2; one contiguous (T, d, n) copy hands introselect the same
    # lane values in the same order, so it picks the same bits, and the
    # result is a compact (T, d) array rather than a view of the copy.
    idx = _median_index(stack.shape[1])
    lanes = stack.transpose(0, 2, 1).copy()
    lanes.partition(idx, axis=2)
    return lanes[:, :, idx].copy()


def median_estimator(d: int = 1) -> Estimator:
    return Estimator(
        name="median",
        output_dim=_count("d", d),
        stack_fn=_median_stack,
    )


def _require_scalar(f: Estimator, what: str) -> None:
    """The rule of every path that takes a scalar estimator only."""
    if f.output_dim != 1:
        raise ValueError(f"{what} takes a scalar estimator; {f.name} has output_dim {f.output_dim}")


def _require_binary(values: np.ndarray, what: str) -> None:
    """The rule of every path that reads binary data: entries in {0, 1}."""
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ValueError(f"{what} requires entries in {{0, 1}}")


# Bounds the memory of the layer paths' (n + 1)-entry tables, their only guard,
# at nine tables of 8-byte entries: at n = 10^5 (k = 1, 3000, 50000) the
# expected sensitivity peaked at 66 bytes per layer and a one-trial ball at
# 52 (tracemalloc). Their work is O(n log k) for the expected sensitivity and
# O(n + T k) for a chunk of T trials of the ball.
_LAYER_BYTES = 1 << 27
_LAYER_TABLES = 9


def _require_layer_bytes(n: int) -> None:
    """The layer guard, by arithmetic on n alone: ``_LayerStack.table`` runs it
    before it builds a table, and ``adversaries._layer_path`` before a trial."""
    need = _LAYER_TABLES * 8 * (n + 1)
    if need > _LAYER_BYTES:
        raise ValueError(f"layer guard: the layer tables for n={n} take {need} bytes, "
                         f"over {_LAYER_BYTES}")


class _LayerStack:
    """The ``stack_fn`` of a layer estimator: g(|x|, n) for each binary dataset x.

    ``g(t, n)`` takes an integer array of weights t and must act elementwise,
    so that its value at t does not depend on the other entries; it is then
    the same float whether it is read from a dataset or from ``table(n)``.
    Row symmetry holds by construction: f(x) depends on x only through the
    number of ones.
    """

    def __init__(self, name: str, g: Callable):
        self.name = name
        self.g = g

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        _require_binary(stack, self.name)
        return self.g(np.count_nonzero(stack == 1.0, axis=1), stack.shape[1])

    def table(self, n: int) -> np.ndarray:
        """g on every layer t = 0 .. n. Each layer path calls it first: the guard
        fires before any table or stack copy."""
        _require_layer_bytes(n)
        table = np.asarray(self.g(np.arange(n + 1), n), dtype=np.float64)
        if table.shape != (n + 1,) or not np.all(np.isfinite(table)):
            raise ValueError(f"{self.name}: the layer function must give n + 1 finite values")
        return table


def layer_estimator(name: str, g: Callable, *, linear_in_data: bool = False) -> Estimator:
    """The scalar binary estimator f(x) = g(|x|, n), with |x| the number of ones.

    Exact sensitivity of such an estimator reads the n + 1 layers instead of
    the 2^n datasets: ``hamming_ball_sup``, the ``hamming-ball`` adversary and
    ``bernoulli_expected_sensitivity`` key on its ``stack_fn``.
    """
    return Estimator(
        name=name,
        output_dim=1,
        stack_fn=_LayerStack(name, g),
        linear_in_data=linear_in_data,
        binary_domain=True,
    )


def _plugin_layer(t: np.ndarray, n: int) -> np.ndarray:
    return t / n


def plugin_estimator() -> Estimator:
    """The plug-in mean of binary data, the layer estimator g(t, n) = t / n.

    On {+0.0, 1.0} data it equals ``stack.mean(axis=1)`` byte for byte: the
    sum of t ones is exactly t. A dataset whose entries are all -0.0 gives
    +0.0 (0 / n), as the mean did with numpy 2.4, whose sum starts at +0.0.
    """
    return layer_estimator("bernoulli-plugin", _plugin_layer, linear_in_data=True)


def clip_estimator(f: Estimator, interval: ClipInterval) -> Estimator:
    """Compose a scalar estimator with Euclidean projection onto [lo, hi].

    Projection is 1-Lipschitz and fixes the interval, so the wrapped
    estimator's worst-case displacement under row replacements never exceeds
    that of the raw estimator. A clipped layer estimator g is the layer
    estimator clip∘g, so it keeps the layer paths; its values are the same
    floats as clipping f's output.
    """
    _require_scalar(f, "clip_estimator")
    if isinstance(f.stack_fn, _LayerStack):
        g = f.stack_fn.g
        return layer_estimator(f"clipped-{f.name}",
                               lambda t, n: interval.clip(np.asarray(g(t, n), dtype=np.float64)))
    return Estimator(
        name=f"clipped-{f.name}",
        output_dim=1,
        stack_fn=lambda stack: interval.clip(f.on_stack(stack)),
        binary_domain=f.binary_domain,
    )


def project_scalar(
    f: Estimator,
    u: np.ndarray,
    lam: np.ndarray,
    mc_inner: int | None = None,
    rng: RngStream | None = None,
) -> Estimator:
    """Scalar estimator g(t) = avg_r <u, f(t_1 u + V_1, ..., t_n u + V_n)>.

    Each scalar sample t_i is lifted to R^d along the unit direction u, with
    orthogonal noise V_i = lam + (I - u u^T) Z_i shared across the lift. The
    inner Z draws come from a stream fixed at construction, so g is a
    deterministic function of t. The noise block V is (mc_inner, n, d),
    built once per n and kept read-only until a call with another n replaces
    it (one slot, shared by every thread). ``mc_inner`` defaults to 1 when f
    is linear in the data and 256 otherwise.

    When f is linear in the data (affine, see :class:`Estimator`), the slot
    holds V's mean over the draws, V̄ = avg_r V_r, an (n, d) array: by
    affinity avg_r f(t u + V_r) = f(t u + V̄), so g(t) = <u, f(t u + V̄)>
    is the same function in exact arithmetic, evaluated once on the whole
    (T, n, d) lift of a stack instead of mc_inner times per dataset. Only
    the floating-point order of the work changes, which moves a value by a
    few ulps of max|t| (``test_affine_lift_is_the_per_trial_formula``).
    The lift is the call's only stack-size temporary, d times the input:
    at most d * ``harness._CHUNK_BYTES`` per chunk of the trial engine. The
    product with u is reduced per row (``sum(axis=1)``), never as a stacked
    matmul, whose BLAS path can move the last bit with the stack size.

    Any other f (the median) sees one trial's lift t ⊗ u + V at a time, in
    the block's own (mc_inner, n, d) layout: one lift buffer is the call's
    temporary, and <u, f(.)> is averaged over the mc_inner draws.

    For an inner estimator that is linear in the data (the mean) and
    lam orthogonal to u, <u, V_i> = 0, so g(t) equals the scalar mean of t
    for any mc_inner; ``test_projected_mean_is_exact_scalar_mean`` checks it.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    _check_finite(u, "u")
    _check_finite(lam, "lam")
    d = u.size
    if lam.size != d:
        raise ValueError(f"u and lam must have equal length, got {d} and {lam.size}")
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-10:
        raise ValueError("u must be a unit vector (|norm - 1| <= 1e-10)")
    if abs(float(u @ lam)) > 1e-10:
        raise ValueError("lam must be orthogonal to u (|<u, lam>| <= 1e-10)")
    if f.output_dim != d:
        raise ValueError(f"estimator output_dim {f.output_dim} does not match direction dim {d}")
    if mc_inner is None:
        mc_inner = 1 if f.linear_in_data else 256
    mc_inner = _count("mc_inner", mc_inner)
    if rng is None:
        rng = RngStream(seed=0, stream_id=_PROJECTION_STREAM_TAG)
    u = u.copy()
    lam = lam.copy()

    @functools.lru_cache(maxsize=1)
    def _noise(n: int) -> np.ndarray:
        # One slot: a call with another n replaces it. Two threads that miss
        # together build the same bytes, so either may win the slot.
        # In place, so the build holds one block and one temporary (peak
        # memory); the operation order matches lam + z - <z, u> u, so the
        # bytes do too.
        v = standard_normal(rng.generator(), (mc_inner, n, d))
        along = np.einsum("rij,j->ri", v, u)
        np.add(lam, v, out=v)
        v -= along[:, :, None] * u
        if f.linear_in_data:
            v = v.mean(axis=0)
        v.flags.writeable = False
        return v

    def affine_lift(stack: np.ndarray, noise: np.ndarray) -> np.ndarray:
        lift = stack * u
        lift += noise
        return (f.on_stack(lift) * u).sum(axis=1, keepdims=True)

    def per_trial_lift(stack: np.ndarray, noise: np.ndarray) -> np.ndarray:
        # One trial's lift at a time bounds the temporaries, and a per-trial
        # matmul keeps the bytes of a one-dataset call. The lift buffer
        # belongs to this call: the noise block is shared by threads.
        lift = np.empty_like(noise)
        out = np.empty((stack.shape[0], 1))
        for i, t in enumerate(stack[:, :, 0]):
            np.add(np.multiply.outer(t, u), noise, out=lift)
            out[i] = (f.on_stack(lift) @ u).mean()
        return out

    lift_fn = affine_lift if f.linear_in_data else per_trial_lift

    def stack_fn(stack: np.ndarray) -> np.ndarray:
        _require_scalar_rows(stack.shape[2], "projected estimator")
        # The noise before the lift: a first call's build sets the peak.
        return lift_fn(stack, _noise(stack.shape[1]))

    return Estimator(name=f"projected:{mc_inner}({f.name})", output_dim=1, stack_fn=stack_fn)


def sample_unit_direction(d: int, rng: RngStream) -> np.ndarray:
    """Uniform random unit vector on the sphere S^{d-1}."""
    d = _count("d", d)
    g = standard_normal(rng.generator(), d)
    return g / np.linalg.norm(g)


_UNIT_INTERVAL = ClipInterval(0.0, 1.0)


def _projected(d: int, seed: int, inner: str) -> Estimator:
    try:
        mc_inner = int(inner)
    except ValueError:
        raise ValueError(f"bad projected estimator name {'projected:' + inner!r}; "
                         "use projected:<inner>")
    u = sample_unit_direction(d, RngStream(seed, _PROJECTION_STREAM_TAG))
    return project_scalar(mean_estimator(d), u, np.zeros(d), mc_inner=mc_inner,
                          rng=RngStream(seed, _PROJECTION_STREAM_TAG + 1))


# Registry name -> (build(d, seed, arg), scalar only). A "base:<arg>" row takes
# every name "base:...", and ``arg`` is the text after its colon.
_ESTIMATORS = {
    "mean": (lambda d, *_: mean_estimator(d), False),
    "median": (lambda d, *_: median_estimator(d), False),
    "clipped-mean": (lambda *_: clip_estimator(mean_estimator(), _UNIT_INTERVAL), True),
    "clipped-median": (lambda *_: clip_estimator(median_estimator(), _UNIT_INTERVAL), True),
    "projected:<inner>": (_projected, False),
    "bernoulli-plugin": (lambda *_: plugin_estimator(), True),
}
ESTIMATOR_NAMES = tuple(_ESTIMATORS)


def build_estimator(name: str, *, d: int = 1, seed: int = 0) -> Estimator:
    """Look up an estimator by registry name.

    Clipped variants clip to [0, 1]; they and the plug-in require d = 1.
    ``projected:<inner>`` projects the d-dimensional mean along a direction
    drawn uniformly on the sphere from a stream derived from ``seed``
    (lam = 0), with <inner> Monte Carlo draws of the orthogonal noise.
    """
    d = _count("d", d)
    base, colon, arg = name.partition(":")
    key = next((row for row in _ESTIMATORS if colon and row.startswith(base + colon)), name)
    if key not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}; known: {', '.join(ESTIMATOR_NAMES)}")
    build, scalar_only = _ESTIMATORS[key]
    if scalar_only and d != 1:
        raise ValueError(f"{name} is a scalar estimator (d = 1)")
    return build(d, seed, arg)

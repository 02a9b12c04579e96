"""Estimators and the combinators that wrap them.

An :class:`Estimator` is a pure function Dataset -> R^output_dim together
with the metadata the rest of the package reads (linearity in the data,
binary domain) and an optional vectorized path over stacked datasets. The
concrete estimators here are the coordinatewise mean and median, the
interval-clipped versions of either, the plug-in mean for binary data, and
the scalar projection lift that turns a d-dimensional estimator into a
deterministic estimator of one coordinate along a chosen unit direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Dataset, RngStream, standard_normal

__all__ = [
    "ClipInterval",
    "Estimator",
    "empirical_mean",
    "coordinatewise_median",
    "bernoulli_plugin",
    "clip_estimator",
    "project_scalar",
    "mean_estimator",
    "median_estimator",
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

    ``stack_fn``, when present, evaluates the estimator on a (T, n, d) stack
    of datasets at once and returns (T, output_dim); it must agree with
    ``fn`` row by row.
    """

    name: str
    output_dim: int
    fn: Callable[[Dataset], np.ndarray]
    stack_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    linear_in_data: bool = False
    binary_domain: bool = False

    def __call__(self, x: Dataset) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self.fn(x), dtype=np.float64))
        if out.shape != (self.output_dim,):
            raise ValueError(f"estimator {self.name!r} returned shape {out.shape}, "
                             f"expected ({self.output_dim},)")
        return out

    def on_stack(self, stack: np.ndarray) -> np.ndarray:
        """Evaluate on a (T, n, d) stack; falls back to a per-dataset loop."""
        stack = np.asarray(stack, dtype=np.float64)
        if stack.ndim != 3:
            raise ValueError(f"stack must be (T, n, d), got shape {stack.shape}")
        if self.stack_fn is not None:
            out = np.asarray(self.stack_fn(stack), dtype=np.float64)
            return out.reshape(stack.shape[0], self.output_dim)
        return np.stack([self(Dataset(stack[t])) for t in range(stack.shape[0])])


def empirical_mean(x: Dataset) -> np.ndarray:
    """Coordinatewise arithmetic mean.

    numpy's pairwise summation keeps the relative error below 1e-12 for
    n up to 1e7 (checked against math.fsum in the test suite).
    """
    return x.samples.mean(axis=0)


def _median_index(n: int) -> int:
    # 0-based rank of the order statistic x_((n+1)/2) for odd n and the
    # lower median x_(n/2) for even n.
    return (n - 1) // 2


def coordinatewise_median(x: Dataset) -> np.ndarray:
    """Per-coordinate median via selection (introselect), not a full sort.

    Odd n returns the middle order statistic x_(m) with n = 2m - 1; even n
    returns the lower median x_(n/2).
    """
    idx = _median_index(x.n)
    return np.partition(x.samples, idx, axis=0)[idx].copy()


def bernoulli_plugin(x: Dataset | np.ndarray) -> float:
    """Fraction of ones |x| / n of a binary sample. Rejects non-binary input."""
    vals = x.samples[:, 0] if isinstance(x, Dataset) else np.asarray(x, dtype=np.float64).ravel()
    if not np.all((vals == 0.0) | (vals == 1.0)):
        raise ValueError("bernoulli_plugin requires entries in {0, 1}")
    return float(vals.mean())


def mean_estimator(d: int = 1) -> Estimator:
    return Estimator(
        name="mean",
        output_dim=d,
        fn=empirical_mean,
        stack_fn=lambda stack: stack.mean(axis=1),
        linear_in_data=True,
    )


def _median_stack(stack: np.ndarray) -> np.ndarray:
    idx = _median_index(stack.shape[1])
    return np.partition(stack, idx, axis=1)[:, idx, :]


def median_estimator(d: int = 1) -> Estimator:
    return Estimator(
        name="median",
        output_dim=d,
        fn=coordinatewise_median,
        stack_fn=_median_stack,
    )


def plugin_estimator() -> Estimator:
    def _check_stack(stack: np.ndarray) -> np.ndarray:
        if not np.all((stack == 0.0) | (stack == 1.0)):
            raise ValueError("bernoulli-plugin requires entries in {0, 1}")
        return stack.mean(axis=1)

    return Estimator(
        name="bernoulli-plugin",
        output_dim=1,
        fn=lambda x: np.array([bernoulli_plugin(x)]),
        stack_fn=_check_stack,
        linear_in_data=True,
        binary_domain=True,
    )


def clip_estimator(f: Estimator, interval: ClipInterval) -> Estimator:
    """Compose a scalar estimator with Euclidean projection onto [lo, hi].

    Projection is 1-Lipschitz and fixes the interval, so the wrapped
    estimator's worst-case displacement under row replacements never exceeds
    that of the raw estimator.
    """
    if f.output_dim != 1:
        raise ValueError("clip_estimator applies to scalar estimators only")
    stack_fn = None
    if f.stack_fn is not None:
        inner = f.stack_fn
        stack_fn = lambda stack: interval.clip(inner(stack))  # noqa: E731
    return Estimator(
        name=f"clipped-{f.name}",
        output_dim=1,
        fn=lambda x: interval.clip(f(x)),
        stack_fn=stack_fn,
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
    deterministic function of t. The (mc_inner, n, d) noise block V is built
    once per n and reused, read-only, until a call with another n replaces
    it (one slot, shared by every thread); it holds the same bytes as a block
    regenerated on every call, so reports do not change. ``mc_inner``
    defaults to 1 when f is linear in the data (the noise term averages out
    exactly) and 256 otherwise.

    For an inner estimator that is linear in the data (the mean) and
    lam orthogonal to u, <u, V_i> = 0, so g(t) equals the scalar mean of t
    for any mc_inner; ``test_projected_mean_is_exact_scalar_mean`` checks it.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
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
    if mc_inner < 1:
        raise ValueError("mc_inner must be a positive integer")
    if rng is None:
        rng = RngStream(seed=0, stream_id=_PROJECTION_STREAM_TAG)
    u = u.copy()
    lam = lam.copy()
    noise_slot: list[np.ndarray | None] = [None]

    def _noise(n: int) -> np.ndarray:
        # Readers take the slot's block in one step; two threads that miss
        # together build the same bytes, so either may win the slot.
        cached = noise_slot[0]
        if cached is not None and cached.shape[1] == n:
            return cached
        # In place, so the build holds one block and one temporary (peak
        # memory); the operation order matches lam + z - <z, u> u, so the
        # bytes do too.
        v = standard_normal(rng.generator(), (mc_inner, n, d))
        along = np.einsum("rij,j->ri", v, u)
        np.add(lam, v, out=v)
        v -= along[:, :, None] * u
        v.flags.writeable = False
        noise_slot[0] = v
        return v

    def fn(t: Dataset) -> np.ndarray:
        if t.d != 1:
            raise ValueError("projected estimator takes scalar (d = 1) datasets")
        # (mc_inner, n, d) lifted datasets.
        lifted = t.samples[:, 0][None, :, None] * u + _noise(t.n)
        vals = f.on_stack(lifted) @ u
        return np.array([float(vals.mean())])

    return Estimator(
        name=f"projected:{mc_inner}({f.name})",
        output_dim=1,
        fn=fn,
    )


def sample_unit_direction(d: int, rng: RngStream) -> np.ndarray:
    """Uniform random unit vector on the sphere S^{d-1}."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    g = standard_normal(rng.generator(), d)
    return g / np.linalg.norm(g)


ESTIMATOR_NAMES = (
    "mean",
    "median",
    "clipped-mean",
    "clipped-median",
    "projected:<inner>",
    "bernoulli-plugin",
)

_UNIT_INTERVAL = ClipInterval(0.0, 1.0)


def build_estimator(name: str, *, d: int = 1, seed: int = 0) -> Estimator:
    """Look up an estimator by registry name.

    Clipped variants clip to [0, 1] and require d = 1. ``projected:<inner>``
    projects the d-dimensional mean along a direction drawn uniformly on the
    sphere from a stream derived from ``seed`` (lam = 0), with <inner> Monte
    Carlo draws of the orthogonal noise.
    """
    if name == "mean":
        return mean_estimator(d)
    if name == "median":
        return median_estimator(d)
    if name == "clipped-mean":
        if d != 1:
            raise ValueError("clipped-mean is a scalar estimator (d = 1)")
        return clip_estimator(mean_estimator(1), _UNIT_INTERVAL)
    if name == "clipped-median":
        if d != 1:
            raise ValueError("clipped-median is a scalar estimator (d = 1)")
        return clip_estimator(median_estimator(1), _UNIT_INTERVAL)
    if name == "bernoulli-plugin":
        return plugin_estimator()
    if name.startswith("projected:"):
        try:
            inner = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad projected estimator name {name!r}; use projected:<inner>")
        u = sample_unit_direction(d, RngStream(seed, _PROJECTION_STREAM_TAG))
        return project_scalar(
            mean_estimator(d), u, np.zeros(d), mc_inner=inner,
            rng=RngStream(seed, _PROJECTION_STREAM_TAG + 1),
        )
    raise ValueError(f"unknown estimator {name!r}; known: {', '.join(ESTIMATOR_NAMES)}")

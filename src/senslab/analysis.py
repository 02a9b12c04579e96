"""Closed-form divergences, tail bounds, and Monte Carlo inequality checkers.

The closed forms:

* ``tv_gaussian_shift``       TV(N(0,1), N(eta,1)) = 2 Phi(eta/2) - 1
* ``chi2_gaussian_products``  chi^2(N(delta,1)^n || N(0,1)^n) = exp(n delta^2) - 1
* ``chi2_localshift_bound``   exp((k^2/n)(e^{delta^2} - 1 - delta^2)) - 1, an
  upper bound on the chi^2 divergence between the random-k-subset delta-shift
  mixture and the global (k/n) delta mean shift
* ``chernoff_tail_bound``     (e lambda / t)^t for Bin(n, p), lambda = np,
  with an optional sharper (e^d / (1+d)^{1+d})^lambda form
* ``binomial_point_mass``     P(Bin(n, r/n) = r) via log-gamma, 0^0 = 1

Each Monte Carlo checker returns an :class:`IneqCheckResult` comparing a
simulated left-hand side against its closed form or partner estimate. Every
Monte Carlo verdict of the package is ``_mc_verdict``: lhs <= rhs + tol, or
|lhs - rhs| <= tol for identity-style checks, with tol = max(_MC_SIGMAS *
mc_stderr + extra, floor); ``extra`` is, for example, a 1e-12 roundoff floor
so degenerate zero-variance rows are not failed by float noise. A
``holds = False`` result on the documented grids is a test failure, not a
warning.

The exponents of the chi^2 forms, the likelihood-ratio identity and the
overlap MGF pass one rule, ``_exp_arg``, before any draw: past
``_EXP_OVERFLOW`` the call raises ``OverflowError``. The chi^2 Monte
Carlo oracles simulate likelihood ratios in log space with max-subtraction
before exponentiating, since exp(n h^2) regimes overflow naive arithmetic.

Every Monte Carlo checker draws through ``_draw_chunks``: its stream's
``random`` doubles form ``parts`` consecutive (trials, *row) blocks, read
chunk by chunk at up to ``_ES_CHUNK_BYTES`` per block, so a check's memory
does not grow with its draws beyond the values it stores per trial. Each
chunk is transformed in place, the statistic is evaluated per chunk, and the
per-trial values are reduced once at the end, so no result depends on the
chunk size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# standard_normal is not called here: bench/tracing.py wraps this module's binding.
from .core import (GaussianModel, RngStream, _check_finite, _count,  # noqa: F401
                   _normal_in_place, _require_finite, _require_nonnegative, standard_normal)
from .estimators import Estimator, _median_index, _median_stack, _require_scalar

__all__ = [
    "IneqCheckResult",
    "tv_gaussian_shift",
    "chi2_gaussian_products",
    "chi2_localshift_bound",
    "chi2_products_mc",
    "chi2_localshift_mc",
    "gaussian_lr_identity_check",
    "hypergeom_mgf_check",
    "chernoff_tail_bound",
    "binomial_tail",
    "binomial_point_mass",
    "efron_stein_check",
    "hcr_check",
    "cramer_rao_check",
    "uniform_spacing_check",
]

# Largest exponent a closed form takes (``_exp_arg``); e^x overflows from x = 709.8.
_EXP_OVERFLOW = 700.0
# Absolute allowance so zero-variance (degenerate) checks survive float roundoff.
_ROUNDOFF = 1e-12
# Standard errors of slack in every Monte Carlo verdict.
_MC_SIGMAS = 4.0
# Fewest draws a Monte Carlo checker accepts: one draw has no sample stderr
# (std with ddof=1 is NaN), and a handful leaves the verdict to noise.
_MIN_DRAWS = 1000
# Bytes per chunk of each block a checker draws through _draw_chunks.
_ES_CHUNK_BYTES = 1 << 21
# Bytes per array of a block of leave-one-out medians (_median_replaced).
_ES_BLOCK_BYTES = 1 << 19
# Largest exact relative stderr a Monte Carlo estimate is admitted at (``_require_reach``).
_MC_REL_SE = 0.5


@dataclass(frozen=True)
class IneqCheckResult:
    """Outcome of one inequality (or identity) check.

    ``holds`` means lhs <= rhs + slack, with the slack of ``_mc_verdict``
    when Monte Carlo is involved and 0 otherwise; identity-style checkers
    apply the same slack on both sides.
    """

    lhs: float
    rhs: float
    holds: bool
    mc_stderr: float | None = None
    trials: int | None = None


def _mean_se(values: np.ndarray, axis: int | None = None):
    """Sample mean of ``values`` and its stderr std(ddof=1) / sqrt(count):
    floats over the whole array, arrays along ``axis``."""
    count = values.size if axis is None else values.shape[axis]
    mean, se = values.mean(axis), values.std(axis, ddof=1) / math.sqrt(count)
    return (float(mean), float(se)) if axis is None else (mean, se)


def _var_se(values: np.ndarray) -> tuple[float, float]:
    """Sample variance (ddof=1) of ``values`` and its stderr
    sqrt(max(m4 - var^2, 0) / size), m4 the fourth central moment."""
    var = float(values.var(ddof=1))
    m4 = float(((values - values.mean()) ** 4).mean())
    return var, math.sqrt(max(m4 - var * var, 0.0) / values.size)


def _mc_verdict(lhs: float, rhs: float, se: float, trials: int, *, extra: float = 0.0,
                floor: float = 0.0, two_sided: bool = False) -> IneqCheckResult:
    """The Monte Carlo verdict: lhs <= rhs + tol, or |lhs - rhs| <= tol when
    ``two_sided``, with tol = max(_MC_SIGMAS * se + extra, floor)."""
    tol = max(_MC_SIGMAS * se + extra, floor)
    holds = abs(lhs - rhs) <= tol if two_sided else lhs <= rhs + tol
    return IneqCheckResult(lhs=lhs, rhs=rhs, holds=holds, mc_stderr=se, trials=trials)


def _draw_chunks(rng: RngStream, trials: int, row_shape: tuple[int, ...], parts: int = 1):
    """Yield (lo, hi, raws) for consecutive chunks [lo, hi) of the trials,
    raws[j] being the (hi - lo, *row_shape) raw ``random`` doubles of part j.

    Part j is doubles [j·T·row, (j+1)·T·row) of ``rng``'s stream, T = trials
    and row = prod(row_shape), in (trials, *row_shape) order: the bytes of
    ``parts`` whole stacks drawn one after another from one generator. Each
    part reads through its own generator, first positioned at double j·T·row
    (the Philox counter advanced by a quarter of it, then the remainder drawn
    and dropped). A chunk holds at most ``_ES_CHUNK_BYTES`` per part, and at
    least one trial; its arrays are reused by the next chunk, so a caller
    transforms them in place and keeps only what it computes from them.
    """
    row = math.prod(row_shape)
    chunk = min(trials, max(1, _ES_CHUNK_BYTES // (row * 8)))
    gens = []
    for j in range(parts):
        gen = rng.generator()
        skip = j * trials * row
        gen.bit_generator.advance(skip // 4)
        gen.random(skip % 4)
        gens.append(gen)
    bufs = [np.empty((chunk, *row_shape)) for _ in gens]
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        yield lo, hi, [gen.random(out=buf[:hi - lo]) for gen, buf in zip(gens, bufs)]


def _shifted_normals(raw: np.ndarray, *shifts: float) -> np.ndarray:
    """Raw ``random`` doubles turned in place into ``standard_normal`` variates
    (``core._normal_in_place``), then ``+ shifts[0] + shifts[1] ...``, each
    added in place and in that order, so the bits are those of the sum (a
    subtraction is passed as its negation, which rounds the same)."""
    x = _normal_in_place(raw)
    for shift in shifts:
        x += shift
    return x


def _scalar_statistic(statistic: Estimator, n: int, trials: int, rng: RngStream,
                      *shifts: tuple[float, ...]) -> np.ndarray:
    """(len(shifts), trials) values of a scalar statistic: row j on
    N(0, 1)^{x n} datasets shifted by ``shifts[j]`` (see ``_shifted_normals``),
    drawn as part j of ``_draw_chunks`` with (n, 1) rows."""
    values = np.empty((len(shifts), trials))
    for lo, hi, raws in _draw_chunks(rng, trials, (n, 1), len(shifts)):
        for out, raw, shift in zip(values, raws, shifts):
            out[lo:hi] = statistic.on_stack(_shifted_normals(raw, *shift))[:, 0]
    return values


def _require_subset(k: int, n: int) -> tuple[int, int]:
    k, n = _count("k", k), _count("n", n)
    if k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return k, n


def _require_probability(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")


def _require_reach(label: str, value: float, log_q: float, draws: int) -> None:
    """Reject a Monte Carlo request whose estimate has an exact relative stderr
    sqrt(e^log_q / draws) over ``_MC_REL_SE``: the rare draws that carry its
    mean are then almost never seen, so the estimate and its sample stderr
    are both far too small. ``label`` and ``value`` name the request's size."""
    if log_q - math.log(draws) > 2 * math.log(_MC_REL_SE):
        raise ValueError(f"{label} {value:.3g} is out of reach at {draws} draws: the "
                         f"estimate's relative stderr exceeds {_MC_REL_SE}")


def _exp_arg(label: str, arg: float) -> float:
    """``arg`` if it is at most ``_EXP_OVERFLOW`` (NaN is not): the one overflow rule."""
    if not arg <= _EXP_OVERFLOW:
        raise OverflowError(f"{label} {arg:.3g} exceeds {_EXP_OVERFLOW}; result overflows")
    return arg


def _expm1_excess(x: float) -> float:
    """e^x - 1 - x, or inf where e^x is out of a double's range."""
    return math.expm1(x) - x if x <= _EXP_OVERFLOW else math.inf


def _square(x: float) -> float:
    """``float(x) ** 2`` (libm's pow), or inf where it overflows."""
    try:
        return float(x) ** 2
    except OverflowError:
        return math.inf


def tv_gaussian_shift(eta: float) -> float:
    """TV(N(0,1), N(eta,1)) = 2 Phi(eta/2) - 1 = erf(eta / (2 sqrt 2)).

    Strictly increasing in eta, strictly below eta for eta > 0, and tends
    to 1 as eta grows.
    """
    _require_nonnegative("eta", eta)
    return math.erf(eta / (2.0 * math.sqrt(2.0)))


def chi2_gaussian_products(delta: float, n: int) -> float:
    """chi^2(N(delta,1)^{x n} || N(0,1)^{x n}) = exp(n delta^2) - 1."""
    n = _count("n", n)
    _require_finite("delta", delta)
    return math.expm1(_exp_arg("n * delta^2 =", n * _square(delta)))


def chi2_localshift_bound(k: int, n: int, delta: float) -> float:
    """exp((k^2/n)(e^{delta^2} - 1 - delta^2)) - 1 for delta >= 0, 1 <= k <= n.

    Zero at delta = 0 and nondecreasing in both k and delta.
    """
    k, n = _require_subset(k, n)
    _require_nonnegative("delta", delta)
    return math.expm1(_exp_arg("bound exponent", (k * k / n) * _expm1_excess(_square(delta))))


def chi2_products_mc(delta: float, n: int, draws: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo chi^2(N(delta,1)^n || N(0,1)^n) by likelihood-ratio simulation.

    Under P the likelihood ratio depends on the data only through the sum
    S ~ N(0, n), which is simulated directly: LR = exp(delta S - n delta^2/2).
    Returns (estimate, stderr) of E_P[(LR - 1)^2].

    S/sqrt(n) of draw t is double t of ``rng``'s stream (``_draw_chunks``
    with scalar rows).

    With s = n delta^2 and x = e^s, the estimate's exact relative stderr is
    sqrt(Q(x) / draws), Q(x) = x^4 + 2x^3 + 3x^2 - 4, since E_P[(LR - 1)^4]
    = x^6 - 4x^3 + 6x - 3. A request where it exceeds 1/2 is rejected before
    any draw (``_require_reach``): s = 100 at 1e4 draws gave 0.99999999915
    +- 5.5e-10 against e^100 - 1. Q is formed in log space, so the rule
    holds at any finite delta.
    """
    n = _count("n", n)
    _require_finite("delta", delta)
    draws = _count("draws", draws, _MIN_DRAWS)
    s = n * (float(delta) * float(delta))
    log_q = 4 * s + math.log1p(2 * math.exp(-s) + 3 * math.exp(-2 * s) - 4 * math.exp(-4 * s))
    _require_reach("n * delta^2 =", s, log_q, draws)
    values = np.empty(draws)
    for lo, hi, (z,) in _draw_chunks(rng, draws, ()):
        # log LR = a x - a^2/2 <= x^2/2 (a = delta sqrt n), at most 34.4 for
        # |x| <= -ndtri(2^-54) = 8.3: expm1 cannot overflow at any n or delta.
        log_lr = delta * (math.sqrt(n) * _shifted_normals(z)) - 0.5 * n * delta * delta
        values[lo:hi] = np.expm1(log_lr) ** 2
    return _mean_se(values)


def _log_esp_k(w: np.ndarray, k: int) -> np.ndarray:
    """log of the k-th elementary symmetric polynomial of each row of w.

    Rows are rescaled by their maximum first (the log-space max-subtraction),
    so the DP accumulates values bounded by C(n, k). Column i updates
    e_j += w_i e_{j-1} for j = 1..min(i + 1, k) in one step, each from the
    e_{j-1} before the step, as a descending loop over j would.
    """
    mx = w.max(axis=1)
    wn = w.T.copy()  # (n, T) in C order: each column of w is one contiguous row
    wn /= mx
    e = np.zeros((k + 1, w.shape[0]))
    e[0] = 1.0
    for i, wi in enumerate(wn):
        top = min(i + 1, k)
        e[1:top + 1] += wi * e[:top]
    return np.log(e[k]) + k * np.log(mx)


def chi2_localshift_mc(k: int, n: int, delta: float, draws: int,
                       rng: RngStream) -> tuple[float, float]:
    """Monte Carlo chi^2 between the k-subset delta-shift mixture and the
    global (k/n) delta shift, by exact mixture likelihood ratios.

    With w_i = exp(delta x_i), the mixture likelihood ratio at x is
    e_k(w) / C(n,k) * exp(-m S - k delta^2/2 + n m^2/2), m = k delta / n,
    where e_k is the k-th elementary symmetric polynomial (computed by a
    rescaled DP). Returns (estimate, stderr) of E_P[(LR - 1)^2] under
    P = N(m, 1)^{x n}.

    Draw t reads doubles [t·n, (t+1)·n) of ``rng``'s stream (``_draw_chunks``
    with (n,) rows).
    """
    k, n = _require_subset(k, n)
    _require_finite("delta", delta)
    draws = _count("draws", draws, _MIN_DRAWS)
    m = k * delta / n
    log_binom = special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)
    values = np.empty(draws)
    for lo, hi, (x,) in _draw_chunks(rng, draws, (n,)):
        x = _shifted_normals(x, m)
        s = x.sum(axis=1)
        log_lr = (_log_esp_k(np.exp(delta * x), k) - log_binom
                  - m * s - 0.5 * k * delta * delta + 0.5 * n * m * m)
        values[lo:hi] = np.expm1(log_lr) ** 2
    return _mean_se(values)


def gaussian_lr_identity_check(a, b, trials: int, rng: RngStream) -> IneqCheckResult:
    """Check E_{X ~ N(theta, I)}[LR_mu(X) LR_nu(X)] = exp(<a, b>) by simulation,
    where a = mu - theta and b = nu - theta.

    This is an identity, so the verdict is two-sided, with a roundoff
    allowance of 1e-12 * max(1, |rhs|). Draw t's X - theta reads doubles
    [t·d, (t+1)·d) of ``rng``'s stream (``_draw_chunks`` with (d,) rows).

    Each draw LR_mu LR_nu = exp(<a + b, Z> - (|a|^2 + |b|^2) / 2) has mean
    e^<a, b> and second moment exp(2|a + b|^2 - |a|^2 - |b|^2), so the
    estimate's exact relative stderr is sqrt(expm1(|a + b|^2) / trials).
    Before any draw, a non-finite a or b and an <a, b> past ``_exp_arg``
    fail, then a request where |a|^2, |b|^2, <a, b> or |a + b|^2 is not
    finite, or where that stderr exceeds 1/2 (``_require_reach``).
    """
    trials = _count("trials", trials, 10_000)
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError("a and b must have equal length")
    _check_finite(a, "a")
    _check_finite(b, "b")
    with np.errstate(over="ignore", invalid="ignore"):
        aa, bb, ab, s = a @ a, b @ b, a @ b, (a + b) @ (a + b)
    rhs = math.exp(_exp_arg("rhs exponent", ab))
    if not np.isfinite([aa, bb, ab, s]).all():
        raise ValueError("|a|^2, |b|^2, <a, b> and |a + b|^2 must be finite")
    # log expm1(s), in a form that cannot overflow
    log_q = s + math.log(-math.expm1(-s)) if s > 0 else -math.inf
    _require_reach("|a + b|^2 =", s, log_q, trials)
    lr = np.empty(trials)
    for lo, hi, (g,) in _draw_chunks(rng, trials, (a.size,)):
        # Per row: a BLAS product over the stack can move a last bit with its size.
        lr[lo:hi] = np.einsum("ij,j->i", _shifted_normals(g), a + b)
    lr -= 0.5 * (aa + bb)
    lhs, se = _mean_se(np.exp(lr, out=lr))
    return _mc_verdict(lhs, rhs, se, trials, extra=_ROUNDOFF * max(1.0, abs(rhs)),
                       two_sided=True)


def _argpartition_masks(u: np.ndarray, k: int) -> np.ndarray:
    # Per row of the (T, n) uniforms u, the positions argpartition puts first
    # at kth = k - 1: its k smallest entries, with argpartition's pick on a tie.
    idx = np.argpartition(u, k - 1, axis=1)[:, :k]
    mask = np.zeros(u.shape, dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    return mask


def _random_k_subset_masks(u: np.ndarray, k: int) -> np.ndarray:
    """Per row of the (T, n) uniforms u, the positions of its k smallest
    entries: a uniformly random k-subset of [n].

    One partition per chunk gives each row's k-th smallest entry, the cut,
    and a row keeps the entries ``u <= cut``. That is exactly its k smallest
    unless the cut is tied with an entry past it, when more than k are kept;
    such a row takes ``_argpartition_masks``' pick instead, so every mask is
    the one ``np.argpartition`` gives.
    """
    mask = u <= np.partition(u, k - 1, axis=1)[:, k - 1:k]
    # Every row keeps at least k entries, so a total of T·k means none keeps more.
    if np.count_nonzero(mask) > mask.shape[0] * k:
        tied = np.flatnonzero(np.count_nonzero(mask, axis=1) > k)
        mask[tied] = _argpartition_masks(u[tied], k)
    return mask


def hypergeom_mgf_check(n: int, k: int, lam: float, trials: int,
                        rng: RngStream) -> IneqCheckResult:
    """Check E exp(lambda (H - k^2/n)) <= exp((k^2/n)(e^lambda - 1 - lambda)),
    H = |A cap B| for independent uniformly random k-subsets A, B of [n].

    A is drawn from part 0 and B from part 1 of ``_draw_chunks`` with (n,)
    rows: trial t's A reads doubles [t·n, (t+1)·n) of ``rng``'s stream and
    its B doubles [(T + t)·n, (T + t + 1)·n), T = trials.

    The bound exponent and the largest lhs exponent, lambda (k - k^2/n) at
    H = k, pass ``_exp_arg`` before any draw.
    """
    k, n = _require_subset(k, n)
    _require_nonnegative("lambda", lam)
    trials = _count("trials", trials, _MIN_DRAWS)
    ratio = k * k / n
    rhs = math.exp(_exp_arg("bound exponent", ratio * _expm1_excess(lam)))
    _exp_arg("lhs exponent", lam * (k - ratio))
    h = np.empty(trials)
    for lo, hi, (u_a, u_b) in _draw_chunks(rng, trials, (n,), 2):
        h[lo:hi] = (_random_k_subset_masks(u_a, k) & _random_k_subset_masks(u_b, k)).sum(axis=1)
    lhs, se = _mean_se(np.exp(lam * (h - ratio)))
    return _mc_verdict(lhs, rhs, se, trials)


def chernoff_tail_bound(n: int, p: float, t: float, sharp: bool = False) -> float:
    """Upper bound on P(Bin(n, p) >= t) for t > 0, capped at 1.

    Default form (e lambda / t)^t with lambda = np; ``sharp=True`` gives
    (e^d / (1+d)^{1+d})^lambda with 1 + d = t/lambda, which multiplies the
    default by e^{-lambda}. Vacuous (returns 1) when t <= lambda.
    """
    n = _count("n", n)
    _require_finite("t", t)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    _require_probability(p)
    lam = n * p
    if t <= lam:
        return 1.0
    log_bound = t - t * math.log(t / lam)
    if sharp:
        log_bound -= lam
    return 1.0 if log_bound >= 0 else math.exp(log_bound)


def binomial_tail(n: int, p: float, t: int) -> float:
    """Exact P(Bin(n, p) >= t) for p in (0, 1), by log-space summation of the pmf."""
    n = _count("n", n)
    _require_probability(p)
    if t <= 0:
        return 1.0
    t = _count("t", t)
    if t > n:
        return 0.0
    j = np.arange(t, n + 1)
    log_pmf = (special.gammaln(n + 1) - special.gammaln(j + 1) - special.gammaln(n - j + 1)
               + j * math.log(p) + (n - j) * math.log1p(-p))
    return float(np.exp(special.logsumexp(log_pmf)))


def binomial_point_mass(n: int, r: int) -> float:
    """P(Bin(n, r/n) = r) = C(n,r) (r/n)^r (1 - r/n)^{n-r}, with 0^0 = 1.

    Evaluated through log-gamma so large n stays accurate. The infimum of
    this quantity times sqrt(r + 1) over a desk-scale grid is a measured
    value, reported by the verification suite rather than assumed.
    """
    n, r = _count("n", n), _count("r", r, 0)
    if r > n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if r == 0 or r == n:
        return 1.0
    p = r / n
    log_pmf = (_gammaln_int(n + 1) - _gammaln_int(r + 1) - _gammaln_int(n - r + 1)
               + r * math.log(p) + (n - r) * math.log1p(-p))
    return math.exp(log_pmf)


@functools.lru_cache(maxsize=1024)
def _gammaln_int(m: int) -> float:
    # special.gammaln(m) as a Python float: the same double, so the
    # arithmetic of binomial_point_mass keeps its bits. A grid over n <= N
    # asks for N + 1 distinct arguments, each many times.
    return float(special.gammaln(m))


def _variance_with_se(values: np.ndarray) -> tuple[float, float]:
    # Unbiased total variance of (T, dout) samples plus the stderr of the
    # per-trial squared-deviation mean.
    t = values.shape[0]
    mean, se = _mean_se(((values - values.mean(axis=0)) ** 2).sum(axis=1))
    return mean * t / (t - 1), se * t / (t - 1)


def _replaced_on_stack(f: Estimator, x: np.ndarray, fresh: np.ndarray, blocks):
    # f on the (T, n, d) stack x with rows start..stop-1 replaced, in place, by
    # fresh's, for each block [start, stop); x is restored after each block,
    # once the caller has taken its value.
    for start, stop in blocks:
        saved = x[:, start:stop].copy()
        x[:, start:stop] = fresh[:, start:stop]
        yield f.on_stack(x)
        x[:, start:stop] = saved


def _median_replaced(x: np.ndarray, fresh: np.ndarray):
    # _median_stack on the (T, n, d) stack x, and a generator of it on x with
    # row i replaced by fresh's row i, from the order statistics s_{q-1}, s_q,
    # s_{q+1} of each dataset (see efron_stein_check). The generator yields
    # consecutive blocks of rows i, each (T, rows, d) with at most about
    # _ES_BLOCK_BYTES per array, in row order.
    t, n, d = x.shape
    q = _median_index(n)
    s = np.sort(x, axis=1)
    mid = s[:, q].copy()
    below = s[:, q - 1].copy() if q >= 1 else np.full_like(mid, -np.inf)
    above = s[:, q + 1].copy() if q + 1 < n else np.full_like(mid, np.inf)
    del s
    # Each bound picks one of two order statistics per element. The pick is
    # made on the bit patterns, a ^ ((a ^ b) & -mask), which is a or b exactly,
    # without the branch np.where takes on every element of a random mask.
    mid_b = mid[:, None]
    below_bits, above_bits = below.view(np.int64)[:, None], above.view(np.int64)[:, None]
    to_mid_lo = below_bits ^ mid.view(np.int64)[:, None]
    to_mid_hi = above_bits ^ mid.view(np.int64)[:, None]
    rows = max(1, _ES_BLOCK_BYTES // (t * d * 8))

    def bound(bits, to_mid, pick):
        pick = pick.astype(np.int64)
        np.negative(pick, out=pick)
        pick &= to_mid
        pick ^= bits
        return pick.view(np.float64)

    def replaced():
        for i in range(0, n, rows):
            xi = x[:, i:i + rows]
            lo = bound(below_bits, to_mid_lo, xi < mid_b)
            hi = bound(above_bits, to_mid_hi, xi > mid_b)
            yield np.clip(fresh[:, i:i + rows], lo, hi, out=lo)

    return mid, replaced()


def _leave_out_gaps(f: Estimator, x: np.ndarray, fresh: np.ndarray, blocks):
    """f(X) on the (T, n, d) stack x, and a generator that yields, for each
    block b in turn, ||f(X) - f(X^(b))||^2 per dataset, X^(b) being x with
    the rows of block b replaced by fresh's.

    ``blocks`` are consecutive half-open row ranges that partition [0, n).
    When each is one row and f's ``stack_fn`` is ``_median_stack``, the
    medians come from one sort of x (``_median_replaced``), and the gaps of
    a block of rows are formed together, then yielded row by row: each is
    the (T,) vector a single row would give, bit for bit. Otherwise f is
    evaluated on x and on each replaced stack, with x restored after each.
    """
    if f.stack_fn is _median_stack and len(blocks) == x.shape[1]:
        fx, replaced = _median_replaced(x, fresh)
        return fx, _row_block_gaps(fx, replaced)
    fx = f.on_stack(x)
    return fx, (((fx - fxb) ** 2).sum(axis=1) for fxb in _replaced_on_stack(f, x, fresh, blocks))


def _row_block_gaps(fx: np.ndarray, replaced):
    # ||fx - f_i||^2 per dataset for each row i, from the (T, rows, d) blocks
    # of f_i that ``replaced`` yields; each block is overwritten in place.
    for block in replaced:
        np.subtract(fx[:, None], block, out=block)
        block *= block
        yield from block.sum(axis=2).T


def efron_stein_check(f: Estimator, model: GaussianModel, n: int, trials: int,
                      rng: RngStream) -> IneqCheckResult:
    """Check E||f(X) - E f(X)||^2 <= (1/2) sum_i E||f(X) - f(X^(i))||^2,
    where X^(i) replaces sample i by an independent fresh copy.

    The draws are one stream, read by ``_draw_chunks`` with (n, d) rows:
    the trials' X is part 0, its first trials·n·d ``random`` doubles in
    (trials, n, d) order, and their fresh copies part 1, the next
    trials·n·d. f(X) and the per-trial gap sums are stored by trial and
    reduced once at the end, so the result does not depend on the chunk size.

    An f whose ``stack_fn`` is ``_median_stack`` gets its n leave-one-out
    medians from one sort of the stack instead of n selections over it.
    Per dataset and coordinate, let q = (n-1)//2 and s the sorted values.
    Removing x_i leaves the ranks q-1 and q of the rest, (r_{q-1}, r_q), at

    * (s_q, s_{q+1}) if x_i < s_q,
    * (s_{q-1}, s_{q+1}) if x_i == s_q,
    * (s_{q-1}, s_q) if x_i > s_q,

    with a rank outside 0..n-1 read as -inf or +inf (n <= 2). Inserting the
    fresh value y puts clip(y, r_{q-1}, r_q) at rank q. That is one of its
    three inputs, with no arithmetic, and depends on the multiset alone, so
    it is the value the selection picks, bit for bit: with ties, per
    coordinate for d > 1, and for even n (the lower median). f(X) itself is
    s_q, read from the same sort instead of a selection over the stack.
    After the sort, the bounds, the clip and the squared gaps are formed for
    a block of rows at a time (``_median_replaced``, at most about
    ``_ES_BLOCK_BYTES`` per array), and the gaps are added to the per-trial
    sums one row at a time, in row order, so the sums keep their bits.

    Only the sign of a zero tied with a zero of the other sign could differ
    from a selection, in f(X) or in f(X^(i)), and neither moves the result:
    f(X) - f(X^(i)) is then ±0 or the same nonzero value, so its square is
    the same; and a ±0 term leaves a sum over trials unchanged unless every
    term is zero, when the mean is ±0 and each (f(X) - mean)^2 is still +0.
    Any other f has no such shortcut and is evaluated on X and on each of the
    n replaced stacks.
    """
    n = _count("n", n)
    trials = _count("trials", trials, _MIN_DRAWS)
    rows = [(i, i + 1) for i in range(n)]
    fx = np.empty((trials, f.output_dim))
    gaps = np.zeros(trials)
    for lo, hi, (x, fresh) in _draw_chunks(rng, trials, (n, model.d), 2):
        fx[lo:hi], row_gaps = _leave_out_gaps(f, model.from_random(x), model.from_random(fresh),
                                              rows)
        for g in row_gaps:
            gaps[lo:hi] += g
    lhs, se_lhs = _variance_with_se(fx)
    rhs, se_rhs = _mean_se(0.5 * gaps)
    return _mc_verdict(lhs, rhs, math.hypot(se_lhs, se_rhs), trials, extra=_ROUNDOFF)


def _squared_gap(lo: np.ndarray, hi: np.ndarray, width: float,
                 scale: float) -> tuple[float, float]:
    """g^2 / scale for g = (mean(hi) - mean(lo)) / width, and its delta-method
    stderr 2 |g| se(g) / scale, se(g) = hypot(std(lo), std(hi)) / (sqrt(T) width)
    for T draws of each."""
    gap = float(hi.mean() - lo.mean()) / width
    se_gap = math.hypot(lo.std(ddof=1), hi.std(ddof=1)) / math.sqrt(lo.size) / width
    return gap * gap / scale, 2.0 * abs(gap) * se_gap / scale


def hcr_check(statistic: Estimator, mu0: float, h: float, n: int, trials: int,
              rng: RngStream) -> IneqCheckResult:
    """Check the variance lower bound (E_Q T - E_P T)^2 / chi^2(Q || P) <= Var_P(T)
    for P = N(mu0, 1)^{x n} and Q = N(mu0 + h, 1)^{x n}.

    The P datasets are part 0 and the Q datasets part 1 of ``_draw_chunks``
    with (n, 1) rows: trial t's P dataset reads doubles [t·n, (t+1)·n) of
    ``rng``'s stream and its Q dataset [(T + t)·n, (T + t + 1)·n), T = trials.
    """
    _require_finite("mu0", mu0)
    _require_finite("h", h)
    if h == 0:
        raise ValueError("h must be nonzero")
    _require_scalar(statistic, "hcr_check")
    n = _count("n", n)
    trials = _count("trials", trials, _MIN_DRAWS)
    chi2 = chi2_gaussian_products(h, n)
    tp, tq = _scalar_statistic(statistic, n, trials, rng, (mu0,), (mu0, h))
    lhs, se_lhs = _squared_gap(tp, tq, 1.0, chi2)
    rhs, se_rhs = _var_se(tp)
    return _mc_verdict(lhs, rhs, math.hypot(se_lhs, se_rhs), trials, extra=_ROUNDOFF)


def cramer_rao_check(statistic: Estimator, mu0: float, n: int, trials: int,
                     rng: RngStream) -> IneqCheckResult:
    """Check (m'(mu0))^2 / n <= Var_{mu0}(T) with the mean-response slope m'
    estimated by a central finite difference of half-width 0.5 / sqrt(n).

    The slack covers the Monte Carlo error plus a step^2 / n allowance for
    the finite-difference bias (exact for statistics with affine mean
    response, which covers the documented grid).

    The datasets at mu0 - step, mu0 + step and mu0 are parts 0, 1 and 2 of
    ``_draw_chunks`` with (n, 1) rows: part j of trial t reads doubles
    [(j T + t)·n, (j T + t + 1)·n) of ``rng``'s stream, T = trials.
    """
    _require_finite("mu0", mu0)
    n = _count("n", n)
    trials = _count("trials", trials, _MIN_DRAWS)
    _require_scalar(statistic, "cramer_rao_check")
    step = 0.5 / math.sqrt(n)
    t_lo, t_hi, t_mid = _scalar_statistic(statistic, n, trials, rng,
                                          (mu0, -step), (mu0, step), (mu0,))
    lhs, se_lhs = _squared_gap(t_lo, t_hi, 2.0 * step, n)
    rhs, se_rhs = _var_se(t_mid)
    return _mc_verdict(lhs, rhs, math.hypot(se_lhs, se_rhs), trials, extra=step * step / n)


def uniform_spacing_check(n: int, i: int, trials: int, rng: RngStream) -> IneqCheckResult:
    """Check the i-th spacing of n sorted uniforms against its Beta(1, n)
    moments: mean 1/(n+1) and variance n / ((n+1)^2 (n+2)).

    Two moment identities share one result record, so the check is reported
    in standardized units: lhs is the larger of the two absolute deviations
    divided by its own Monte Carlo stderr, rhs the ``_MC_SIGMAS`` envelope.

    Trial t's uniforms are doubles [t·n, (t+1)·n) of ``rng``'s stream
    (``_draw_chunks`` with (n,) rows).
    """
    n, i = _count("n", n), _count("i", i)
    if i > n + 1:
        raise ValueError(f"need 1 <= i <= n + 1, got i={i}")
    trials = _count("trials", trials, _MIN_DRAWS)
    d_i = np.empty(trials)
    for lo, hi, (u,) in _draw_chunks(rng, trials, (n,)):
        u.sort(axis=1)
        # u_(i) - u_(i-1) with u_(0) = 0.0 and u_(n+1) = 1.0.
        np.subtract(u[:, i - 1] if i <= n else 1.0, u[:, i - 2] if i >= 2 else 0.0,
                    out=d_i[lo:hi])

    mean_true = 1.0 / (n + 1)
    var_true = n / ((n + 1) ** 2 * (n + 2))
    m_hat, se_m = _mean_se(d_i)
    v_hat, se_v = _var_se(d_i)
    z = max(abs(m_hat - mean_true) / se_m, abs(v_hat - var_true) / se_v)
    return IneqCheckResult(lhs=z, rhs=_MC_SIGMAS, holds=z <= _MC_SIGMAS, mc_stderr=se_m,
                           trials=trials)

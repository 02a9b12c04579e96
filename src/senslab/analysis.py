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

The chi^2 Monte Carlo oracles simulate likelihood ratios in log space with
max-subtraction before exponentiating, since exp(n h^2) regimes overflow
naive arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import GaussianModel, RngStream, standard_normal
from .estimators import Estimator, _median_index, _median_stack

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

_EXP_OVERFLOW = 700.0
# Absolute allowance so zero-variance (degenerate) checks survive float roundoff.
_ROUNDOFF = 1e-12
# Draws per block of chi2_localshift_mc.
_CHI2_CHUNK = 20_000
# Standard errors of slack in every Monte Carlo verdict.
_MC_SIGMAS = 4.0
# Fewest draws a Monte Carlo checker accepts: one draw has no sample stderr
# (std with ddof=1 is NaN), and a handful leaves the verdict to noise.
_MIN_DRAWS = 1000


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


def _shifted_normals(gen: np.random.Generator, size, *shifts: float) -> np.ndarray:
    """``standard_normal(gen, size) + shifts[0] + shifts[1] ...``, each shift
    added in place and in that order, so the bits are those of the sum (a
    subtraction is passed as its negation, which rounds the same)."""
    x = standard_normal(gen, size)
    for shift in shifts:
        x += shift
    return x


def _require_draws(name: str, draws: int, fewest: int = _MIN_DRAWS) -> None:
    if draws < fewest:
        raise ValueError(f"{name} needs at least {fewest} draws, got {draws}")


def tv_gaussian_shift(eta: float) -> float:
    """TV(N(0,1), N(eta,1)) = 2 Phi(eta/2) - 1 = erf(eta / (2 sqrt 2)).

    Strictly increasing in eta, strictly below eta for eta > 0, and tends
    to 1 as eta grows.
    """
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    return math.erf(eta / (2.0 * math.sqrt(2.0)))


def chi2_gaussian_products(delta: float, n: int) -> float:
    """chi^2(N(delta,1)^{x n} || N(0,1)^{x n}) = exp(n delta^2) - 1."""
    arg = n * float(delta) ** 2
    if arg > _EXP_OVERFLOW:
        raise OverflowError(f"n * delta^2 = {arg:.3g} exceeds {_EXP_OVERFLOW}; result overflows")
    return math.expm1(arg)


def chi2_localshift_bound(k: int, n: int, delta: float) -> float:
    """exp((k^2/n)(e^{delta^2} - 1 - delta^2)) - 1 for delta >= 0, 1 <= k <= n.

    Zero at delta = 0 and nondecreasing in both k and delta.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    d2 = float(delta) ** 2
    arg = (k * k / n) * (math.expm1(d2) - d2)
    if arg > _EXP_OVERFLOW:
        raise OverflowError(f"bound exponent {arg:.3g} exceeds {_EXP_OVERFLOW}; result overflows")
    return math.expm1(arg)


def chi2_products_mc(delta: float, n: int, draws: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo chi^2(N(delta,1)^n || N(0,1)^n) by likelihood-ratio simulation.

    Under P the likelihood ratio depends on the data only through the sum
    S ~ N(0, n), which is simulated directly: LR = exp(delta S - n delta^2/2).
    Returns (estimate, stderr) of E_P[(LR - 1)^2].
    """
    _require_draws("chi2_products_mc", draws)
    gen = rng.generator()
    s = math.sqrt(n) * standard_normal(gen, draws)
    log_lr = delta * s - 0.5 * n * delta * delta
    if float(log_lr.max()) > _EXP_OVERFLOW:
        raise OverflowError("likelihood ratio overflows; reduce n * delta^2")
    return _mean_se(np.expm1(log_lr) ** 2)


def _log_esp_k(w: np.ndarray, k: int) -> np.ndarray:
    """log of the k-th elementary symmetric polynomial of each row of w.

    Rows are rescaled by their maximum first (the log-space max-subtraction),
    so the DP accumulates values bounded by C(n, k).
    """
    mx = w.max(axis=1)
    wn = w / mx[:, None]
    e = np.zeros((k + 1, w.shape[0]))
    e[0] = 1.0
    for i in range(w.shape[1]):
        wi = wn[:, i]
        for j in range(min(i + 1, k), 0, -1):
            e[j] += wi * e[j - 1]
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
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    _require_draws("chi2_localshift_mc", draws)
    m = k * delta / n
    log_binom = special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)
    gen = rng.generator()
    pieces = []
    left = draws
    while left > 0:
        t = min(_CHI2_CHUNK, left)
        x = _shifted_normals(gen, (t, n), m)
        s = x.sum(axis=1)
        log_lr = (_log_esp_k(np.exp(delta * x), k) - log_binom
                  - m * s - 0.5 * k * delta * delta + 0.5 * n * m * m)
        pieces.append(np.expm1(log_lr) ** 2)
        left -= t
    return _mean_se(np.concatenate(pieces))


def gaussian_lr_identity_check(a, b, trials: int, rng: RngStream) -> IneqCheckResult:
    """Check E_{X ~ N(theta, I)}[LR_mu(X) LR_nu(X)] = exp(<a, b>) by simulation,
    where a = mu - theta and b = nu - theta.

    This is an identity, so the verdict is two-sided, with a roundoff
    allowance of 1e-12 * max(1, |rhs|).
    """
    _require_draws("gaussian_lr_identity_check", trials, 10_000)
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError("a and b must have equal length")
    g = standard_normal(rng.generator(), (trials, a.size))
    lr = np.exp(g @ (a + b) - 0.5 * (a @ a + b @ b))
    lhs, se = _mean_se(lr)
    rhs = float(math.exp(a @ b))
    return _mc_verdict(lhs, rhs, se, trials, extra=_ROUNDOFF * max(1.0, abs(rhs)),
                       two_sided=True)


def _random_k_subset_masks(gen: np.random.Generator, trials: int, n: int, k: int) -> np.ndarray:
    u = gen.random((trials, n))
    idx = np.argpartition(u, k - 1, axis=1)[:, :k]
    mask = np.zeros((trials, n), dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    return mask


def hypergeom_mgf_check(n: int, k: int, lam: float, trials: int,
                        rng: RngStream) -> IneqCheckResult:
    """Check E exp(lambda (H - k^2/n)) <= exp((k^2/n)(e^lambda - 1 - lambda)),
    H = |A cap B| for independent uniformly random k-subsets A, B of [n].
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    _require_draws("hypergeom_mgf_check", trials)
    gen = rng.generator()
    if k == n:
        h = np.full(trials, float(n))
    else:
        mask_a = _random_k_subset_masks(gen, trials, n, k)
        mask_b = _random_k_subset_masks(gen, trials, n, k)
        h = (mask_a & mask_b).sum(axis=1).astype(np.float64)
    lhs, se = _mean_se(np.exp(lam * (h - k * k / n)))
    rhs = float(math.exp((k * k / n) * (math.expm1(lam) - lam)))
    return _mc_verdict(lhs, rhs, se, trials)


def chernoff_tail_bound(n: int, p: float, t: float, sharp: bool = False) -> float:
    """Upper bound on P(Bin(n, p) >= t) for t > 0, capped at 1.

    Default form (e lambda / t)^t with lambda = np; ``sharp=True`` gives
    (e^d / (1+d)^{1+d})^lambda with 1 + d = t/lambda, which multiplies the
    default by e^{-lambda}. Vacuous (returns 1) when t <= lambda.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    lam = n * p
    if t <= lam:
        return 1.0
    log_bound = t - t * math.log(t / lam)
    if sharp:
        log_bound -= lam
    return min(1.0, math.exp(log_bound))


def binomial_tail(n: int, p: float, t: int) -> float:
    """Exact P(Bin(n, p) >= t) by log-space summation of the pmf."""
    if t <= 0:
        return 1.0
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
    if not (0 <= r <= n):
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if r == 0 or r == n:
        return 1.0
    log_pmf = (_gammaln_int(n + 1) - _gammaln_int(r + 1) - _gammaln_int(n - r + 1)
               + r * math.log(r / n) + (n - r) * math.log1p(-r / n))
    return float(math.exp(log_pmf))


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
    # _median_stack on x, and a generator of it on x with row i replaced by
    # fresh's row i, for i = 0..n-1, from the order statistics s_{q-1}, s_q,
    # s_{q+1} of each dataset (see efron_stein_check).
    n = x.shape[1]
    q = _median_index(n)
    s = np.sort(x, axis=1)
    mid = s[:, q].copy()
    below = s[:, q - 1].copy() if q >= 1 else np.full_like(mid, -np.inf)
    above = s[:, q + 1].copy() if q + 1 < n else np.full_like(mid, np.inf)
    del s
    # Each bound picks one of two order statistics per element. The pick is
    # made on the bit patterns, a ^ ((a ^ b) & -mask), which is a or b exactly,
    # without the branch np.where takes on every element of a random mask.
    below_bits, above_bits = below.view(np.int64), above.view(np.int64)
    to_mid_lo = below_bits ^ mid.view(np.int64)
    to_mid_hi = above_bits ^ mid.view(np.int64)

    def replaced():
        for i in range(n):
            xi = x[:, i]
            lo = below_bits ^ (to_mid_lo & -(xi < mid).astype(np.int64))
            hi = above_bits ^ (to_mid_hi & -(xi > mid).astype(np.int64))
            yield np.clip(fresh[:, i], lo.view(np.float64), hi.view(np.float64))

    return mid, replaced()


def efron_stein_check(f: Estimator, model: GaussianModel, n: int, trials: int,
                      rng: RngStream) -> IneqCheckResult:
    """Check E||f(X) - E f(X)||^2 <= (1/2) sum_i E||f(X) - f(X^(i))||^2,
    where X^(i) replaces sample i by an independent fresh copy.

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

    Only the sign of a zero tied with a zero of the other sign could differ
    from a selection, in f(X) or in f(X^(i)), and neither moves the result:
    f(X) - f(X^(i)) is then ±0 or the same nonzero value, so its square is
    the same; and a ±0 term leaves a sum over trials unchanged unless every
    term is zero, when the mean is ±0 and each (f(X) - mean)^2 is still +0.
    Any other f has no such shortcut and is evaluated on X and on each of the
    n replaced stacks.
    """
    _require_draws("efron_stein_check", trials)
    gen = rng.generator()
    x = model.from_random(gen.random((trials, n, model.d)))
    fresh = model.from_random(gen.random((trials, n, model.d)))
    if f.stack_fn is _median_stack:
        fx, replaced = _median_replaced(x, fresh)
    else:
        fx = f.on_stack(x)
        replaced = _replaced_on_stack(f, x, fresh, [(i, i + 1) for i in range(n)])
    lhs, se_lhs = _variance_with_se(fx)
    gaps = np.zeros(trials)
    for fxi in replaced:
        gaps += ((fx - fxi) ** 2).sum(axis=1)
    rhs, se_rhs = _mean_se(0.5 * gaps)
    return _mc_verdict(lhs, rhs, math.hypot(se_lhs, se_rhs), trials, extra=_ROUNDOFF)


def hcr_check(statistic: Estimator, mu0: float, h: float, n: int, trials: int,
              rng: RngStream) -> IneqCheckResult:
    """Check the variance lower bound (E_Q T - E_P T)^2 / chi^2(Q || P) <= Var_P(T)
    for P = N(mu0, 1)^{x n} and Q = N(mu0 + h, 1)^{x n}.
    """
    if h == 0:
        raise ValueError("h must be nonzero")
    if statistic.output_dim != 1:
        raise ValueError("hcr_check takes a scalar statistic")
    _require_draws("hcr_check", trials)
    chi2 = chi2_gaussian_products(h, n)
    gen = rng.generator()
    tp = statistic.on_stack(_shifted_normals(gen, (trials, n, 1), mu0))[:, 0]
    tq = statistic.on_stack(_shifted_normals(gen, (trials, n, 1), mu0, h))[:, 0]

    delta = float(tq.mean() - tp.mean())
    lhs = delta * delta / chi2
    se_delta = math.hypot(tp.std(ddof=1), tq.std(ddof=1)) / math.sqrt(trials)
    se_lhs = 2.0 * abs(delta) * se_delta / chi2

    rhs, se_rhs = _var_se(tp)
    return _mc_verdict(lhs, rhs, math.hypot(se_lhs, se_rhs), trials, extra=_ROUNDOFF)


def cramer_rao_check(statistic: Estimator, mu0: float, n: int, trials: int,
                     rng: RngStream) -> IneqCheckResult:
    """Check (m'(mu0))^2 / n <= Var_{mu0}(T) with the mean-response slope m'
    estimated by a central finite difference of half-width 0.5 / sqrt(n).

    The slack covers the Monte Carlo error plus a step^2 / n allowance for
    the finite-difference bias (exact for statistics with affine mean
    response, which covers the documented grid).
    """
    _require_draws("cramer_rao_check", trials)
    if statistic.output_dim != 1:
        raise ValueError("cramer_rao_check takes a scalar statistic")
    step = 0.5 / math.sqrt(n)
    gen = rng.generator()
    t_lo = statistic.on_stack(_shifted_normals(gen, (trials, n, 1), mu0, -step))[:, 0]
    t_hi = statistic.on_stack(_shifted_normals(gen, (trials, n, 1), mu0, step))[:, 0]
    t_mid = statistic.on_stack(_shifted_normals(gen, (trials, n, 1), mu0))[:, 0]

    slope = float(t_hi.mean() - t_lo.mean()) / (2.0 * step)
    lhs = slope * slope / n
    se_slope = math.hypot(t_lo.std(ddof=1), t_hi.std(ddof=1)) / math.sqrt(trials) / (2.0 * step)
    se_lhs = 2.0 * abs(slope) * se_slope / n

    rhs, se_rhs = _var_se(t_mid)
    return _mc_verdict(lhs, rhs, math.hypot(se_lhs, se_rhs), trials, extra=step * step / n)


def uniform_spacing_check(n: int, i: int, trials: int, rng: RngStream) -> IneqCheckResult:
    """Check the i-th spacing of n sorted uniforms against its Beta(1, n)
    moments: mean 1/(n+1) and variance n / ((n+1)^2 (n+2)).

    Two moment identities share one result record, so the check is reported
    in standardized units: lhs is the larger of the two absolute deviations
    divided by its own Monte Carlo stderr, rhs the ``_MC_SIGMAS`` envelope.
    """
    if not (1 <= i <= n + 1):
        raise ValueError(f"need 1 <= i <= n + 1, got i={i}")
    _require_draws("uniform_spacing_check", trials)
    gen = rng.generator()
    u = np.sort(gen.random((trials, n)), axis=1)
    padded = np.concatenate([np.zeros((trials, 1)), u, np.ones((trials, 1))], axis=1)
    d_i = padded[:, i] - padded[:, i - 1]

    mean_true = 1.0 / (n + 1)
    var_true = n / ((n + 1) ** 2 * (n + 2))
    m_hat, se_m = _mean_se(d_i)
    v_hat, se_v = _var_se(d_i)
    z = max(abs(m_hat - mean_true) / se_m, abs(v_hat - var_true) / se_v)
    return IneqCheckResult(lhs=z, rhs=_MC_SIGMAS, holds=z <= _MC_SIGMAS, mc_stderr=se_m,
                           trials=trials)

"""Fractional differences of periodic functions.

The forward difference of fractional order beta > 0 with step delta is

    (D_delta^beta f)(x) = sum_{v>=0} binom(beta, v) (-1)^v f(x + v*delta).

On a trigonometric polynomial it acts coefficientwise: the coefficient of
e^{ikx} is multiplied by the principal-branch power (1 - e^{ik*delta})^beta,
which is the fast path (``apply_diff``).  ``apply_diff_series`` sums the
defining series directly and serves as the independent oracle.
"""
from __future__ import annotations

import math

import numpy as np

from ._util import check_beta
from .errors import ConvergenceError, InvalidArgumentError
from .signal import TrigPoly, evaluate

TWO_PI = 2.0 * math.pi

_SERIES_CAP = 10_000_000


def frac_binom(beta: float, nu: int) -> float:
    """Generalised binomial coefficient binom(beta, nu) for integer nu >= 0.

    Computed by the stable product recurrence
    binom(beta, nu) = binom(beta, nu-1) * (beta - nu + 1)/nu.
    """
    nu = int(nu)
    if nu < 0:
        raise InvalidArgumentError("nu must be a nonnegative integer")
    b = 1.0
    # (j - 1.0) first: "beta - j + 1.0" would absorb a tiny beta into -1+1
    for j in range(1, nu + 1):
        b *= (beta - (j - 1.0)) / j
    return b


def _tail(beta: float, n: int) -> float:
    """T(n) = sum_{v>n} |binom(beta, v)|: exact from n = floor(beta) on,
    inf below.

    Past floor(beta) the terms (-1)^v binom(beta, v) share one sign, and
    their partial sums (-1)^n binom(beta - 1, n) (Graham, Knuth and
    Patashnik, Concrete Mathematics, 1994, (5.16)) tend to (1 - 1)^beta =
    0, so T(n) = |binom(beta - 1, n)|, that is Gamma(beta) |sin(pi beta)|
    Gamma(n + 1 - beta)/(pi n!) by reflection, from ``math.lgamma``, and 0
    at an integer beta.  Below floor(beta) the terms alternate; inf keeps
    every bound read there false.  The lgamma sum loses about n log(n) eps
    of relative accuracy: 5e-8 at n = 3e7.
    """
    if n < math.floor(beta):
        return math.inf
    frac = beta - round(beta)
    if frac == 0.0:
        return 0.0
    try:
        gamma = math.exp(math.lgamma(beta) + math.lgamma(n + 1.0 - beta)
                         - math.lgamma(n + 1.0))
    except OverflowError:
        return math.inf
    return gamma * abs(math.sin(math.pi * frac)) / math.pi


def _least_terms(holds, cap: int) -> int:
    """The least n >= 0 at which ``holds(n)``, for a test that fails up to
    some n and holds from there on, by doubling and bisection; cap + 1
    when it fails at every n up to cap."""
    if holds(0):
        return 0
    lo, hi = 0, 1
    while not holds(hi):
        if hi >= cap:
            return cap + 1
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _binomial_slices(beta: float, lo: int, n: int, size: int):
    """s_v = (-1)^v binom(beta, v) for v = lo..n, lo 0 or 1, in slices of
    ``size`` terms: (nu, s) per slice, nu the v as floats, by the
    recurrence s_v = s_(v-1) (v - 1 - beta)/v from s_0 = 1, the last s of
    a slice carried into the next."""
    carry = 1.0
    while lo <= n:
        hi = min(lo + size, n + 1)
        nu = np.arange(lo, hi, dtype=float)
        ratio = (nu - 1.0 - beta) / np.maximum(nu, 1.0)
        if lo == 0:
            ratio[0] = 1.0
        s = carry * np.cumprod(ratio)
        carry = s[-1]
        yield nu, s
        lo = hi


def binom_abs_sum(beta: float) -> float:
    """sum_{v>=0} |binom(beta, v)|, which bounds the difference on L_p.

    Exact: the terms up to m = floor(beta), by the recurrence of
    ``frac_binom``, plus the tail T(m) = |binom(beta - 1, m)| (``_tail``),
    which is |binom(beta, m)| (beta - m)/beta.  So 2 on (0, 1) and 2^beta
    at an integer beta.  inf once the sum leaves the floats (about order
    1030).
    """
    beta = check_beta(beta)
    m = math.floor(beta)
    total = b = 1.0
    for j in range(1, m + 1):
        b *= (beta - (j - 1.0)) / j
        total += abs(b)
        if total == math.inf:
            return total
    return total + abs(b) * (beta - m) / beta


def split_order(beta: float, alpha: float) -> int:
    """The integer gap of the split beta = alpha + gap, alpha in (0, 4].

    The split of the double-averaged modulus and its comparison pair:
    alpha must lie in (0, 4] and beta - alpha must be a nonnegative
    integer (to 1e-9).
    """
    if not (0.0 < alpha <= 4.0):
        raise InvalidArgumentError("alpha must lie in (0, 4]")
    gap = beta - alpha
    if abs(gap - round(gap)) > 1e-9 or round(gap) < 0:
        raise InvalidArgumentError(
            "beta - alpha must be a nonnegative integer")
    return int(round(gap))


def symbol_values(beta: float, delta: float, k) -> np.ndarray:
    """(1 - e^{ik*delta})^beta on an array of integer frequencies.

    Principal branch via the polar form
    (2 sin(theta/2))^beta * exp(i*beta*(theta-pi)/2), theta = |k*delta|
    reduced to [0, 2pi), conjugated where k*delta < 0; exactly 0 on the
    lattice theta = 0.  So the symbol at -k is the conjugate of the one
    at k bit for bit, and a real f keeps a real difference.  A scalar k
    gives a 0-d array.  A beta that is not positive and finite, or a
    k*delta that is not finite, raises InvalidArgumentError.
    """
    check_beta(beta)
    x = np.asarray(k, dtype=float) * delta
    if not np.isfinite(x).all():
        raise InvalidArgumentError("k * delta must be finite")
    theta = np.mod(np.abs(x), TWO_PI)
    s = np.maximum(2.0 * np.sin(0.5 * theta), 0.0)
    mag = s ** beta
    out = np.asarray(mag * np.exp(0.5j * beta * (theta - math.pi)))
    out[s == 0.0] = 0.0
    return np.conj(out, out=out, where=x < 0.0)


def apply_diff(f: TrigPoly, beta: float, delta: float) -> TrigPoly:
    """Fractional difference of a trigonometric polynomial (multiplier path)."""
    return f.with_coeffs(f.coeffs * symbol_values(beta, delta, f.freqs))


def apply_diff_series(f: TrigPoly, beta: float, delta: float, x: float,
                      tol: float = 1e-8, cap: int = _SERIES_CAP) -> complex:
    """Pointwise fractional difference by direct series summation (oracle).

    The sum runs to the least N whose discarded tail is below tol:
    sup|f| T(N) <= tol, with T(N) = sum_{v>N} |binom(beta, v)| exact
    (``_tail``) and sup|f| bounded by the coefficient mass sum|c_k|.  Past
    ``cap`` terms it raises ConvergenceError with the sum to the cap as
    ``partial`` and sup|f| T(cap) as ``achieved``.
    """
    beta = check_beta(beta)
    if not (tol > 0.0):
        raise InvalidArgumentError("tol must be positive")
    fmax = float(np.sum(np.abs(f.coeffs)))
    if fmax == 0.0:
        return 0.0j
    needed = _least_terms(lambda n: fmax * _tail(beta, n) <= tol, cap)
    total = 0.0j
    for nu, s in _binomial_slices(beta, 0, min(needed, cap), 1 << 14):
        total += complex(np.dot(s, evaluate(f, x + nu * delta)))
    if needed > cap:
        # the capped partial sum travels with the error so callers can
        # still inspect how far the oracle got
        raise ConvergenceError(
            f"difference series needs more than {cap} terms for tol={tol} "
            f"at beta={beta}", partial=total,
            achieved=fmax * _tail(beta, cap))
    return total

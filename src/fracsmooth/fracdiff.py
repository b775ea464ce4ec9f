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

from .errors import ConvergenceError, InvalidArgumentError
from .signal import TrigPoly, evaluate

TWO_PI = 2.0 * math.pi

_SERIES_CAP = 10_000_000
_ABS_SUM_TOL = 1e-10


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


def binom_log_abs(beta: float, nu: int) -> float:
    """log |binom(beta, nu)| (beta non-integer, nu >= 1)."""
    j = np.arange(1, int(nu) + 1, dtype=float)
    return float(np.sum(np.log(np.abs((beta - (j - 1.0)) / j))))


def _tail_constant(beta: float) -> tuple[int, float]:
    """(m, log C) with |binom(beta, v)| <= C * v^(-beta-1) for v >= m.

    m = ceil(beta)+1; the scaled magnitudes v^(beta+1) |binom(beta, v)|
    decrease from m on, so C = |binom(beta, m)| m^(beta+1) is a safe
    (conservative) constant.
    """
    m = int(math.ceil(beta)) + 1
    return m, binom_log_abs(beta, m) + (beta + 1.0) * math.log(m)


def binom_abs_sum(beta: float) -> float:
    """Upper bound for sum_{v>=0} |binom(beta, v)|.

    Exact (2^beta) for integer beta; otherwise a partial sum plus the
    analytic tail bound.  Within ``_ABS_SUM_TOL`` = 1e-10 of the true sum
    when the required term count fits under the series cap; for small
    fractional beta the cap binds and the conservative tail term keeps
    the result an upper bound at reduced accuracy (the tail ~ N^-beta).
    """
    if beta <= 0.0:
        raise InvalidArgumentError("beta must be positive")
    if beta == round(beta):
        return 2.0 ** beta
    m, log_c = _tail_constant(beta)
    # choose N with C*N^-beta/beta <= _ABS_SUM_TOL
    log_n = (log_c - math.log(beta) - math.log(_ABS_SUM_TOL)) / beta
    n = max(m, int(math.ceil(math.exp(min(log_n, 20 * math.log(10.0))))))
    n = min(n, _SERIES_CAP)
    j = np.arange(1, n + 1, dtype=float)
    partial = 1.0 + np.sum(np.abs(np.cumprod((beta - (j - 1.0)) / j)))
    tail = math.exp(log_c - beta * math.log(n)) / beta
    return float(partial + tail)


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
    at k bit for bit, and a real f keeps a real difference.
    """
    if beta <= 0.0:
        raise InvalidArgumentError("beta must be positive")
    x = np.asarray(k, dtype=float) * delta
    theta = np.mod(np.abs(x), TWO_PI)
    s = np.maximum(2.0 * np.sin(0.5 * theta), 0.0)
    mag = s ** beta
    out = mag * np.exp(0.5j * beta * (theta - math.pi))
    out[s == 0.0] = 0.0
    return np.conj(out, out=out, where=x < 0.0)


def apply_diff(f: TrigPoly, beta: float, delta: float) -> TrigPoly:
    """Fractional difference of a trigonometric polynomial (multiplier path)."""
    return f.with_coeffs(f.coeffs * symbol_values(beta, delta, f.freqs))


def apply_diff_series(f: TrigPoly, beta: float, delta: float, x: float,
                      tol: float = 1e-8, cap: int = _SERIES_CAP) -> complex:
    """Pointwise fractional difference by direct series summation (oracle).

    The truncation index N is chosen so that the discarded tail is below
    tol: sum_{v>N} |binom(beta, v)| * sup|f| <= tol, with sup|f| bounded
    by the coefficient mass sum|c_k|.
    """
    if beta <= 0.0:
        raise InvalidArgumentError("beta must be positive")
    fmax = float(np.sum(np.abs(f.coeffs)))
    if fmax == 0.0:
        return 0.0j
    needed = None
    log_c = 0.0
    if beta == round(beta):
        n = int(round(beta))
    else:
        m, log_c = _tail_constant(beta)
        log_n = (log_c + math.log(fmax) - math.log(beta)
                 - math.log(tol)) / beta
        needed = max(m, int(math.ceil(
            math.exp(min(log_n, 20 * math.log(10.0))))))
        n = min(needed, cap)
    total = 0.0j
    carry = 1.0
    chunk = 1 << 14
    lo = 0
    while lo <= n:
        hi = min(lo + chunk, n + 1)
        nu = np.arange(lo, hi, dtype=float)
        if lo == 0:
            s = np.empty(hi - lo)
            s[0] = 1.0
            if hi > 1:
                s[1:] = np.cumprod((nu[1:] - 1.0 - beta) / nu[1:])
        else:
            s = carry * np.cumprod((nu - 1.0 - beta) / nu)
        carry = s[-1]
        vals = evaluate(f, x + nu * delta)
        total += complex(np.dot(s, vals))
        lo = hi
    if needed is not None and needed > cap:
        # the capped partial sum travels with the error so callers can
        # still inspect how far the oracle got
        achieved = fmax * math.exp(log_c - beta * math.log(n)) / beta
        raise ConvergenceError(
            f"difference series needs {needed} terms for tol={tol} at "
            f"beta={beta} (cap {cap})",
            partial=total, achieved=achieved)
    return total

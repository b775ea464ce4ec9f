"""Beurling-bracket bounds for Fourier multipliers and the comparison
functions used to control one difference operator by another.

The bracket ||g||_L2 + ||g'||_L2 is a sufficient bound (up to a
universal constant that is never included) for g to act boundedly as a
multiplier on every L_p.  The probe functions divide a fractional
difference symbol by averaging symbols; away from the origin those are
nonvanishing, and the removable singularity at zero is installed
analytically and validated by approach probes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .approx import CutoffV
from .errors import (DomainTooSmallError, InvalidArgumentError,
                     ZeroDenominatorError)
from .fracdiff import split_order, symbol_values
from .kernel import psi_many, z_many
from .signal import TrigPoly

_FD_STEP = 1e-6

#: panel width for the composite Gauss-Legendre rule; small enough to
#: resolve the cutoff transition and the unit-scale oscillation of the
#: difference symbols
_PANEL = 0.5
_GL_ORDER = 16


@dataclass(frozen=True)
class MultiplierFn:
    """An evaluable candidate multiplier with derivative and support info.

    ``fn`` and ``deriv`` accept scalars or arrays.  ``support`` is
    "compact" (with ``bounds`` = (a, b) outside which the function
    vanishes) or "decaying" (claimed to fade at infinity; the Beurling
    quadrature probes the claim before trusting a finite window).
    """
    fn: Callable
    deriv: Callable
    support: str
    bounds: tuple[float, float] | None = None

    def __call__(self, t):
        return self.fn(t)


def _fd_derivative(fn):
    def deriv(t):
        t = np.asarray(t, dtype=float)
        return (fn(t + _FD_STEP) - fn(t - _FD_STEP)) / (2.0 * _FD_STEP)
    return deriv


def beurling_bound(g: MultiplierFn, domain_halfwidth: float) -> float:
    """||g||_L2[-T,T] + ||g'||_L2[-T,T] by composite Gauss-Legendre.

    The universal constant of the sufficient condition is NOT included;
    callers compare brackets, not multiplier norms.  For a ``decaying``
    function the tail is probed first: |g(+-T)| above 1e-6 means the
    window cannot represent the whole-line integral.
    """
    T = float(domain_halfwidth)
    if not (T > 0.0) or not math.isfinite(T):
        raise InvalidArgumentError("domain halfwidth must be positive")
    if g.support == "decaying":
        tail = np.max(np.abs(np.asarray(g.fn(np.array([-T, T])))))
        if tail > 1e-6:
            raise DomainTooSmallError(
                f"|g| = {tail:.3e} at the window edge +-{T}; "
                "the declared decay has not set in")
    lo, hi = -T, T
    if g.support == "compact" and g.bounds is not None:
        lo = max(lo, g.bounds[0])
        hi = min(hi, g.bounds[1])
        if hi <= lo:
            return 0.0
    npan = max(1, int(math.ceil((hi - lo) / _PANEL)))
    edges = np.linspace(lo, hi, npan + 1)
    nodes, weights = leggauss(_GL_ORDER)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    g2 = np.abs(np.asarray(g.fn(pts))) ** 2
    d2 = np.abs(np.asarray(g.deriv(pts))) ** 2
    return float(math.sqrt(np.dot(wts, g2)) + math.sqrt(np.dot(wts, d2)))


def _check_tau(tau):
    if not (0.0 < tau < 1.0):
        raise InvalidArgumentError("tau must lie in (0, 1)")
    return float(tau)


def _near_origin_check(order: float, label: str) -> None:
    """Assert the averaging symbol has no zero on (0, 2].

    |psi| decays like t^order / (order + 1) toward the origin, so the
    assertion is scale-free: the measured magnitude over the leading-
    order law must stay of order one.
    """
    ts = np.geomspace(1e-3, 2.0, 128)
    rel = np.abs(z_many(order, ts)) * (order + 1.0) / ts ** (order + 1.0)
    m = float(np.nanmin(rel))
    if m <= 0.05:
        t_bad = float(ts[int(np.nanargmin(rel))])
        raise ZeroDenominatorError(
            f"averaging symbol of order {label} dips near t={t_bad:.6f} "
            f"(relative floor {m:.3e})")


def _far_field_check(order: float, label: str) -> None:
    """Assert the averaging symbol stays away from zero on [1, 50]."""
    ts = np.linspace(1.0, 50.0, 512)
    vals = np.abs(psi_many(order, ts))
    m = float(vals.min())
    if m <= 1e-12:
        t_bad = float(ts[int(np.argmin(vals))])
        raise ZeroDenominatorError(
            f"averaging symbol of order {label} vanishes near t={t_bad:.6f} "
            f"(floor {m:.3e})")


def _ratio_fn(beta, tau, weight, den, limit):
    """(1-e^{i tau t})^beta * weight(t) / den(t), with the t=0 limit
    installed on |t| < 1e-7, where numerator and denominator vanish."""
    def fn(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(ts.shape, dtype=complex)
        wt = np.atleast_1d(np.asarray(weight(ts)))
        tiny = np.abs(ts) < 1e-7
        lim_zone = tiny & (wt != 0.0)
        out[lim_zone] = limit * wt[lim_zone]
        act = (~tiny) & (wt != 0.0)
        if act.any():
            num = symbol_values(beta, tau, ts[act])
            out[act] = num * wt[act] / den(ts[act])
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return complex(out[0])
        return out
    return fn


def make_g_tau(beta: float, tau: float) -> MultiplierFn:
    """The compactly supported comparison function for one order beta.

    g(t) = (1 - e^{i tau t})^beta v(t) / psi_beta(t), with v the cutoff
    ``CutoffV``, supported in [-2, 2].  At t = 0 both factors vanish like
    t^beta; the limit is tau^beta (beta + 1), installed analytically
    (numerator ~ (tau t)^beta e^{-i pi beta/2}, z ~ e^{-i pi beta/2}
    t^{beta+1}/(beta+1)) and guarded by approach probes in the tests.
    The averaging symbol has no zeros on (0, 2] — 2 < pi keeps us inside
    its nonvanishing range — which the constructor asserts.
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise InvalidArgumentError("beta must be positive and finite")
    tau = _check_tau(tau)
    _near_origin_check(beta, f"{beta}")
    limit = tau ** beta * (beta + 1.0)
    fn = _ratio_fn(beta, tau, CutoffV(), lambda ts: psi_many(beta, ts),
                   limit)
    return MultiplierFn(fn=fn, deriv=_fd_derivative(fn),
                        support="compact", bounds=(-2.0, 2.0))


def make_g1_g2(beta: float, alpha: float,
               tau: float) -> tuple[MultiplierFn, MultiplierFn]:
    """The split comparison pair for the double-averaged modulus.

    g1 carries the cutoff v = ``CutoffV`` (compact in [-2, 2]); g2
    carries 1 - v and divides by the product of the two averaging
    symbols, whose values approach 1 along the shift identity as |t|
    grows.  g2 is declared ``decaying`` as specified; ``beurling_bound``
    probes that claim at the window edge before integrating.
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise InvalidArgumentError("beta must be positive and finite")
    tau = _check_tau(tau)
    gap = split_order(beta, alpha)
    v = CutoffV()
    _near_origin_check(alpha, f"{alpha}")
    _far_field_check(alpha, f"{alpha}")
    if gap > 0:
        _near_origin_check(float(gap), f"{gap}")
        _far_field_check(float(gap), f"{gap}")

        def den(ts):
            return psi_many(alpha, ts) * psi_many(float(gap), ts)
    else:
        def den(ts):
            return psi_many(alpha, ts)

    limit1 = tau ** beta * (alpha + 1.0) * (gap + 1.0)
    fn1 = _ratio_fn(beta, tau, v, den, limit1)
    g1 = MultiplierFn(fn=fn1, deriv=_fd_derivative(fn1),
                      support="compact", bounds=(-2.0, 2.0))

    def one_minus_v(ts):
        return 1.0 - np.asarray(v(ts))

    fn2 = _ratio_fn(beta, tau, one_minus_v, den, limit=0.0)
    g2 = MultiplierFn(fn=fn2, deriv=_fd_derivative(fn2), support="decaying")
    return g1, g2


def comparison_apply(f: TrigPoly, numerator_symbol,
                     denominator_symbol) -> TrigPoly:
    """Apply the ratio of two per-frequency symbols to a polynomial.

    Realizes one operator through another: coefficients become
    (num_k / den_k) c_k.  The denominator must be nonzero at every
    frequency the polynomial actually uses.
    """
    num = np.asarray(numerator_symbol, dtype=complex)
    den = np.asarray(denominator_symbol, dtype=complex)
    if num.shape != f.coeffs.shape or den.shape != f.coeffs.shape:
        raise InvalidArgumentError(
            "symbols must align with the coefficient array")
    active = f.coeffs != 0.0
    bad = active & (den == 0.0)
    if bad.any():
        k = int(f.freqs[int(np.argmax(bad))])
        raise ZeroDenominatorError(
            f"denominator symbol vanishes at active frequency k={k}",
            frequency=k)
    safe = np.where(den == 0.0, 1.0, den)
    ratio = np.where(den == 0.0, 0.0, num / safe)
    return f.with_coeffs(f.coeffs * ratio)

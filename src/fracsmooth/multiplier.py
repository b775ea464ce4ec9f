"""Beurling-bracket bounds for Fourier multipliers and the comparison
functions used to control one difference operator by another.

The bracket ||g||_L2 + ||g'||_L2 is a sufficient bound (up to a
universal constant that is never included) for g to act boundedly as a
multiplier on every L_p.  The probe functions divide a fractional
difference symbol by averaging symbols, which are nonvanishing away from
the origin.  Their derivative is in closed form.  Near the origin, where
both vanish and that form cancels, g and g' come from the power series
of the kernel (``kernel._series``), so the removable singularity at zero
needs no installed limit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import check_beta, gauss_legendre
from .approx import CutoffV
from .errors import (DomainTooSmallError, InvalidArgumentError,
                     ZeroDenominatorError)
from .fracdiff import split_order, symbol_values
from .kernel import _E, _TERMS, _series, _series_top, _sums, psi_many
from .signal import TrigPoly

#: |z| of an averaging symbol of the comparison functions stays above this
#: fraction of its absolute mass on (0, 2] (``_near_origin_check``)
_MASS_FLOOR = 0.05
#: panel width and nodes per panel of the composite Gauss-Legendre rule:
#: 24 nodes resolve the cutoff transition (16 left its bracket 5.5e-9
#: low) and the unit-scale oscillation of the difference symbols
_PANEL = 0.5
_GL_ORDER = 24


@dataclass(frozen=True)
class MultiplierFn:
    """An evaluable candidate multiplier with derivative and support info.

    ``fn`` and ``deriv`` accept scalars or arrays; ``deriv`` is exact
    (closed-form for the comparison functions here).  ``support`` is
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
    nodes, weights, _ = gauss_legendre(_GL_ORDER)
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


@functools.lru_cache(maxsize=64)
def _near_origin_check(order: float) -> None:
    """Assert the averaging symbol has no zero on (0, 2].

    |z(t)| is measured against the absolute mass integral_0^t |f| that
    the kernel sums with it (``kernel._sums``): their ratio is at least
    0.54 on this grid for every order from 0.5 to 1000, and a zero of z
    pulls it toward 0.  The comparison multiplies, so a point where both
    underflow to 0 passes.  The check depends on the order alone, so the
    memo remembers the orders that passed; a raise is not held, so a
    failing order raises on every call.
    """
    ts = np.geomspace(1e-3, 2.0, 128)
    zs, mass = _sums(order, ts)
    dip = np.abs(zs) < _MASS_FLOOR * mass
    if dip.any():
        i = int(np.argmax(dip))
        raise ZeroDenominatorError(
            f"averaging symbol of order {order} dips near t={ts[i]:.6f} "
            f"(|z| = {abs(zs[i]):.3e}, absolute mass {mass[i]:.3e})")


def _far_field_check(order: float) -> None:
    """Assert the averaging symbol stays away from zero on [1, 50]."""
    ts = np.linspace(1.0, 50.0, 512)
    vals = np.abs(psi_many(order, ts))
    m = float(vals.min())
    if m <= 1e-12:
        t_bad = float(ts[int(np.argmin(vals))])
        raise ZeroDenominatorError(
            f"averaging symbol of order {order} vanishes near t={t_bad:.6f} "
            f"(floor {m:.3e})")


def _ratio_fn(beta, tau, weight, dweight, orders):
    """g = h w and g' = h (w h'/h + w'), h = N/D, N = (1-e^{i tau t})^beta,
    w the weight and D = prod_a psi_a over ``orders``, which sum to beta.

    Away from 0, h'/h = N'/N - sum_a psi_a'/psi_a, N'/N = (beta tau/2)
    (cot(tau t/2) + i) and psi_a'/psi_a = (f_a/psi_a - 1)/t, f_a = (1 -
    e^{it})^a.  Near 0 these terms are each about beta/t and cancel to
    O(1), which would amplify the rounding of psi by 1/t.  So on |t| < the
    least ``kernel._series_top`` of the orders, N = (-i tau t)^beta
    exp(beta E(tau t)) and psi_a = e^{-i pi a/2} t^a P_a(t), P_a = sum_j
    c_j(a) t^j/(a + j + 1) (``kernel._series``), and h = tau^beta exp(beta
    E(tau t))/prod_a P_a(t) for t of either sign, as E(-x) and P_a(-t) are
    the conjugates of E(x) and P_a(t).
    """
    zone = min(_series_top(a) for a in orders)
    j = np.arange(_TERMS)
    # in powers of t: beta E(tau t) and the P_a, then their derivatives
    p = np.array([beta * _E * tau ** j]
                 + [_series(a) / (a + 1.0 + j) for a in orders]).T
    cols = np.hstack([p, np.vstack([p[1:] * j[1:, None], 0.0 * p[:1]])])
    n = len(orders) + 1

    def near(s, deriv):
        v = np.vander(s, _TERMS, increasing=True) @ cols
        h = tau ** beta * np.exp(v[:, 0]) / np.prod(v[:, 1:n], axis=1)
        return h, v[:, n] - np.sum(v[:, n + 1:] / v[:, 1:n], axis=1)

    def far(s, deriv):
        psis = [psi_many(a, s) for a in orders]
        h = symbol_values(beta, tau, s) / np.prod(psis, axis=0)
        if not deriv:
            return h, 0.0
        dlog = 0.5 * beta * tau * (1.0 / np.tan(0.5 * tau * s) + 1j)
        for a, psi in zip(orders, psis):
            dlog -= (symbol_values(a, 1.0, s) / psi - 1.0) / s
        return h, dlog

    def ratio(t, deriv):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        wt = np.atleast_1d(np.asarray(weight(ts)))
        out = np.zeros(ts.shape, dtype=complex)
        live = wt != 0.0
        s, w = ts[live], wt[live]
        h, dlog = np.zeros((2,) + s.shape, dtype=complex)
        close = np.abs(s) < zone
        for part, h_of in ((close, near), (~close, far)):
            if part.any():
                h[part], dlog[part] = h_of(s[part], deriv)
        out[live] = h * (w * dlog + dweight(s)) if deriv else h * w
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return complex(out[0])
        return out

    return (lambda t: ratio(t, False)), (lambda t: ratio(t, True))


def make_g_tau(beta: float, tau: float) -> MultiplierFn:
    """The compactly supported comparison function for one order beta.

    g(t) = (1 - e^{i tau t})^beta v(t) / psi_beta(t), with v the cutoff
    ``CutoffV``, supported in [-2, 2].  At t = 0 both factors vanish like
    t^beta, and the series of ``_ratio_fn`` gives the limit tau^beta (beta
    + 1).  The averaging symbol has no zeros on (0, 2] — 2 < pi keeps us
    inside its nonvanishing range — which the constructor asserts.
    """
    check_beta(beta)
    tau = _check_tau(tau)
    _near_origin_check(beta)
    v = CutoffV()
    return MultiplierFn(*_ratio_fn(beta, tau, v, v.derivative, (beta,)),
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
    check_beta(beta)
    tau = _check_tau(tau)
    gap = split_order(beta, alpha)
    orders = (alpha, float(gap)) if gap > 0 else (alpha,)
    for a in orders:
        _near_origin_check(a)
        _far_field_check(a)
    v = CutoffV()
    g1 = MultiplierFn(*_ratio_fn(beta, tau, v, v.derivative, orders),
                      support="compact", bounds=(-2.0, 2.0))
    g2 = MultiplierFn(*_ratio_fn(beta, tau, lambda ts: 1.0 - v(ts),
                                 lambda ts: -v.derivative(ts), orders),
                      support="decaying")
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

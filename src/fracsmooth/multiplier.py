"""Beurling-bracket bounds for Fourier multipliers and the comparison
functions used to control one difference operator by another.

The bracket ||g||_L2 + ||g'||_L2 is a sufficient bound (up to a
universal constant that is never included) for g to act boundedly as a
multiplier on every L_p.  The probe functions divide a fractional
difference symbol by averaging symbols; away from the origin those are
nonvanishing, and the removable singularity at zero is installed
analytically and validated by approach probes.  Their derivative is
in closed form, and near the origin, where that form cancels, g and g'
come from the series of g'/g to third order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import check_beta, gauss_legendre
from .approx import CutoffV
from .errors import (DomainTooSmallError, InvalidArgumentError,
                     ZeroDenominatorError)
from .fracdiff import split_order, symbol_values
from .kernel import psi_many, z_many
from .signal import TrigPoly

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


def _near_origin_check(order: float) -> None:
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
            f"averaging symbol of order {order} dips near t={t_bad:.6f} "
            f"(relative floor {m:.3e})")


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


def _ratio_fn(beta, tau, weight, dweight, orders, limit):
    """g = N w / D and its derivative, N = (1-e^{i tau t})^beta, w the
    weight and D = prod_a psi_a over ``orders``: g' = g (N'/N - sum_a
    psi_a'/psi_a) + N w'/D, N'/N = (beta tau/2)(cot(tau t/2) + i) and
    psi_a'/psi_a = (f_a/psi_a - 1)/t, f_a = (1-e^{it})^a the integrand of
    z_a.  Near 0, where N and D vanish, the terms of g'/g are each about
    beta/t and cancel to O(1), which amplifies the rounding of psi by 1/t.
    So on |t| < 1e-3, where w is flat, g = ``limit`` w exp(s1 t + s2 t^2/2
    + s3 t^3/3) and g' = g (s1 + s2 t + s3 t^2), the series of g'/g to
    O(t^3): with log N = beta log(-i tau t) + beta (i tau t/2 - tau^2
    t^2/24 + O(t^4)) and psi_a = (-i)^a t^a/(a+1) (1 + i u t - v t^2 - i q
    t^3 + ...), u = a(a+1)/(2(a+2)), v = (a^2/8 + a/24)(a+1)/(a+3) and q =
    a^2 (a+1)^2/(48 (a+4)), and sum_a a = beta, s1 = i (beta tau/2 -
    sum_a u), s2 = -beta tau^2/12 - sum_a (u^2 - 2v) and s3 = i sum_a (u^3
    + 3q - 3uv).  For g_tau(3.9, 0.9) the series is within 1e-11 of g'
    below 1e-3, and the closed form within 5e-10 from 1e-3 on, its error
    falling like 1/t; the Beurling bracket's nearest node, 1.2e-3, lies
    outside the zone.
    """
    s1, s2, s3 = 0.5j * beta * tau, -beta * tau ** 2 / 12.0, 0j
    for a in orders:
        u = a * (a + 1.0) / (2.0 * (a + 2.0))
        v = a * (3.0 * a + 1.0) * (a + 1.0) / (24.0 * (a + 3.0))
        q = (a * (a + 1.0)) ** 2 / (48.0 * (a + 4.0))
        s1 -= 1j * u
        s2 -= u * u - 2.0 * v
        s3 += 1j * (u ** 3 + 3.0 * q - 3.0 * u * v)

    def ratio(t, deriv):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(ts.shape, dtype=complex)
        wt = np.atleast_1d(np.asarray(weight(ts)))
        tiny = np.abs(ts) < 1e-3
        lim_zone = tiny & (wt != 0.0)
        if lim_zone.any():
            s = ts[lim_zone]
            g = limit * wt[lim_zone] * np.exp(
                s * (s1 + s * (0.5 * s2 + s * s3 / 3.0)))
            out[lim_zone] = g * (s1 + s * (s2 + s * s3)) if deriv else g
        act = (~tiny) & (wt != 0.0)
        if act.any():
            s = ts[act]
            num = symbol_values(beta, tau, s)
            psis = [psi_many(a, s) for a in orders]
            den = np.prod(psis, axis=0)
            g = num * wt[act] / den
            if deriv:
                dlog = 0.5 * beta * tau * (1.0 / np.tan(0.5 * tau * s) + 1j)
                for a, psi in zip(orders, psis):
                    dlog -= (symbol_values(a, 1.0, s) / psi - 1.0) / s
                g = g * dlog + num * dweight(s) / den
            out[act] = g
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return complex(out[0])
        return out

    return (lambda t: ratio(t, False)), (lambda t: ratio(t, True))


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
    check_beta(beta)
    tau = _check_tau(tau)
    _near_origin_check(beta)
    v = CutoffV()
    return MultiplierFn(*_ratio_fn(beta, tau, v, v.derivative, (beta,),
                                   tau ** beta * (beta + 1.0)),
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
    limit1 = tau ** beta * (alpha + 1.0) * (gap + 1.0)
    g1 = MultiplierFn(*_ratio_fn(beta, tau, v, v.derivative, orders, limit1),
                      support="compact", bounds=(-2.0, 2.0))
    g2 = MultiplierFn(*_ratio_fn(beta, tau, lambda ts: 1.0 - v(ts),
                                 lambda ts: -v.derivative(ts), orders, 0.0),
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

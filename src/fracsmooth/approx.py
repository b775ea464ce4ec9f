"""Trigonometric approximation: truncation errors, de la Vallee-Poussin
means, the smooth cutoff profile, and Jackson-quotient checks.

Best approximation is computed exactly only in L2 (Parseval tail).  For
other p the de la Vallee-Poussin error ||f - V_{1/n} f||_p stands in as a
near-best proxy; its constant is absorbed into whatever ratio consumes
it, which is all the comparison experiments need.
"""
from __future__ import annotations

import math

import numpy as np

from ._util import check_whole
from .errors import InvalidArgumentError
from .signal import NormParams, TrigPoly, lp_norm


class CutoffV:
    """Even C-infinity cutoff: 1 on [-1, 1], 0 outside (-2, 2).

    Built from the standard bump s(x) = exp(-1/x) (x > 0, else 0), whose
    derivative is s'(x) = s(x)/x^2: the transition w(u) = s(u) / (s(u) +
    s(1-u)) climbs from 0 to 1 on [0, 1], and v(t) = w(2 - |t|).
    Monotone on each side, values in [0, 1].
    """

    @staticmethod
    def _transition(t):
        """u = 2 - |t|, the bumps (s(u), s(1 - u)) and their derivatives
        (s'(u), s'(1 - u)); x below 1e-300 divides as 1e-300, and a NaN t
        gives NaN bumps, so that v and v' are NaN there."""
        u = 2.0 - np.abs(np.asarray(t, dtype=float))
        x = np.stack([u, 1.0 - u])
        on, safe = ~(x <= 0.0), np.maximum(x, 1e-300)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = np.exp(-1.0 / safe)
            ds = np.where(on, s / np.square(safe), 0.0)
        return u, np.where(on, s, 0.0), ds

    def __call__(self, t):
        u, (a, b), _ = self._transition(t)
        out = np.where(u >= 1.0, 1.0,
                       np.where(u <= 0.0, 0.0, a / np.where(a + b > 0.0,
                                                            a + b, 1.0)))
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        u, (a, b), (ap, bp) = self._transition(t)
        denom = np.square(a + b)
        inside = (u > 0.0) & (u < 1.0)
        wp = np.where(inside,
                      (ap * b + a * bp) / np.where(denom > 0.0, denom, 1.0),
                      0.0)
        out = -np.sign(t) * wp
        return float(out) if out.ndim == 0 else out


def best_approx_l2(f: TrigPoly, n: int) -> tuple[TrigPoly, float]:
    """Degree-n Fourier truncation and its exact L2 error.

    By orthogonality the truncation is the L2-best degree-n approximant
    and the error is the coefficient tail: (sum_{|k|>n} |c_k|^2)^{1/2}.
    An ``n`` that is not a whole number of at least 0 raises
    InvalidArgumentError.
    """
    n = check_whole("n", n, 0)
    mask = np.abs(f.freqs) <= n
    err = float(np.sqrt(np.sum(np.abs(f.coeffs[~mask]) ** 2)))
    deg = min(n, f.degree)
    lo = f.degree - deg
    hi = f.degree + deg + 1
    trunc = TrigPoly(degree=deg, coeffs=f.coeffs[lo:hi].copy())
    return trunc, err


def vallee_poussin(f: TrigPoly, h: float) -> TrigPoly:
    """De la Vallee-Poussin mean: coefficients scaled by ``CutoffV`` at k h.

    Reproduces every coefficient with |k| <= 1/h exactly and annihilates
    |k| >= 2/h; the cutoff's transition handles the band between.
    """
    if not (h > 0.0) or not math.isfinite(h):
        raise InvalidArgumentError("h must be positive and finite")
    weights = CutoffV()(f.freqs * h)
    return f.with_coeffs(f.coeffs * weights)


def near_best_error(f: TrigPoly, n: int, p: float) -> float:
    """||f - V_{1/n} f||_p, an upper proxy for the degree-n best error.

    For n = 0 the mean is subtracted instead (the h -> infinity limit of
    V keeps only the constant term), so the value is the L_p distance to
    the best constant up to the proxy factor; for f = e_1 it equals 1
    in every p.  An ``n`` that is not a whole number of at least 0 raises
    InvalidArgumentError.
    """
    n = check_whole("n", n, 0)
    norm = NormParams(p=p)
    if n == 0:
        coeffs = f.coeffs.copy()
        coeffs[f.degree] = 0.0
        return lp_norm(f.with_coeffs(coeffs), norm)
    residual = f - vallee_poussin(f, 1.0 / n)
    return lp_norm(residual, norm)


def jackson_ratio(f: TrigPoly, r: int, n: int, p: float) -> float:
    """Quotient (near-best degree-n error) / omega_r(f, 1/n)_p.

    A constant-free probe of the Jackson inequality: finite values mean
    the modulus controls the approximation error at this (r, n, p).
    Zero over zero (f already of low degree) counts as 0; a positive
    error over a vanishing modulus is flagged infinite.  An ``r`` or ``n``
    that is not a whole number of at least 1 raises InvalidArgumentError.
    """
    r = check_whole("r", r, 1)
    n = check_whole("n", n, 1)
    from .moduli import ModulusRequest, classical_modulus
    num = near_best_error(f, n, p)
    req = ModulusRequest(beta=float(r), h=1.0 / n, norm=NormParams(p=p))
    den = classical_modulus(f, req)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den

"""Averaging kernel of fractional differences on the circle.

The central object is the curve

    z(beta, t) = integral_0^t (1 - exp(i*phi))^beta dphi,

together with the averaging kernel psi(beta, t) = z(beta, t)/t.  The
k-th Fourier coefficient of the step-averaged fractional difference of a
periodic function is psi(beta, k*h) times the coefficient of the function,
which is why everything downstream (linearized moduli, multiplier bounds,
zero scans) reduces to evaluating z accurately.

Two independent evaluation routes are provided:

* ``z_eval`` / ``z_many`` — adaptive Gauss-Kronrod quadrature of the
  principal-branch polar form (2 sin(phi/2))^beta * exp(i*beta*(phi-pi)/2)
  on (0, 2pi), after exact reduction by the symmetry z(-t) = -conj(z(t))
  and the shift z(t + 2pi) = z(t) + 2pi.  The first and last 1e-3 of the
  base interval, where the integrand is only Hoelder-smooth, are handled
  by a 10-term power expansion integrated termwise (its coefficients are
  cached per beta).  ``_segment_sums`` sets up the GK15 panels of all
  segments in one vectorised pass and ``_adaptive_panels`` refines them;
  ``z_span`` hands a span inside [1e-3, 2pi - 1e-3] straight to
  ``_adaptive_panels``, so a short span costs one ``gk15_panels`` call.
* ``z_series`` — direct summation of

      x(t) = t + sum_v binom(beta, v) (-1)^v sin(v t)/v
      y(t) =     sum_v binom(beta, v) (-1)^v (1 - cos(v t))/v

  truncated by an analytic tail bound.  No reduction is applied, so the
  two routes share no code path and can serve as mutual oracles.
"""
from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._backend import impl as _impl
from .errors import ConvergenceError, InvalidArgumentError
from .fracdiff import _SERIES_CAP, _tail_constant

TWO_PI = 2.0 * math.pi

#: width of the endpoint panels evaluated by power expansion
_ENDPOINT = 1e-3
#: start of the mirrored expansion zone at the top of the base period
_MIRROR_LO = TWO_PI - _ENDPOINT
#: widest first-pass quadrature panel
_PANEL = 0.5 * math.pi
#: truncation order of the endpoint expansion
_NTERMS = 10
#: below this order the quadrature cannot overflow: the integrand is at most
#: 2^beta in modulus, and the sums over the period (values, error estimates,
#: absolute masses) are at most 2^(beta + 5)
_NO_OVERFLOW_BETA = 1000.0


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances for the adaptive quadrature behind ``z_eval``.

    abs_tol : float
        Absolute error target for one z value (error estimates are the
        summed Kronrod-vs-Gauss differences, usually very conservative).
    max_subdiv : int
        Panel budget before giving up with a convergence error.
    """
    abs_tol: float = 1e-10
    max_subdiv: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise InvalidArgumentError("abs_tol must be positive")
        if self.max_subdiv < 4:
            raise InvalidArgumentError("max_subdiv must be at least 4")


DEFAULT_QUAD = QuadConfig()


def _check_beta(beta):
    beta = float(beta)
    if not (beta > 0.0) or not math.isfinite(beta):
        raise InvalidArgumentError(f"beta must be positive and finite, got {beta}")
    return beta


def _overflow_quiet(beta):
    """The error state for quadrature at order beta: the default below
    ``_NO_OVERFLOW_BETA``, because NumPy calls are slower under another;
    above, where (2 sin(phi/2))^beta can overflow, warnings are held for
    the caller's one finiteness check (``_not_finite``)."""
    if beta < _NO_OVERFLOW_BETA:
        return contextlib.nullcontext()
    return np.errstate(over="ignore", invalid="ignore")


def _not_finite(beta, partial):
    return ConvergenceError(
        f"z is not finite for beta={beta}: the integrand overflows "
        f"the float range", partial=partial)


# ---------------------------------------------------------------------------
# endpoint expansion
# ---------------------------------------------------------------------------

def _poly_mul_trunc(p, q, order):
    out = np.zeros(order + 1, dtype=complex)
    for i, pi in enumerate(p):
        if pi == 0.0:
            continue
        hi = min(len(q), order + 1 - i)
        out[i:i + hi] += pi * np.asarray(q[:hi])
    return out


@lru_cache(maxsize=64)
def _endpoint_coeffs(beta):
    """Coefficients D_n with integrand = sum_n D_n phi^(beta+n) near phi=0.

    Uses (2 sin(phi/2))^beta = phi^beta * exp(beta*log(sinc(phi/2))) and
    exp(i*beta*(phi-pi)/2), both expanded to order 10 (far beyond machine
    precision for the 1e-3 panel).  Cached per beta; the array is
    read-only.
    """
    # beta * log(sin(x)/x) at x = phi/2:  coefficients in phi
    p = np.zeros(_NTERMS + 1, dtype=complex)
    p[2] = -beta / 24.0
    p[4] = -beta / 2880.0
    p[6] = -beta / 181440.0
    p[8] = -beta / 9676800.0
    # exp(p) via the truncated exponential series
    a = np.zeros(_NTERMS + 1, dtype=complex)
    a[0] = 1.0
    term = np.zeros(_NTERMS + 1, dtype=complex)
    term[0] = 1.0
    for j in range(1, 6):
        term = _poly_mul_trunc(term, p, _NTERMS) / j
        a += term
    # exp(i*beta*phi/2)
    b = np.zeros(_NTERMS + 1, dtype=complex)
    c = 1.0 + 0.0j
    for m in range(_NTERMS + 1):
        b[m] = c
        c *= 0.5j * beta / (m + 1)
    d = np.exp(-0.5j * beta * math.pi) * _poly_mul_trunc(a, b, _NTERMS)
    d.setflags(write=False)
    return d


def _expansion_integral(beta, coeffs, lo, hi):
    """integral_lo^hi of the expanded integrand, 0 <= lo < hi <= _ENDPOINT."""
    n = np.arange(_NTERMS + 1)
    powers = hi ** (beta + n + 1.0)
    if lo > 0.0:
        powers = powers - lo ** (beta + n + 1.0)
    return complex(np.sum(coeffs * powers / (beta + n + 1.0)))


# ---------------------------------------------------------------------------
# adaptive quadrature driver on the base interval (0, 2*pi)
# ---------------------------------------------------------------------------

def _adaptive_panels(beta, a, b, seg, cfg):
    """Refine GK15 panels [a_j, b_j] until the quadrature tolerance holds.

    ``seg`` tags each panel with the segment it belongs to; halves inherit
    the tag.  Returns (values, abs_masses, tags) of the final panels: the
    panels kept unsplit in their order, then the halves of the last pass.
    """
    vals, errs, absm = _impl.gk15_panels(beta, a, b)
    budget = cfg.abs_tol / TWO_PI
    eps = np.finfo(float).eps
    splits = 0
    while True:
        # a panel is done when it meets its share of the absolute budget
        # OR its error is at the rounding floor of its own absolute mass
        # (splitting cannot reduce that floor)
        bad = (errs > budget * (b - a)) & (errs > 4.0 * eps * absm)
        if errs.sum() <= cfg.abs_tol or not bad.any():
            return vals, absm, seg
        splits += int(bad.sum())
        if splits > cfg.max_subdiv:
            raise ConvergenceError(
                f"quadrature needs more than {cfg.max_subdiv} "
                f"subdivisions for beta={beta}",
                partial=None, achieved=float(errs.sum()))
        mid = 0.5 * (a[bad] + b[bad])
        new_a = np.concatenate([a[bad], mid])
        new_b = np.concatenate([mid, b[bad]])
        new_s = np.concatenate([seg[bad], seg[bad]])
        nv, ne, na = _impl.gk15_panels(beta, new_a, new_b)
        a = np.concatenate([a[~bad], new_a])
        b = np.concatenate([b[~bad], new_b])
        seg = np.concatenate([seg[~bad], new_s])
        vals = np.concatenate([vals[~bad], nv])
        errs = np.concatenate([errs[~bad], ne])
        absm = np.concatenate([absm[~bad], na])


def _segment_sums(beta, edges, cfg):
    """Integrate between consecutive edges inside [0, 2pi].

    Returns (segments, abs_segments): complex values and nonnegative
    magnitudes of integral over each [edges[i], edges[i+1]] (0 where
    edges[i+1] <= edges[i]).

    The set-up is vectorised over the segments.  The parts of a segment
    inside the expansion zones [0, 1e-3] and [2pi - 1e-3, 2pi] are
    integrated termwise, in a loop over the few segments that touch them.
    The rest of each segment, clipped to [1e-3, 2pi - 1e-3], is cut into
    ceil(width / (pi/2)) equal panels whose ends are those of
    ``np.linspace`` (lo + j*step, the last end exactly hi); all panels, in
    segment-then-panel order, go through one ``_adaptive_panels`` pass.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    seg_vals = np.zeros(a.size, dtype=complex)
    seg_abs = np.zeros(a.size)

    near = np.flatnonzero((b > a) & ((a < _ENDPOINT) | (b > _MIRROR_LO)))
    if near.size:
        coeffs = _endpoint_coeffs(beta)
        for i in near.tolist():
            if a[i] < _ENDPOINT:
                v = _expansion_integral(beta, coeffs, a[i],
                                        min(b[i], _ENDPOINT))
                seg_vals[i] += v
                seg_abs[i] += abs(v)
            if b[i] > _MIRROR_LO:
                v = _expansion_integral(beta, coeffs, TWO_PI - b[i],
                                        TWO_PI - max(a[i], _MIRROR_LO))
                seg_vals[i] += v.conjugate()
                seg_abs[i] += abs(v)

    lo = np.maximum(a, _ENDPOINT)
    hi = np.minimum(b, _MIRROR_LO)
    inner = np.flatnonzero(hi > lo)
    if inner.size:
        lo, hi = lo[inner], hi[inner]
        # bound panel widths so the first Kronrod pass is sane
        npan = np.maximum(1, np.ceil((hi - lo) / _PANEL)).astype(np.intp)
        last = np.cumsum(npan) - 1
        j = np.arange(last[-1] + 1) - np.repeat(last + 1 - npan, npan)
        step = np.repeat((hi - lo) / npan, npan)
        start = np.repeat(lo, npan)
        pa = j * step + start
        pb = (j + 1) * step + start
        pb[last] = hi
        vals, absm, seg = _adaptive_panels(
            beta, pa, pb, np.repeat(inner, npan), cfg)
        np.add.at(seg_vals, seg, vals)
        np.add.at(seg_abs, seg, absm)

    return seg_vals, seg_abs


def _base_curve(beta, t0s, cfg):
    """Cumulative z along sorted base points t0s in (0, 2pi].

    Returns (z values, cumulative absolute mass) — the latter feeds
    conditioning estimates (attainable absolute accuracy is roughly
    machine epsilon times that mass).
    """
    edges = np.concatenate([[0.0], t0s])
    seg_vals, seg_abs = _segment_sums(beta, edges, cfg)
    return np.cumsum(seg_vals), np.cumsum(seg_abs)


def z_many(beta, ts, cfg=None, with_noise=False):
    """Evaluate z(beta, t) for an array of t values by quadrature.

    Negative arguments use the symmetry z(-t) = -conj(z(t)); arguments
    beyond one period use the exact shift z(t + 2pi) = z(t) + 2pi, so the
    quadrature always runs over the base interval (0, 2pi).

    Parameters
    ----------
    beta : float
        Order of the difference, > 0.
    ts : array_like
        Evaluation points (any real values).
    cfg : QuadConfig, optional
    with_noise : bool
        When true, also return a per-point estimate of the attainable
        absolute accuracy (cancellation floor) at that point.

    Returns
    -------
    ndarray of complex (and optionally ndarray of float)

    Raises
    ------
    ConvergenceError
        When the quadrature exceeds its subdivision budget, or when a
        value is not finite because (2 sin(phi/2))^beta overflows.
    """
    beta = _check_beta(beta)
    if cfg is None:
        cfg = DEFAULT_QUAD
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.isfinite(ts).all():
        raise InvalidArgumentError("t values must be finite")
    neg = ts < 0.0
    ta = np.abs(ts)
    m = np.floor(ta / TWO_PI)
    t0 = ta - TWO_PI * m
    # snap arguments that are a whole number of periods to the lattice
    snap = 256.0 * np.finfo(float).eps * np.maximum(1.0, ta)
    hi_snap = (TWO_PI - t0) <= snap
    m = np.where(hi_snap, m + 1.0, m)
    t0 = np.where(hi_snap, 0.0, t0)
    lattice = t0 <= snap

    out = np.zeros(ts.shape, dtype=complex)
    noise = np.zeros(ts.shape)
    interior = ~lattice
    if interior.any():
        uniq, inv = np.unique(t0[interior], return_inverse=True)
        with _overflow_quiet(beta):
            zb, ab = _base_curve(beta, uniq, cfg)
        out[interior] = zb[inv]
        noise[interior] = ab[inv]
    out += TWO_PI * m
    noise += TWO_PI * m + 1.0
    out = np.where(neg, -np.conj(out), out)
    if not np.isfinite(out).all():
        raise _not_finite(beta, out)
    noise *= 8.0 * np.finfo(float).eps
    if with_noise:
        return out, noise
    return out


def z_eval(beta, t, cfg=None):
    """z(beta, t) by adaptive quadrature (see ``z_many``)."""
    return complex(z_many(beta, [float(t)], cfg)[0])


def z_span(beta, a, b):
    """Integral of the kernel integrand over [a, b] inside the base period.

    Returns (value, abs_mass): the complex increment z(b) - z(a) and the
    absolute-magnitude mass of the span, which bounds the attainable
    accuracy (rounding floor ~ eps * abs_mass).  Much cheaper than two
    full evaluations when the span is short; used by zero refinement.

    A span inside [1e-3, 2pi - 1e-3] skips the segment set-up: its 1-4
    panels go straight to ``_adaptive_panels``, so a span that one GK15
    panel resolves costs one ``gk15_panels`` call.  The value is bit for
    bit that of ``_segment_sums`` on [a, b].  A value or mass that the
    integrand's overflow makes non-finite raises ConvergenceError.
    """
    beta = _check_beta(beta)
    a, b = float(a), float(b)
    if not (0.0 <= a <= b <= TWO_PI):
        raise InvalidArgumentError("need 0 <= a <= b <= 2pi")
    if a == b:
        return 0.0j, 0.0
    with _overflow_quiet(beta):
        if not (_ENDPOINT <= a and b <= _MIRROR_LO):
            vals, absm = _segment_sums(beta, np.array([a, b]), DEFAULT_QUAD)
        else:
            npan = max(1, math.ceil((b - a) / _PANEL))
            ends = np.arange(npan + 1) * ((b - a) / npan) + a
            ends[-1] = b
            vals, absm, _ = _adaptive_panels(beta, ends[:-1], ends[1:],
                                             np.zeros(npan, dtype=np.intp),
                                             DEFAULT_QUAD)
    # summed panel by panel from zero, as np.add.at does in _segment_sums
    value, mass = 0j, 0.0
    for v, m in zip(vals.tolist(), absm.tolist()):
        value += v
        mass += m
    if not (cmath.isfinite(value) and math.isfinite(mass)):
        raise _not_finite(beta, value)
    return value, mass


def psi_eval(beta, t):
    """Averaging kernel psi(beta, t) = z(beta, t)/t, with psi(beta, 0) = 0."""
    t = float(t)
    if t == 0.0:
        _check_beta(beta)
        return 0.0j
    return z_eval(beta, t) / t


def psi_many(beta, ts):
    """Vectorised ``psi_eval``."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.zeros(ts.shape, dtype=complex)
    nz = ts != 0.0
    if nz.any():
        out[nz] = z_many(beta, ts[nz]) / ts[nz]
    else:
        _check_beta(beta)
    return out


# ---------------------------------------------------------------------------
# series route (independent oracle)
# ---------------------------------------------------------------------------

def series_terms_needed(beta, tol):
    """Number of series terms for absolute tail error below tol in x and y.

    For non-integer beta the tail of sum |binom(beta, v)|/v is bounded by
    C(beta) * N^(-beta-1)/(beta+1), with m and C(beta) from
    ``fracdiff._tail_constant``.  The y series carries an extra factor of
    2 from |1 - cos|; both components are held below tol/2.
    """
    beta = _check_beta(beta)
    if not (tol > 0.0):
        raise InvalidArgumentError("tol must be positive")
    if beta == round(beta):
        return int(round(beta))
    m, log_c = _tail_constant(beta)
    log_n = (math.log(4.0) + log_c - math.log(beta + 1.0)
             - math.log(tol)) / (beta + 1.0)
    n = int(math.ceil(math.exp(min(log_n, 25.0 * math.log(10.0)))))
    return max(n, m)


def z_series(beta, t, tol=1e-9, cap=_SERIES_CAP):
    """z(beta, t) by direct series summation (oracle route).

    No argument reduction is performed; the series converges for every
    real t.  Raises a convergence error when the tail bound demands more
    than ``cap`` terms.  The one-point case of ``z_series_many``.
    """
    return complex(z_series_many(beta, [float(t)], tol, cap)[0])


def z_series_many(beta, ts, tol=1e-9, cap=_SERIES_CAP):
    """``z_series`` at every t of ts (one shared coefficient sweep)."""
    beta = _check_beta(beta)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = series_terms_needed(beta, tol)
    if n > cap:
        raise ConvergenceError(
            f"series for beta={beta} needs {n} terms for tol={tol} "
            f"(cap {cap})", achieved=tol * (n / cap) ** (beta + 1.0))
    xs, ys = _impl.z_series_sum_batch(beta, ts, n)
    return xs + 1j * ys


# ---------------------------------------------------------------------------
# closed-form derivative and divergence probe
# ---------------------------------------------------------------------------

def xy_prime(beta, t):
    """Closed-form derivative (x'(t), y'(t)) of the kernel curve.

    x' = cos(beta*(t-pi)/2) * (2 sin(t/2))^beta,
    y' = sin(beta*(t-pi)/2) * (2 sin(t/2))^beta;
    the derivative is 2pi-periodic, so t is reduced modulo 2pi first.
    """
    beta = _check_beta(beta)
    tr = math.fmod(float(t), TWO_PI)
    if tr < 0.0:
        tr += TWO_PI
    s = max(2.0 * math.sin(0.5 * tr), 0.0)
    mag = s ** beta
    ang = 0.5 * beta * (tr - math.pi)
    return mag * math.cos(ang), mag * math.sin(ang)


def xn_divergence_probe(n):
    """x at order 2n and argument pi*(1 - 1/n): diverges to -infinity.

    Integer order makes the series finite, so the value is an exact
    (2n)-term sum; cancellation limits accuracy to roughly
    binom(2n, n) * eps, which is far below the trend being probed.
    """
    n = int(n)
    if n < 1:
        raise InvalidArgumentError("n must be a positive integer")
    t = math.pi * (1.0 - 1.0 / n)
    xs, _ = _impl.z_series_sum_batch(float(2 * n), [t], 2 * n)
    return float(xs[0])


# ---------------------------------------------------------------------------
# CSV export of curve samples
# ---------------------------------------------------------------------------

def curve_points(beta, t_lo, t_hi, samples):
    """Uniformly sampled kernel curve: the grid ``ts`` and ``zs = z(beta, ts)``.

    ``ts`` is ``np.linspace(t_lo, t_hi, samples)`` and ``zs`` the complex
    array from ``z_many``; x and y are ``zs.real`` and ``zs.imag``.
    """
    beta = _check_beta(beta)
    if samples < 2:
        raise InvalidArgumentError("samples must be at least 2")
    if not (t_lo < t_hi):
        raise InvalidArgumentError("need t_lo < t_hi")
    ts = np.linspace(t_lo, t_hi, samples)
    return ts, z_many(beta, ts)


def write_curve_csv(fh, beta, ts, zs):
    """Write curve samples as CSV rows ``beta,t,x,y`` (17 sig. digits).

    ``ts`` and ``zs`` are the arrays of ``curve_points``.  beta is the
    same on every row, so it is rendered once; each row is one
    ``%``-format and all rows go out in one write.  ``%.17g`` renders
    every float as ``fmt17`` does.
    """
    row = "%.17g," % beta + "%.17g,%.17g,%.17g\n"
    fh.write("beta,t,x,y\n" + "".join(
        [row % r for r in zip(ts.tolist(), zs.real.tolist(),
                              zs.imag.tolist())]))

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
  on (0, pi], after reduction by the symmetry z(-t) = -conj(z(t)),
  the shift z(t + 2pi) = z(t) + 2pi and the mirror
  z(2pi - s) = 2pi - conj(z(s)), so no quadrature passes the peak 2^beta
  of the integrand at pi.  ``_segment_sums`` sets up the GK15 panels of
  all segments in one vectorised pass, cutting each segment [lo, hi]
  geometrically at lo * 2^j, so that no panel spans more than a factor 2
  in phi and one GK15 pass resolves the branch point phi^beta at 0.  A
  segment from 0 starts at a power of two at most 2^-J hi (``_head``),
  with J(beta) so large that the dropped head is below 2^-55 of the
  segment's mass.  ``_adaptive_panels`` refines any panel that still
  misses the one quadrature setting: 1e-10 absolute per value, 2000
  splits per call and a rounding floor of 8 eps times a panel's absolute
  mass, the factor of ``z_many``'s noise.  ``z_span`` mirrors a span past
  pi the same way and hands a span straight to ``_adaptive_panels`` with
  the same head and cut, so a short span costs one ``gk15_panels`` call.
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

import numpy as np

from . import _pykernels as _impl
from ._util import fmt17, fmt17_rows
from .errors import ConvergenceError, InvalidArgumentError
from .fracdiff import _SERIES_CAP, _tail_constant

TWO_PI = 2.0 * math.pi

#: lower limit of ``_z_dbeta``'s quadrature
_DBETA_LO = 1e-3
#: widest panel of ``_z_dbeta`` (the z quadrature cuts its panels
#: geometrically instead, see ``_panel_count``)
_PANEL = 0.5 * math.pi
#: panel width of ``_z_dbeta`` times beta
_DBETA_PANEL = math.pi
#: the quadrature setting of z (``_adaptive_panels``): the absolute error
#: target of one value, the panel splits one call may make, and the
#: rounding floor per unit of absolute mass, below which splitting a panel
#: does not lower its estimate; ``z_many``'s noise is the same factor
_ABS_TOL = 1e-10
_MAX_SPLITS = 2000
_ROUND = 8.0 * float(np.finfo(float).eps)
#: below this order the quadrature cannot overflow: the integrand is at most
#: 2^beta in modulus, and the sums over the period (values, error estimates,
#: absolute masses) are at most 2^(beta + 5)
_NO_OVERFLOW_BETA = 1000.0
#: rows of ``write_curve_csv`` rendered and written at a time; the arrays
#: of one block peak at about 1.4 MiB, below the 1.8 MiB that the text of
#: an 8192-row curve took when it was built whole
_CSV_BLOCK = 3072


def _check_beta(beta):
    beta = float(beta)
    if not (beta > 0.0) or not math.isfinite(beta):
        raise InvalidArgumentError(f"beta must be positive and finite, got {beta}")
    return beta


def _check_grid(name, grid):
    """A grid size must be a whole number of at least 2."""
    if not (grid >= 2 and float(grid).is_integer()):
        raise InvalidArgumentError(
            f"{name} must be a whole number of at least 2, got {grid}")


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
# adaptive quadrature driver on the half period (0, pi]
# ---------------------------------------------------------------------------

def _adaptive_panels(beta, a, b, seg):
    """Refine GK15 panels [a_j, b_j] until the quadrature tolerance holds.

    The batch is done when its error estimates sum to at most
    ``_ABS_TOL``, or when each panel's estimate is within its share of
    ``_ABS_TOL`` per unit width or below ``_ROUND`` times its absolute
    mass; more than ``_MAX_SPLITS`` splits raise ConvergenceError.

    ``seg`` tags each panel with the segment it belongs to; halves inherit
    the tag.  Returns (values, abs_masses, tags) of the final panels: the
    panels kept unsplit in their order, then the halves of the last pass.
    """
    vals, errs, absm = _impl.gk15_panels(beta, a, b)
    budget = _ABS_TOL / TWO_PI
    splits = 0
    while True:
        bad = (errs > budget * (b - a)) & (errs > _ROUND * absm)
        if errs.sum() <= _ABS_TOL or not bad.any():
            return vals, absm, seg
        splits += int(bad.sum())
        if splits > _MAX_SPLITS:
            raise ConvergenceError(
                f"quadrature needs more than {_MAX_SPLITS} "
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


def _panel_count(lo, hi):
    """Number of panels of the geometric cut of [lo, hi], 0 < lo < hi.

    The cut points are lo * 2^j for every j >= 1 with lo * 2^j < hi, so
    the count is one more than the number of such j.  With
    lo = ml * 2^el and hi = mh * 2^eh (``np.frexp``, mantissas in
    [1/2, 1)), that number is eh - el - [ml >= mh], exactly, with no
    division to round.  Works on scalars and on arrays.
    """
    ml, el = np.frexp(lo)
    mh, eh = np.frexp(hi)
    return eh - el + (ml < mh)


def _head(beta, a, b):
    """Where the quadrature of [a, b] inside [0, pi] starts.

    That is lo = max(a, 2^(e - 1 - J)), with b = m * 2^e (``np.frexp``,
    m in [1/2, 1)) and J = ceil(55/(beta + 1)) + 2, and [a, lo] is
    dropped.  As |f(phi)| <= phi^beta, the dropped part is at most
    lo^(beta+1)/(beta+1) <= (b 2^-J)^(beta+1)/(beta+1), and the mass of
    [b/2, b] is at least (b/2)(0.9 b/2)^beta for b <= pi, so the drop is
    below 2^(1 + 1.16 beta - J (beta + 1)) <= 2^-55 of the segment's mass,
    under the 8 eps of ``z_many``'s noise.  From a power of two the cuts
    lo * 2^j are powers of two, so the top panel [2^(e-1), b] is no wider
    than the one below it.  The exponent stops at the least subnormal's,
    so lo > 0.  Works on scalars and on arrays.
    """
    depth = math.ceil(55.0 / (beta + 1.0)) + 2
    _, e = np.frexp(b)
    return np.maximum(a, np.ldexp(1.0, np.maximum(e - 1 - depth, -1074)))


def _segment_sums(beta, edges):
    """Integrate between consecutive edges inside [0, pi].

    Returns (segments, abs_segments): complex values and nonnegative
    magnitudes of integral over each [edges[i], edges[i+1]] (0 where
    edges[i+1] <= edges[i]).

    The set-up is vectorised over the segments.  Each segment starts at
    lo = ``_head(beta, a, b)``, and [lo, hi = b] is cut geometrically at
    lo * 2^j for every j >= 1 with lo * 2^j < hi (``_panel_count``; the
    products are exact).  Each panel then spans at most a factor 2 in
    phi, so the branch point phi^beta at 0 is at least one panel width
    away and one GK15 pass resolves it, down to the head of the segment;
    every panel is at most pi/2 wide, and a segment with hi <= 2 lo keeps
    one panel.  All panels, in segment-then-panel order, go through one
    ``_adaptive_panels`` call.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    seg_vals = np.zeros(a.size, dtype=complex)
    seg_abs = np.zeros(a.size)

    lo = _head(beta, a, b)
    inner = np.flatnonzero(b > lo)
    if inner.size:
        lo, hi = lo[inner], b[inner]
        npan = _panel_count(lo, hi)
        stop = np.cumsum(npan)
        j = np.arange(stop[-1]) - np.repeat(stop - npan, npan)
        start = np.repeat(lo, npan)
        pa = np.ldexp(start, j)
        pb = np.minimum(np.ldexp(start, j + 1), np.repeat(hi, npan))
        vals, absm, seg = _adaptive_panels(
            beta, pa, pb, np.repeat(inner, npan))
        np.add.at(seg_vals, seg, vals)
        np.add.at(seg_abs, seg, absm)

    return seg_vals, seg_abs


def z_many(beta, ts, with_noise=False):
    """Evaluate z(beta, t) for an array of t values by quadrature.

    Negative arguments use the symmetry z(-t) = -conj(z(t)), arguments
    beyond one period the exact shift z(t + 2pi) = z(t) + 2pi, and base
    points past pi the mirror z(2pi - s) = 2pi - conj(z(s)), so the
    quadrature always runs over (0, pi] and a point and its mirror share
    one quadrature node.

    The segments between the sorted reduced points are cut
    geometrically (``_segment_sums``), the first from a head at most 2^-J
    times the least point, whose dropped part is below 2^-55 of the segment's
    mass.  The GK15 panels of all points of the call are refined together
    until their error estimates sum to at most 1e-10, or until each
    panel meets its share of that or a rounding floor of 8 eps times its
    absolute mass; more than 2000 splits raise.  The noise is the same
    8 eps times the absolute mass up to the point, plus, for a mirrored
    or shifted point, the rounding of the 2pi it gains and |z'(t)| per
    float 2pi in its reduced argument, which moves that argument by
    about 2.4e-16 each.

    Parameters
    ----------
    beta : float
        Order of the difference, > 0.
    ts : array_like
        Evaluation points (any real values).
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
    past = t0 > math.pi

    out = np.zeros(ts.shape, dtype=complex)
    noise = np.zeros(ts.shape)
    interior = ~lattice
    if interior.any():
        s = np.where(past, TWO_PI - t0, t0)
        uniq, inv = np.unique(s[interior], return_inverse=True)
        with _overflow_quiet(beta):
            seg_vals, seg_abs = _segment_sums(
                beta, np.concatenate([[0.0], uniq]))
        out[interior] = np.cumsum(seg_vals)[inv]
        noise[interior] = np.cumsum(seg_abs)[inv]
    out = np.where(past, TWO_PI - np.conj(out), out) + TWO_PI * m
    out = np.where(neg, -np.conj(out), out)
    if not np.isfinite(out).all():
        raise _not_finite(beta, out)
    if not with_noise:
        return out
    turns = m + past
    noise += TWO_PI * turns + 1.0
    # each float 2pi in the reduction (mirror or shift) is 2.4e-16 short
    # of 2pi and the reduction rounds, so the reduced argument is off by a
    # few eps per turn and z by that times |z'(t0)| = (2 sin(t0/2))^beta
    moved = turns > 0.0
    if moved.any():
        with _overflow_quiet(beta):
            noise[moved] += (turns[moved]
                             * (2.0 * np.sin(0.5 * t0[moved])) ** beta)
    noise *= _ROUND
    return out, noise


def z_eval(beta, t):
    """z(beta, t) by adaptive quadrature (see ``z_many``)."""
    return complex(z_many(beta, [float(t)])[0])


def _half_span(beta, a, b):
    """(value, abs_mass) of the integral over [a, b] inside [0, pi].

    The span skips the segment set-up: it starts at ``_head`` and the
    panels of its geometric cut (``_panel_count``; one panel when
    b <= 2 lo) go straight to ``_adaptive_panels``, so a span that one
    GK15 pass resolves costs one ``gk15_panels`` call.  The panels, and so
    the value, are bit for bit those of ``_segment_sums`` on [a, b].
    """
    lo = float(_head(beta, a, b))
    if b <= lo:
        return 0j, 0.0
    npan = int(_panel_count(lo, b))
    ends = np.minimum(np.ldexp(lo, np.arange(npan + 1)), b)
    vals, absm, _ = _adaptive_panels(beta, ends[:-1], ends[1:],
                                     np.zeros(npan, dtype=np.intp))
    # summed panel by panel from zero, as np.add.at does in _segment_sums
    value, mass = 0j, 0.0
    for v, m in zip(vals.tolist(), absm.tolist()):
        value += v
        mass += m
    return value, mass


def z_span(beta, a, b):
    """Integral of the kernel integrand over [a, b] inside the base period.

    Returns (value, abs_mass): the complex increment z(b) - z(a) and the
    absolute-magnitude mass of the span, which bounds the attainable
    accuracy (rounding floor ~ eps * abs_mass).  Much cheaper than two
    full evaluations when the span is short; used by zero refinement.

    The integrand's mirror image is its conjugate, f(2pi - phi) =
    conj(f(phi)), so the part of the span past pi is the conjugate of its
    mirror image below pi; both parts are integrated inside [0, pi]
    (``_half_span``).  A value or mass that the integrand's overflow
    makes non-finite raises ConvergenceError.
    """
    beta = _check_beta(beta)
    a, b = float(a), float(b)
    if not (0.0 <= a <= b <= TWO_PI):
        raise InvalidArgumentError("need 0 <= a <= b <= 2pi")
    with _overflow_quiet(beta):
        value, mass = _half_span(beta, min(a, math.pi), min(b, math.pi))
        if b > math.pi:
            v, m = _half_span(beta, TWO_PI - b, TWO_PI - max(a, math.pi))
            value, mass = value + v.conjugate(), mass + m
    if not (cmath.isfinite(value) and math.isfinite(mass)):
        raise _not_finite(beta, value)
    return value, mass


def _z_dbeta(beta, t):
    """The derivative in beta of z at t in the base period (0, 2pi).

    d z / d beta = integral_0^t f(phi) (log(2 sin(phi/2)) + i (phi - pi)/2)
    dphi, where f is the integrand of z, by the GK15 rule
    (``gk15_dbeta``) on equal panels of [1e-3, t], each at most
    ``_DBETA_PANEL`` / beta wide (a quarter turn of the phase beta phi / 2
    and at most pi/2), without refinement; past pi, from the mirror
    d z / d beta (2pi - s) = -conj(d z / d beta (s)).  [0, 1e-3]
    (``_DBETA_LO``) is left out: at beta >= 4 it adds less than 1e-14.
    Only the beta-crossing search of ``zeros`` calls this, for its
    Jacobian, which sets the rate of its convergence and not its fixed
    point; z itself (``z_many``, ``z_span``) never pays for it.
    """
    t = float(t)
    if t > math.pi:
        # z(2pi - s) = 2pi - conj(z(s)) for every beta
        return -_z_dbeta(beta, TWO_PI - t).conjugate()
    lo, hi = _DBETA_LO, t
    if hi <= lo:
        return 0j
    npan = math.ceil((hi - lo) / min(_PANEL, _DBETA_PANEL / beta))
    ends = np.linspace(lo, hi, npan + 1)
    return complex(np.sum(_impl.gk15_dbeta(beta, ends[:-1], ends[1:])))


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
    array from ``z_many``; x and y are ``zs.real`` and ``zs.imag``.  A
    window whose ends or width are not finite, or a ``samples`` that is
    not a whole number of at least 2, raises InvalidArgumentError.
    """
    beta = _check_beta(beta)
    _check_grid("samples", samples)
    if not math.isfinite(t_hi - t_lo):
        raise InvalidArgumentError("t_lo, t_hi and t_hi - t_lo must be finite")
    if not (t_lo < t_hi):
        raise InvalidArgumentError("need t_lo < t_hi")
    ts = np.linspace(t_lo, t_hi, int(samples))
    return ts, z_many(beta, ts)


def write_curve_csv(fh, beta, ts, zs):
    """Write curve samples as CSV rows ``beta,t,x,y`` (17 sig. digits).

    ``ts`` and ``zs`` are the arrays of ``curve_points``: 1-D and of equal
    length, else InvalidArgumentError.  Every float is rendered as
    ``fmt17`` (``'%.17g'``) renders it, byte for byte: beta once, by
    ``fmt17``, and the rows by ``fmt17_rows``.  That computes the 17
    digits of each value in NumPy from a double-double product with 10^q
    and hands to ``'%.17g'`` only the zeros, NaNs and infinities, the
    values whose rounding it cannot decide (the fraction of the scaled
    value within 1e-12 of 1/2) and the floats within a few units in the
    last place of a power of ten.  Rows are rendered and written in
    blocks of ``_CSV_BLOCK``, so memory does not grow with the sample
    count.
    """
    ts = np.asarray(ts, dtype=float)
    zs = np.asarray(zs, dtype=complex)
    if ts.ndim != 1 or zs.shape != ts.shape:
        raise InvalidArgumentError(
            "ts and zs must be 1-D arrays of equal length, got shapes "
            f"{ts.shape} and {zs.shape}")
    prefix = fmt17(beta) + ","
    fh.write("beta,t,x,y\n")
    for lo in range(0, ts.size, _CSV_BLOCK):
        hi = lo + _CSV_BLOCK
        fh.write(fmt17_rows(prefix, np.column_stack(
            (ts[lo:hi], zs.real[lo:hi], zs.imag[lo:hi]))))

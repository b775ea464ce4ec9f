"""Averaging kernel of fractional differences on the circle.

The central object is the curve

    z(beta, t) = integral_0^t (1 - exp(i*phi))^beta dphi,

together with the averaging kernel psi(beta, t) = z(beta, t)/t.  The
k-th Fourier coefficient of the step-averaged fractional difference of a
periodic function is psi(beta, k*h) times the coefficient of the function,
which is why everything downstream (linearized moduli, multiplier bounds,
zero scans) reduces to evaluating z accurately.

``z_eval`` / ``z_many`` / ``z_span`` evaluate z by spectral integration
of the principal-branch polar form (2 sin(phi/2))^beta *
exp(i*beta*(phi-pi)/2) on (0, pi], after reduction by the symmetry
z(-t) = -conj(z(t)), the shift z(t + 2pi) = z(t) + 2pi and the mirror
z(2pi - s) = 2pi - conj(z(s)), so no sum passes the peak 2^beta of the
integrand at pi.  Each order has one Legendre table (``_Table``) on panels
whose edges depend on beta and their binade only (``_edges``), built as
far as the calls reach, and no further than the integrand stays finite
(``_reach``).  A reader resolves the table once, ``_sums`` per batch and
``z_span`` per call, and reads every point from it.  z at s is the stored
prefix of the panel that holds s, the integral from the head of its binade
(``_depth``) to its left end, plus one Legendre sum in that panel, and the
noise is the rounding of the same sums of |f|; as a panel and its prefix
depend on beta and the panel alone, so does a value on (beta, t).

``z_series`` is the independent oracle route: direct summation of

    x(t) = t + sum_v binom(beta, v) (-1)^v sin(v t)/v
    y(t) =     sum_v binom(beta, v) (-1)^v (1 - cos(v t))/v

truncated where its exact tail (``fracdiff._tail``) falls below the
tolerance.  No reduction is applied, so the two routes share no code path
and can serve as mutual oracles.
"""
from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_left
from collections import OrderedDict

import numpy as np
from numpy.polynomial import legendre

from ._util import check_beta, check_whole, fmt17, fmt17_rows, gauss_legendre
from .errors import ConvergenceError, InvalidArgumentError
from .fracdiff import _SERIES_CAP, _binomial_slices, _least_terms, _tail

TWO_PI = 2.0 * math.pi

_EPS = float(np.finfo(float).eps)
#: rounding of z per unit of absolute mass up to order ``_ROUND_BETA``
#: (``_round``)
_ROUND = 8.0 * _EPS
_ROUND_BETA = 32.0
#: Gauss-Legendre nodes per panel of the z table
_NODES = 24
#: |f| grows by at most e^_GROWTH across a panel (``_edges``)
_GROWTH = 4.0
#: panels of one table before ConvergenceError: the edges need beta/4 a
#: binade, and up to order 1000 a table holds at most about 2,000
_MAX_PANELS = 2 ** 15
#: z tables kept: at most ``_CACHE``, and besides the last one used at
#: most ``_CACHE_PANELS`` panels in all (about 0.9 KiB a panel), the least
#: recently used dropped first
_CACHE = 16
_CACHE_PANELS = 8192
#: panels whose coefficient rows a table keeps for ``_point``
_MEMO = 16
#: up to this many points go one at a time (``_point``): a point costs 10-20
#: us there, a vectorised call 150-300 us whatever its size, so the two
#: break even at 16 points without noise and 20-24 with it (orders 0.5 to
#: 40, warm tables)
_SCALAR_POINTS = 16
#: rows of ``write_curve_csv`` rendered and written at a time; the arrays
#: of one block peak at about 1.4 MiB, below the 1.8 MiB that the text of
#: an 8192-row curve took when it was built whole
_CSV_BLOCK = 3072


def _round(beta):
    """Rounding of z per unit of absolute mass: 8 eps, times beta/32 past
    order 32, where the integrand's own rounding grows like beta (s^beta
    multiplies the relative error of s = 2 sin(phi/2) by beta, and the
    phase beta (phi - pi)/2 is off by about beta eps)."""
    return _ROUND * max(1.0, beta / _ROUND_BETA)


def _depth(beta):
    """(J, lowest): a point s in the binade (2^b, 2^(b+1)] has its head at
    2^h, h = max(b - J, lowest) (``_head``), and the integral below is
    dropped.  With J = ceil(55/(beta + 1)) + 2, as |f(phi)| <= phi^beta,
    the drop is at most (s 2^-J)^(beta+1)/(beta+1), and the mass of
    [s/2, s] is at least (s/2)(0.9 s/2)^beta for s <= pi, so the drop is
    below 2^(1 + 1.16 beta - J (beta + 1)) <= 2^-55 of the mass up to s.
    With lowest = max(-ceil(1074/(beta + 1)), -1022), the integral up to
    2^lowest is at most 2^-1074/(beta + 1), below the least subnormal (at
    most 2^-1022 at orders under 0.051), so a point at or below 2^lowest
    has z = 0, and no table reaches below the normal floats, whose nodes a
    panel resolves."""
    return (math.ceil(55.0 / (beta + 1.0)) + 2,
            max(-math.ceil(1074.0 / (beta + 1.0)), -1022))


def _head(beta, s):
    """The exponent h of the head 2^h of s in [0, pi] (``_depth``): b is
    the binade of the panel that holds s, the one with 2^b < s <= 2^(b+1),
    as a panel holds the points of (left end, right end]."""
    depth, lowest = _depth(beta)
    return max(math.frexp(math.nextafter(s, 0.0))[1] - 1 - depth, lowest)


# ---------------------------------------------------------------------------
# the Legendre table of z on the half period (0, pi]
# ---------------------------------------------------------------------------

#: the Gauss-Legendre rule (``gauss_legendre``), and the matrix from an
#: integrand's values at its nodes to the columns a panel keeps: 0-24 the
#: Legendre coefficients of its antiderivative from -1, 25 its integral
#: (the Gauss weights), 26-27 its coefficients a_22 and a_23, and 28 the
#: sum of the moduli of 26-27, which applied to |f| bounds their rounding
_X, _W, _P = gauss_legendre(_NODES)
_FIT = (np.arange(_NODES) + 0.5)[:, None] * _W * _P.T
_ROWS = np.vstack([legendre.legint(_FIT, lbnd=-1), _W, _FIT[-2:],
                   np.abs(_FIT[-2:]).sum(0)]).T.copy()
#: the recurrence P_(n+1) = _U[n] x P_n - _V[n] P_(n-1)
_U = np.arange(1, 2 * _NODES, 2) / np.arange(1.0, _NODES + 1)
_V = np.arange(_NODES) / np.arange(1.0, _NODES + 1)
_RECURRENCE = tuple(zip(_U[1:].tolist(), _V[1:].tolist()))
#: trailing coefficients below this are the subnormal range's rounding
_TINY = float(np.finfo(float).tiny) / _EPS
#: a column of ``_ROWS`` sums the node values with weights of at most this
#: in all
_GAIN = float(np.abs(_ROWS).sum(0).max())


def _reach(beta):
    """The largest s <= pi at which a table stays finite.  A row is at
    most ``_GAIN`` times the largest |f| at its panel's nodes, and |f| =
    (2 sin(phi/2))^beta increases on (0, pi], so that is at most |f| at
    the right end of the panel, which lies at most pi/(2 beta) past s
    (``_edges``) and never past pi.  So the reach is pi while 2^beta
    ``_GAIN`` is finite (up to order 1020.32), and above that pi/(2 beta)
    short of the r where (2 sin(r/2))^beta ``_GAIN`` leaves the floats:
    3.079 at order 1021 and 3.009 at 1023.5."""
    room = (math.log(np.finfo(float).max) - math.log(_GAIN)) / beta
    if room >= math.log(2.0):
        return math.pi
    return 2.0 * math.asin(0.5 * math.exp(room)) - 0.5 * math.pi / beta


def _edges(beta, k_a, k_b):
    """The panel edges of binades k_a to k_b, the last one's right end
    included.  Binade k, [2^k, min(2^(k+1), pi)], is cut into n equal
    panels: at most pi/(2 beta) wide, and n >= beta/_GROWTH, so that
    (1 + 1/n)^beta <= e^_GROWTH bounds the growth of |f| ~ phi^beta
    across a panel.  More than ``_MAX_PANELS`` raise ConvergenceError."""
    binades = []
    for k in range(k_a, k_b + 1):
        lo = math.ldexp(1.0, k)
        width = min(2.0 * lo, math.pi) - lo
        binades.append((lo, width, max(math.ceil(beta / _GROWTH), math.ceil(
            width * (2.0 * beta / math.pi)))))
    panels = sum(n for _, _, n in binades)
    if panels > _MAX_PANELS:
        raise ConvergenceError(
            f"the z table needs {panels} panels for beta={beta}, more than "
            f"{_MAX_PANELS}", partial=None)
    return np.array([lo + width * (i / n) for lo, width, n in binades
                     for i in range(n)] + [lo + width])


def _tail_floor(beta):
    """Rounding floor of |a_22| + |a_23| per unit of their bound: (8 + beta)
    eps.  On the panels of ``_edges`` they were measured at up to 1.9
    (beta <= 0.5), 4.8 (16), 19 (40), 45 (100) and 380 (1000) eps times the
    bound; a panel that is not resolved stands far above."""
    return (8.0 + beta) * _EPS


def _build_panels(beta, edges):
    """The rows of the panels between the edges, one (3, 29) block per
    panel: the real and imaginary parts of f and |f| at the panel's nodes
    through ``_ROWS``, by one matrix product per panel, so a panel does
    not depend on the others.  The edges resolve every panel; one whose
    trailing coefficients stand above their floor (``_tail_floor``) raises
    ConvergenceError, with the largest of its width times those
    coefficients as ``achieved``."""
    a, b = edges[:-1], edges[1:]
    phi = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _X
    f = np.empty((a.size, 3, _NODES))
    np.power(np.maximum(2.0 * np.sin(0.5 * phi), 0.0), beta, out=f[:, 2])
    ang = 0.5 * beta * (phi - math.pi)
    np.multiply(f[:, 2], np.cos(ang), out=f[:, 0])
    np.multiply(f[:, 2], np.sin(ang), out=f[:, 1])
    rows = np.matmul(f, _ROWS)
    tail = (np.hypot(rows[:, 0, 26], rows[:, 1, 26])
            + np.hypot(rows[:, 0, 27], rows[:, 1, 27]))
    bad = tail > _tail_floor(beta) * rows[:, 2, 28] + _TINY
    if bad.any():
        raise ConvergenceError(
            f"{int(bad.sum())} of {a.size} panels of the z table for "
            f"beta={beta} are not resolved", partial=None,
            achieved=float(np.max(((b - a) * tail)[bad])))
    return rows


class _Table:
    """The Legendre table of z at one order, from 2^k_lo to the panel that
    holds top: per panel the left end, midpoint, half width, ``coef`` (the
    antiderivative's coefficients of f and of |f|, times the half width,
    complex, shape (2, 25, panels)) and ``prefix`` (the integrals of f and
    of |f| from the head of the panel's binade b (``_head``) to its left
    end, shape (2, panels)); ``panels`` counts the panels.

    A prefix sums the totals of binades b - J to b - 1, then those of the
    panels of b before the panel, each in order; a binade below k_lo counts
    0, which is exact below the least head (``_depth``), and a table is
    never read where it is not.  So a prefix depends on beta and the panel
    alone, not on the table's reach."""

    def __init__(self, beta, k_lo, top):
        edges = _edges(beta, k_lo, min(math.frexp(top)[1] - 1, 1))
        edges = edges[:np.searchsorted(edges, top) + 1]
        a, b, rows = edges[:-1], edges[1:], _build_panels(beta, edges)
        self.left, self.mid, self.hw = a, 0.5 * (a + b), 0.5 * (b - a)
        coef = np.zeros((2, _NODES + 2, a.size), dtype=complex)
        coef.real[0], coef.imag[0], coef.real[1] = (
            rows[:, :, :_NODES + 2].transpose(1, 2, 0) * self.hw)
        self.coef = coef[:, :-1].copy()
        # sums[:, J + c, i]: the totals of the first i panels of binade
        # k_lo + c, added in order, so a row ends in the binade's total
        # (the J rows before stand for the binades under k_lo, as 0);
        # below[:, c]: the totals of the J binades before binade k_lo + c,
        # added in order
        binade = np.frexp(a)[1] - 1 - k_lo
        at = np.arange(a.size) - np.searchsorted(binade, binade)
        n, depth = binade[-1] + 1, _depth(beta)[0]
        row = depth + binade
        sums = np.zeros((2, depth + n, at.max() + 2), dtype=complex)
        sums[:, row, at + 1] = coef[:, -1]
        sums = np.cumsum(sums, axis=2)
        window = np.arange(n)[:, None] + np.arange(depth)
        below = np.cumsum(sums[:, window, -1], axis=2)[:, :, -1]
        self.prefix = below[:, binade] + sums[:, row, at]
        self.k_lo, self.right, self.panels = k_lo, float(edges[-1]), a.size
        # for ``_point``: the left ends and, by panel, the coefficients
        self.left_list, self.rows = self.left.tolist(), {}


_TABLES = OrderedDict()
_TABLES_LOCK = threading.Lock()


def _table(beta, k_lo, top):
    """The cached table of order beta that covers [2^k_lo, top]; one that
    does not is rebuilt over both ranges, on the same edges, unless top
    lies past ``_reach(beta)``, which raises ConvergenceError.  A build runs
    outside the lock, so threads may build the same table twice; as a
    value does not depend on a table's reach, either copy serves."""
    with _TABLES_LOCK:
        tab = _TABLES.get(beta)
        if tab is not None and tab.k_lo <= k_lo and top <= tab.right:
            _TABLES.move_to_end(beta)
            return tab
    if tab is not None:
        k_lo, top = min(k_lo, tab.k_lo), max(top, tab.right)
    reach = _reach(beta)
    if top > reach:
        raise ConvergenceError(
            f"z is not finite for beta={beta}: the integrand overflows "
            f"the float range beyond {reach!r}")
    tab = _Table(beta, k_lo, top)
    with _TABLES_LOCK:
        _TABLES[beta] = tab
        _TABLES.move_to_end(beta)
        held = sum(t.panels for t in _TABLES.values())
        while len(_TABLES) > 1 and (len(_TABLES) > _CACHE
                                    or held - tab.panels > _CACHE_PANELS):
            held -= _TABLES.popitem(last=False)[1].panels
    return tab


def _legendre(coef, k, x):
    """sum_m coef[m, k] P_m(x) per point: P_m(x) by the recurrence and the
    terms added in m order (``_point`` is the same arithmetic on one point)."""
    acc = coef[0].take(k) + coef[1].take(k) * x
    p0, p1 = 1.0, x
    for n in range(1, _NODES):
        p0, p1 = p1, _U[n] * x * p1 - _V[n] * p0
        acc += coef[n + 1].take(k) * p1
    return acc


def _sums(beta, s, noise=True):
    """z from the head of each point s in (0, pi] to s, and, with noise,
    the mass of |f| (else None): the prefix of the panel that holds s plus
    its Legendre sum.  It resolves one table for the batch, and up to
    ``_SCALAR_POINTS`` points go through ``_point`` on that table one at a
    time.  Every s must lie above 2^lowest (``_depth``), the least head."""
    tab = _table(beta, _head(beta, float(s.min())), float(s.max()))
    if s.size <= _SCALAR_POINTS:
        value, mass = zip(*[_point(tab, v) for v in s.tolist()])
        return np.array(value), np.array(mass) if noise else None
    k = np.searchsorted(tab.left, s) - 1
    x = (s - tab.mid[k]) / tab.hw[k]
    value = tab.prefix[0, k] + _legendre(tab.coef[0], k, x)
    return value, (tab.prefix[1, k] + _legendre(tab.coef[1], k, x)).real \
        if noise else None


def _point(tab, s):
    """(value, mass) of the integral from the head of s to s, in Python
    floats, read from ``tab``, which its caller resolved to cover s above
    the least head (``_depth``): bit for bit what ``_sums`` gives for s, as
    a complex times a real is its real and imaginary parts times the real."""
    k = bisect_left(tab.left_list, s) - 1
    rows = tab.rows.get(k)
    if rows is None:
        # one dict operation a step, so threads may share the memo
        if len(tab.rows) >= _MEMO:
            tab.rows.clear()
        c = tab.coef[:, :, k]
        rows = tab.rows[k] = list(zip(
            c[0].real.tolist(), c[0].imag.tolist(), c[1].real.tolist()))
    x = (s - tab.mid.item(k)) / tab.hw.item(k)
    (re, im, mass), (r, i, m) = rows[:2]
    re, im, mass = re + r * x, im + i * x, mass + m * x
    p0, p1 = 1.0, x
    for (u, v), (r, i, m) in zip(_RECURRENCE, rows[2:]):
        p0, p1 = p1, u * x * p1 - v * p0
        re += r * p1
        im += i * p1
        mass += m * p1
    value, total = tab.prefix[:, k].tolist()
    return complex(value.real + re, value.imag + im), total.real + mass


def z_many(beta, ts, with_noise=False):
    """Evaluate z(beta, t) for an array of t values from the z table.

    Negative arguments use the symmetry z(-t) = -conj(z(t)), arguments
    beyond one period the exact shift z(t + 2pi) = z(t) + 2pi, and base
    points past pi the mirror z(2pi - s) = 2pi - conj(z(s)), so the sums
    always run over (0, pi] and a point and its mirror share one value.
    A value depends on beta and t alone (see the module docstring).

    With ``with_noise``, also returns the attainable absolute accuracy
    per point: ``_round(beta)`` times the absolute mass up to the point
    plus 1, plus, for a mirrored or shifted point, the rounding of the 2pi
    it gains and |z'(t)| per float 2pi (2.4e-16 short) in its reduced
    argument.  Raises ConvergenceError when a panel of the table is not
    resolved (``_build_panels``), a table needs more than ``_MAX_PANELS``
    panels, or a point lies past ``_reach(beta)``, where the table would
    overflow.
    """
    beta = check_beta(beta)
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
    s = np.where(past, TWO_PI - t0, t0)
    # z is 0 up to the least head (``_depth``)
    interior = ~lattice & (s > math.ldexp(1.0, _depth(beta)[1]))
    if interior.any():
        out[interior], mass = _sums(beta, s[interior], with_noise)
        if with_noise:
            noise[interior] = mass
    out = np.where(past, TWO_PI - np.conj(out), out) + TWO_PI * m
    out = np.where(neg, -np.conj(out), out)
    if not with_noise:
        return out
    turns = m + past
    noise += TWO_PI * turns + 1.0
    noise *= _round(beta)
    # each float 2pi in the reduction (mirror or shift) is 2.4e-16 short
    # of 2pi and the reduction rounds, so the reduced argument is off by a
    # few eps per turn and z by that times |z'(t0)| = (2 sin(t0/2))^beta,
    # scaled before the turns multiply it: near 2^beta, it would overflow
    moved = turns > 0.0
    if moved.any():
        noise[moved] += turns[moved] * (
            _round(beta) * (2.0 * np.sin(0.5 * t0[moved])) ** beta)
    return out, noise


def z_eval(beta, t):
    """z(beta, t) from the z table (see ``z_many``)."""
    return complex(z_many(beta, [float(t)])[0])


def z_span(beta, a, b):
    """Integral of the kernel integrand over [a, b] inside the base period.

    Returns (value, abs_mass): z(b) - z(a) and the absolute mass of the
    span, as differences of the table sums to b and to a (``_point``), so
    they round to about ``_round(beta)`` times the mass up to b.  Past pi
    the span is the conjugate of its mirror image below pi, as
    f(2pi - phi) = conj(f(phi)); the piece below pi is read only when a
    lies below pi.  One table, resolved here, serves all ends; an end at or
    below the least head (``_depth``) reads 0, as in ``z_many``, and one past
    ``_reach(beta)``, where the integrand overflows, raises ConvergenceError.
    """
    beta = check_beta(beta)
    a, b = float(a), float(b)
    if not (0.0 <= a <= b <= TWO_PI):
        raise InvalidArgumentError("need 0 <= a <= b <= 2pi")
    ends = [(min(b, math.pi), a, 1.0)] if a < math.pi else []
    if b > math.pi:
        ends.append((TWO_PI - max(a, math.pi), TWO_PI - b, -1.0))
    least = math.ldexp(1.0, _depth(beta)[1])
    reads = [s for end in ends for s in end[:2] if s > least]
    tab = _table(beta, _head(beta, min(reads)), max(reads)) if reads else None
    value, mass = 0j, 0.0
    for hi, lo, sign in ends:
        (v1, m1), (v0, m0) = (_point(tab, s) if s > least else (0j, 0.0)
                              for s in (hi, lo))
        value += complex((v1 - v0).real, sign * (v1 - v0).imag)
        mass += m1 - m0
    return value, mass


def _z_dbeta(beta, t):
    """The derivative in beta of z at t in the base period (0, 2pi).

    d z / d beta = integral_0^t f(phi) L(phi) dphi, L = log(2 sin(phi/2))
    + i (phi - pi)/2 and f = exp(beta L) the integrand of z, by the
    24-node rule of the z table (``_X``, ``_W``) on the table's panels
    (``_edges``) from the head 2^h of t (``_head``) through t's binade,
    the last one cut at t; past pi, from the mirror d z / d beta (2pi - s)
    = -conj(d z / d beta (s)).  As for z (``_depth``), the integral below
    the head is dropped, and at or below the least head the value is 0:
    below the head |L| <= |log phi| + 1.6, and |L| >= log 2 on (0, pi], so
    the drop is at most (|h| + 4) 2^-55 of the mass of |f L| up to t.  It
    reads no table and builds none, so a value depends on (beta, t) alone.
    Only the beta-crossing search of ``zeros`` calls this, for its
    Jacobian, which sets the rate of its convergence and not its fixed
    point; z itself (``z_many``, ``z_span``) never pays for it.
    """
    t = float(t)
    if t > math.pi:
        # z(2pi - s) = 2pi - conj(z(s)) for every beta
        return -_z_dbeta(beta, TWO_PI - t).conjugate()
    h = _head(beta, t)
    if t <= math.ldexp(1.0, h):
        return 0j
    edges = _edges(beta, h, math.frexp(math.nextafter(t, 0.0))[1] - 1)
    edges = edges[:np.searchsorted(edges, t) + 1]
    edges[-1] = t
    hw = 0.5 * (edges[1:] - edges[:-1])
    phi = 0.5 * (edges[:-1] + edges[1:])[:, None] + hw[:, None] * _X
    # f L, with L = d log f / d beta = log(1 - e^(i phi)) and f = e^(beta L)
    dlog = np.log(2.0 * np.sin(0.5 * phi)) + 0.5j * (phi - math.pi)
    return complex(hw @ (np.exp(beta * dlog) * dlog @ _W))


def psi_eval(beta, t):
    """Averaging kernel psi(beta, t) = z(beta, t)/t, with psi(beta, 0) = 0."""
    t = float(t)
    if t == 0.0:
        check_beta(beta)
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
        check_beta(beta)
    return out


# ---------------------------------------------------------------------------
# series route (independent oracle)
# ---------------------------------------------------------------------------

def series_terms_needed(beta, tol):
    """Number of series terms for absolute tail error below tol in x and y.

    The least N with beta T(N)/N <= tol/4, T(N) = sum_{v>N}
    |binom(beta, v)| exact (``fracdiff._tail``): past floor(beta),
    |binom(beta, v)| = beta T(v - 1)/v, so beta T(N)/N bounds the tail of
    sum |binom(beta, v)|/v.  The y series carries an extra factor of 2
    from |1 - cos|, so x stays below tol/4 and y below tol/2.  At an
    integer beta, T(beta) = 0 and N = beta.
    """
    beta = check_beta(beta)
    if not (tol > 0.0):
        raise InvalidArgumentError("tol must be positive")
    return _least_terms(lambda n: 4.0 * beta * _tail(beta, n) <= tol * n,
                        sys.maxsize)


def z_series(beta, t, tol=1e-9, cap=_SERIES_CAP):
    """z(beta, t) by direct series summation (oracle route).

    No argument reduction is performed; the series converges for every
    real t, and a t that is not finite raises InvalidArgumentError, as in
    ``z_many``.  Raises a convergence error when the tail bound demands
    more than ``cap`` terms.  The one-point case of ``z_series_many``.
    """
    return complex(z_series_many(beta, [float(t)], tol, cap)[0])


def z_series_many(beta, ts, tol=1e-9, cap=_SERIES_CAP):
    """``z_series`` at every t of ts (one shared coefficient sweep).

    The coefficients go in slices of up to 2^16 terms, and of at most
    5e7 entries of the term-by-point matrix.  Past ``cap`` terms it raises
    ConvergenceError with the tolerance the cap reaches, 4 beta
    T(cap)/cap, as ``achieved``; a ``cap`` that is not a whole number of
    at least 1, or a t that is not finite, raises InvalidArgumentError.
    """
    beta = check_beta(beta)
    cap = check_whole("cap", cap, 1)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.isfinite(ts).all():
        raise InvalidArgumentError("t values must be finite")
    n = series_terms_needed(beta, tol)
    if n > cap:
        raise ConvergenceError(
            f"series for beta={beta} needs {n} terms for tol={tol} "
            f"(cap {cap})", achieved=4.0 * beta * _tail(beta, cap) / cap)
    xs, ys = ts.copy(), np.zeros_like(ts)
    size = max(1, min(1 << 16, 50_000_000 // max(1, ts.size)))
    for nu, s in _binomial_slices(beta, 1, n, size):
        ang = np.multiply.outer(nu, ts)
        w = s / nu
        xs += w @ np.sin(ang)
        ys += w @ (1.0 - np.cos(ang))
    return xs + 1j * ys


# ---------------------------------------------------------------------------
# closed-form derivative and divergence probe
# ---------------------------------------------------------------------------

def xy_prime(beta, t):
    """Closed-form derivative (x'(t), y'(t)) of the kernel curve.

    x' = cos(beta*(t-pi)/2) * (2 sin(t/2))^beta,
    y' = sin(beta*(t-pi)/2) * (2 sin(t/2))^beta;
    the derivative is 2pi-periodic, so t is reduced modulo 2pi first.  A t
    that is not finite raises InvalidArgumentError, as in ``z_many``.
    """
    beta = check_beta(beta)
    t = float(t)
    if not math.isfinite(t):
        raise InvalidArgumentError("t must be finite")
    tr = math.fmod(t, TWO_PI)
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
    binom(2n, n) * eps, which is far below the trend being probed.  An
    ``n`` that is not a whole number of at least 1 raises
    InvalidArgumentError.
    """
    n = check_whole("n", n, 1)
    return z_series(float(2 * n), math.pi * (1.0 - 1.0 / n)).real


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
    beta = check_beta(beta)
    samples = check_whole("samples", samples, 2)
    if not math.isfinite(t_hi - t_lo):
        raise InvalidArgumentError("t_lo, t_hi and t_hi - t_lo must be finite")
    if not (t_lo < t_hi):
        raise InvalidArgumentError("need t_lo < t_hi")
    ts = np.linspace(t_lo, t_hi, samples)
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

"""Zero set of the kernel curve z(beta, t).

For fixed beta the imaginary part y is 2pi-periodic (y(t + 2pi) = y(t)),
while the real part x gains exactly 2pi per period.  A zero of z at
t = t0 + 2pi*k with t0 in the base period therefore needs

    y(t0) = 0   and   x(t0) = -2pi*k.

A branch is a piece of y.  On (0, 2pi),
y' = sin(beta(t - pi)/2) (2 sin(t/2))^beta vanishes only at
t_m = pi(1 + 2m/beta), so y is monotone on each piece P_m = (t_m, t_m+1)
and has at most one zero there.  A zero cannot leave its piece without
becoming a double root, so the piece index m = floor(beta(t - pi)/2pi)
names the branch along beta, and a branch ends where its piece loses its
sign change.  The scan refines the y-zeros of each beta column, pairs
the zeros of adjacent columns by piece index, watches x + 2pi*k for sign
changes on every pair and admissible shift index k >= 1, and closes each
crossing in beta on its piece (``_bisect_crossing``).  The smallest
pathological order beta0 ~ 4.84 is the k = 1 crossing on the piece
m = -1, (pi(1 - 2/beta), pi), for beta in [4, 5]; ``find_beta0`` runs the
same crossing search there.

Every y-zero is found on its piece: ``_piece_bounds`` gives P_m, and
``_piece_zeros`` evaluates y at knots across each piece below pi (m < 0)
in one ``z_many`` call, refines the one sign change that a monotone
piece can hold (``_bisect_y``) and mirrors it to P_(-m-1), since
y(2pi - t) = y(t).  A column maps piece index to zero.  The two root-finders:

* in t, safeguarded Newton steps with the closed-form y'
  (``kernel.xy_prime``) from the false-position point of the bracket.
  Each evaluated y narrows a sign bracket that only shrinks; a step that
  would leave it, or a point where y' = 0 (a bracket may end at a piece
  end, an extremum of y), takes the bracket's midpoint instead.  A
  bracket takes about 4 evaluations of z.
* in (beta, t) for a crossing, Newton steps on the complex equation
  z(beta, t) + 2pi*k = 0, two real equations in two unknowns, with
  d z / d t in closed form and d z / d beta by quadrature on the z
  table's panels from the head of t, without reading or building a table
  (``kernel._z_dbeta``).  The start is the linear interpolation of the
  column pair's zeros on the piece, and the stop is the noise floor of
  z (``_stop_floor``).  Each step evaluates z at one point (``z_many``,
  whose quadrature never passes the peak of the integrand at pi); a
  crossing of the zeros-scan window takes 3-4 steps, and 2 more points
  check the sign change of g(beta) = x(t*(beta)) + 2pi*k across the
  record's beta bracket of width _TOL_BETA (``_crossing_record``).  When
  an iterate leaves the column cell or the piece, the run does not reach
  the floor, or the bracket reads no sign change, the cell is split at
  its midpoint beta, where the piece's y-zero gives g, and Newton reruns
  on the half where g changes sign (``_bisect_crossing``).  So a record
  does not depend on the grid: the census
  scan_zero_set(40, 40pi, 12, 128, beta_min=4) splits 73 cells and
  returns the 215 records of scan_zero_set(40, 40pi, 120, 512,
  beta_min=4), which splits none, to 7e-15 in beta.

Refinement in t evaluates z as the anchored value at the bracket's left
knot plus ``kernel.z_span`` from there, the difference of two sums of the
order's z table.

Every sign of y is read by one rule (``_y_signs``): y has a sign only
where |y| exceeds ``_SIGN_NOISE`` times the cancellation floor that
``z_many(..., with_noise=True)`` returns for the point.  Points without a
sign are dropped, and sign changes are bracketed between consecutive
points that have one.  Near t = 0 (and so, by the mirror, near 2pi), y is
smaller than its own rounding noise; a sign read there would add a false
zero that depends on the rounding of the quadrature and on the grid.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._util import check_beta, check_whole
from .errors import BracketError, InvalidArgumentError
from .kernel import (TWO_PI, _round, _z_dbeta, xy_prime,
                     z_eval, z_many, z_span)

log = logging.getLogger(__name__)

#: absolute target for |y| at a refined zero; widened by the cancellation
#: floor of the evaluation when beta is large (amplitudes grow like 2^beta,
#: so absolute accuracy below eps * 2^beta-scale mass is not representable).
_Y_TARGET = 1e-12

_EPS = float(np.finfo(float).eps)

#: width in beta to which a crossing's bracket is closed
_TOL_BETA = 1e-10

#: Newton steps in (beta, t) before a crossing splits its cell
_NEWTON_STEPS = 6

#: 2pi = _TWO_PI_HI + _TWO_PI_MID + _TWO_PI_LO: the first two are the float
#: 2pi split so that k times each is exact for k < 2^26, the last is the
#: rounding error of the float 2pi
_TWO_PI_HI = math.ldexp(math.floor(math.ldexp(TWO_PI, 24)), -24)
_TWO_PI_MID = TWO_PI - _TWO_PI_HI
_TWO_PI_LO = 2.4492935982947064e-16

#: y carries a sign only where |y| exceeds this multiple of its noise floor
_SIGN_NOISE = 4.0

#: uniform knots across one monotone piece of y in ``_zero_in_window``
#: (``find_beta0``'s cell ends, ``curve_F`` and the midpoint of a split
#: crossing cell).  The piece holds at most one bracket with any number of
#: knots; interior knots narrow the bracket that Newton in t starts from.
#: With 2, 4, 8 and 16 knots ``find_beta0`` made 15, 11, 9 and 8 z_span
#: calls.
_PIECE_KNOTS = 16


@dataclass(frozen=True)
class ZeroRecord:
    """One located zero (beta_k, t_k) of z, with refinement provenance.

    ``residual`` is |z(beta_k, t_k)| by ``z_eval``, at the one quadrature
    setting of ``kernel``.
    """
    beta_k: float
    t_k: float
    residual: float
    bracket: tuple[float, float, float, float]  # (beta_lo, beta_hi, t_lo, t_hi)
    branch_index: int


def _shift(t, k):
    """t + 2pi k, rounded once.

    t + TWO_PI * k can round to the float next to the nearest one, which
    at |z'| ~ 16 (beta0) moves |z| by up to 1.4e-14.
    """
    return math.fsum((t, k * _TWO_PI_HI, k * _TWO_PI_MID, k * _TWO_PI_LO))


def _stop_floor(noise):
    return max(_Y_TARGET, 8.0 * noise)


def _y_signs(ys, noise):
    """Sign of y (+1 or -1) where |y| > _SIGN_NOISE * noise, else 0."""
    ys = np.asarray(ys, dtype=float)
    clear = np.abs(ys) > _SIGN_NOISE * np.asarray(noise, dtype=float)
    return np.where(clear, np.sign(ys), 0.0)


def _sign_brackets(ys, noise):
    """Index pairs (i, j), i < j, between which y changes sign.

    Points without a sign (``_y_signs`` == 0) are skipped, so i and j are
    consecutive among the signed points.
    """
    sg = _y_signs(ys, noise)
    signed = np.flatnonzero(sg)
    flips = sg[signed[:-1]] != sg[signed[1:]]
    return [(int(i), int(j))
            for i, j in zip(signed[:-1][flips], signed[1:][flips])]


def _eval_z(beta, t, anchor):
    """z and its accuracy floor at t, integrated from the anchor.

    ``anchor`` is (t_a, z_a, noise_a) with t_a <= t, both inside the base
    period; the evaluation integrates only [t_a, t].
    """
    t_a, z_a, n_a = anchor
    val, mass = z_span(beta, t_a, t)
    return z_a + val, n_a + _round(beta) * mass


def _piece_bounds(beta, m):
    """Ends of the monotone piece P_m = (pi(1 + 2m/beta), pi(1 + 2(m+1)/beta))
    of y, clipped to the base period [0, 2pi]."""
    return (max(math.pi * (1.0 + 2.0 * m / beta), 0.0),
            min(math.pi * (1.0 + 2.0 * (m + 1) / beta), TWO_PI))


def _piece_zeros(beta, knots):
    """The zero of y on each monotone piece, refined from knots on it.

    ``knots`` maps a piece index m < 0 to ascending knots on P_m.  y is
    evaluated at all of them in one ``z_many`` call.  y is monotone on
    P_m, so the signed knots of a piece hold at most one sign change;
    ``_bisect_y`` refines it from the bracket's left knot.  A sign change
    between two pieces passes an extremum where y has no sign, a touch
    within noise, and is not a zero of either piece.  Returns {m: the
    ``_bisect_y`` tuple (t, t_lo, t_hi, z)} for the pieces with a sign
    change, and for each mirror piece -m-1 (2pi - t, 2pi - t_hi,
    2pi - t_lo, 2pi - conj(z)), as z(2pi - t) = 2pi - conj(z(t)).
    """
    ts = np.concatenate([np.asarray(k, dtype=float) for k in knots.values()])
    piece = np.repeat(list(knots), [len(k) for k in knots.values()])
    zs, ns = z_many(beta, ts, with_noise=True)
    out = {}
    for i, j in _sign_brackets(zs.imag, ns):
        m = int(piece[i])
        if piece[j] == m:
            anchor = (float(ts[i]), complex(zs[i]), float(ns[i]))
            t, t_lo, t_hi, z = out[m] = _bisect_y(
                beta, float(ts[i]), float(ts[j]), float(zs[i].imag),
                float(zs[j].imag), anchor)
            out[-m - 1] = (TWO_PI - t, TWO_PI - t_hi, TWO_PI - t_lo,
                           TWO_PI - z.conjugate())
    return out


def _bisect_y(beta, lo, hi, ylo, yhi, anchor):
    """Refine a sign-change bracket of y by safeguarded Newton steps.

    The first point is the false-position point of the bracket; each next
    one is the Newton step t - y/y', with y' in closed form
    (``kernel.xy_prime``, no quadrature).  Every evaluated y narrows the
    sign bracket, and a step that would leave it, or a point where
    y' = 0, is replaced by the bracket's midpoint.  Stops when |y| is at
    the noise floor (``_stop_floor``) or the bracket at the rounding
    width.  The name stays ``_bisect_y`` although the steps are Newton
    steps, because the benchmark's per-layer spans bind it by name.
    Every z is integrated from ``anchor`` = (t_a, z_a, noise_a), the
    bracket's left knot (``_eval_z``), and the bracket lies in (0, pi]
    (``_piece_zeros`` mirrors the zeros past pi).  Returns (t, t_lo, t_hi,
    z_at_t); [t_lo, t_hi] is the sign bracket that held t when it was
    evaluated.
    """
    width_floor = 64.0 * _EPS * max(1.0, hi)
    lo_positive = ylo > 0.0
    t = lo - ylo * (hi - lo) / (yhi - ylo)
    if not (lo < t < hi):
        t = 0.5 * (lo + hi)
    for _ in range(200):
        z, noise = _eval_z(beta, t, anchor)
        y = z.imag
        if abs(y) <= _stop_floor(noise) or (hi - lo) <= width_floor:
            return t, lo, hi, z
        if (y > 0.0) == lo_positive:
            lo = t
        else:
            hi = t
        dy = xy_prime(beta, t)[1]
        t = t - y / dy if dy != 0.0 else lo
        if not (lo < t < hi):
            t = 0.5 * (lo + hi)
    return t, lo, hi, _eval_z(beta, t, anchor)[0]


def _check_window(t_lo, t_hi, grid):
    """A window needs finite 0 < t_lo < t_hi and a whole grid >= 2."""
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise InvalidArgumentError("t_lo and t_hi must be finite")
    if not (0.0 < t_lo < t_hi):
        raise InvalidArgumentError("need 0 < t_lo < t_hi")
    check_whole("grid", grid, 2)


def y_zeros(beta, t_lo, t_hi, grid):
    """Ascending zeros of y(beta, .) strictly inside (t_lo, t_hi).

    y is 2pi-periodic, so this is the base-period column (``_column``,
    whose zeros past pi mirror those below), shifted by 2pi j and filtered
    to the window.  Its knot spacing is that of ``grid`` uniform points on
    the window, or on one period when the window is shorter: y is monotone
    on each piece, so finer knots would only narrow the bracket that Newton
    starts from, while the column, which covers the whole period, would
    grow without bound as the window narrows.  Tangential lattice zeros
    at t = 2 pi j, where y vanishes by symmetry without a crossing, are not
    reported.  A window that is not finite, or a grid that is not a whole
    number of at least 2, raises InvalidArgumentError (``_check_window``).
    """
    _check_window(t_lo, t_hi, grid)
    column = _column(beta, TWO_PI * (int(grid) - 1)
                     / max(t_hi - t_lo, TWO_PI))
    return [t + TWO_PI * j
            for j in range(int(t_lo // TWO_PI), int(t_hi // TWO_PI) + 1)
            for t, _, _, _ in column.values()
            if t_lo < t + TWO_PI * j < t_hi]


# ---------------------------------------------------------------------------
# the beta0 construction
# ---------------------------------------------------------------------------

def curve_F(beta):
    """x at the unique y-zero on the shifted branch (pi(3-2/beta), 3pi).

    Defined for beta in [4, 5] (small slack tolerated); the zero is
    located on the piece m = -1 of y, (pi(1-2/beta), pi), where y falls
    from positive to negative, and the value is x there plus 2 pi.
    """
    if not (4.0 - 1e-9 <= beta <= 5.0 + 1e-9):
        raise InvalidArgumentError("curve_F is defined for beta in [4, 5]")
    found = _zero_in_window(beta, -1)
    if found is None:
        raise BracketError(
            f"no y sign change on the branch interval for beta={beta}")
    return found[3].real + TWO_PI


def find_beta0():
    """The smallest pathological order, to ``_TOL_BETA`` = 1e-10 in beta.

    beta0 is the sign change of ``curve_F`` on [4, 5]: the k = 1 crossing
    of the zero on the piece m = -1 of y, (pi(1-2/beta), pi), located by
    ``_bisect_crossing``.  Returns the ZeroRecord of (beta0, t0) with
    z(beta0, t0) = 0 and t0 on the once-shifted branch (between 2pi and
    3pi).
    """
    ends = [_zero_in_window(beta, -1) for beta in (4.0, 5.0)]
    if None in ends:
        raise BracketError(
            "no y sign change on the branch interval for beta=4 or 5")
    (t4, _, _, z4), (t5, _, _, z5) = ends
    f4, f5 = z4.real + TWO_PI, z5.real + TWO_PI
    if not (f4 > 0.0 > f5):
        raise BracketError(
            f"expected F(4) > 0 > F(5), got F(4)={f4:.6f}, F(5)={f5:.6f}")
    rec = _bisect_crossing(4.0, 5.0, f4, f5, t4, t5, -1, 1)
    if rec is None:
        raise BracketError(
            "the piece (pi(1-2/beta), pi) lost its y sign change")
    if not (4.0 < rec.beta_k < 5.0):
        raise BracketError(f"beta0={rec.beta_k} escaped (4, 5)")
    if not (math.pi * (3.0 - 2.0 / rec.beta_k) < rec.t_k < 3.0 * math.pi):
        raise BracketError(f"t0={rec.t_k} escaped the branch interval")
    return rec


# ---------------------------------------------------------------------------
# generic scan
# ---------------------------------------------------------------------------

def _column(beta, t_grid):
    """The refined y-zero on every monotone piece of the base period.

    Each piece P_m below pi, m < 0, gets uniform knots, its ends included,
    at a spacing of at most 2pi / t_grid; a piece past pi takes the mirror
    of its partner's zero (``_piece_zeros``).  Returns {m: (t, x, t_lo,
    t_hi)}, ascending in m and so in t, for the pieces where y changes
    sign; [t_lo, t_hi] is the sign bracket that held t.
    """
    knots = {}
    for m in range(-math.ceil(check_beta(beta) / 2.0), 0):
        lo, hi = _piece_bounds(beta, m)
        knots[m] = np.linspace(lo, hi,
                               math.ceil((hi - lo) * t_grid / TWO_PI) + 1)
    return {m: (t, z.real, t_lo, t_hi) for m, (t, t_lo, t_hi, z)
            in sorted(_piece_zeros(beta, knots).items())}


def _zero_in_window(beta, m):
    """The zero of y(beta, .) on its monotone piece P_m.

    The piece below pi, P_m or its mirror P_(-m-1) (``_piece_bounds``),
    gets ``_PIECE_KNOTS`` uniform knots, which narrow its one bracket
    before the Newton refinement.  Returns the ``_bisect_y`` tuple, or
    None when y has no sign change on the piece.
    """
    below = min(m, -m - 1)
    knots = np.linspace(*_piece_bounds(beta, below), _PIECE_KNOTS)
    return _piece_zeros(beta, {below: knots}).get(m)


def scan_zero_set(beta_max, t_max, beta_grid=120, t_grid=512, *,
                  beta_min=0.0):
    """Locate the zeros of z with beta in (beta_min, beta_max] and t in
    (2pi, t_max].

    The beta columns are beta_min + i * step, step = (beta_max -
    beta_min) / beta_grid, for i = 0..beta_grid, so the first column
    sits at beta_min itself.  ``beta_grid`` and ``t_grid`` must be whole
    numbers of at least 2 (InvalidArgumentError otherwise): a fractional
    beta_grid would end the columns short of beta_max.  At beta_min = 0
    they start at i = 1 (beta = step), because z is undefined at
    beta = 0; a zero with beta in (0, step) is then not found (there is
    none below beta0 ~ 4.84).

    A branch is a monotone piece P_m of y (see the module docstring), so
    the zeros of adjacent columns are paired by their piece index m.
    Each column (``_column``) refines the y-zero of every piece from
    knots at a spacing of at most 2pi / t_grid; ``t_grid`` sets only this
    column grid.  Each sign change of x + 2pi*k between a pair (for every
    shift index k >= 1 that keeps t = t_zero + 2pi*k inside the window
    and lies between -x/2pi at the pair's two zeros) is closed in beta on
    its piece by ``_bisect_crossing`` to a ZeroRecord, to ``_TOL_BETA`` =
    1e-10 in beta.  A branch ends where its
    piece loses its sign change of y; a crossing search that meets such
    an end is dropped with a log note.

    Only the shifted copies are tracked: the reported family lives
    strictly above the base period (t_k > 2pi).  The zeros of z in the
    base period itself (k = 0), the first at beta ~ 8.0402, t ~ 4.5191,
    are outside the scan's scope (``verify_nonvanishing`` probes the base
    period directly).  Records are sorted by (beta_k, t_k); when the window
    contains it, the first record is beta0, the crossing that
    ``find_beta0`` locates with the same search.  Every sign of y is read
    by ``_y_signs``, so no zero is read out of rounding noise near 0 or 2pi.
    """
    if not all(map(math.isfinite, (beta_max, beta_min, t_max))):
        raise InvalidArgumentError(
            "beta_max, beta_min and t_max must be finite")
    if not (beta_max > beta_min >= 0.0):
        raise InvalidArgumentError("need beta_max > beta_min >= 0")
    if t_max <= 0.0:
        raise InvalidArgumentError("t_max must be positive")
    check_whole("beta_grid", beta_grid, 2)
    check_whole("t_grid", t_grid, 2)

    step = (beta_max - beta_min) / beta_grid
    first = 0 if beta_min > 0.0 else 1
    betas = [beta_min + step * i for i in range(first, int(beta_grid) + 1)]
    columns = [_column(b, t_grid) for b in betas]

    records = []
    for i in range(len(betas) - 1):
        ba, bb = betas[i], betas[i + 1]
        col_a, col_b = columns[i], columns[i + 1]
        for m in sorted(col_a.keys() & col_b.keys()):
            (ta, xa, _, _), (tb, xb, _, _) = col_a[m], col_b[m]
            # x + 2pi k changes sign only for k between -xa/2pi and
            # -xb/2pi; one k of slack at each end covers the rounding
            k_max = int(math.floor((t_max - max(ta, tb)) / TWO_PI))
            k_lo = max(1, math.floor(-max(xa, xb) / TWO_PI))
            k_hi = min(k_max, math.ceil(-min(xa, xb) / TWO_PI))
            for k in range(k_lo, k_hi + 1):
                ga, gb = xa + TWO_PI * k, xb + TWO_PI * k
                if ga == 0.0 or gb == 0.0 or (ga > 0.0) == (gb > 0.0):
                    continue
                rec = _bisect_crossing(ba, bb, ga, gb, ta, tb, m, k)
                if rec is not None:
                    records.append(rec)
    log.debug("scan window beta<=%s t<=%s: %d records",
              beta_max, t_max, len(records))
    records.sort(key=lambda r: (r.beta_k, r.t_k))
    return records


def _bisect_crossing(b_lo, b_hi, g_lo, g_hi, t_a, t_b, m, k):
    """Locate the beta crossing of g = x(zero on piece m) + 2 pi k on
    [b_lo, b_hi].

    g_lo and g_hi have opposite signs, and t_a and t_b are the zeros of y
    on P_m at b_lo and b_hi.  The crossing is a zero of
    F(beta, t) = z(beta, t) + 2 pi k with t on P_m, which
    ``_newton_crossing`` finds by Newton steps in (beta, t).  Where
    Newton leaves the cell or the piece, does not converge, or its record
    bracket reads no sign change of g, the cell is split: the zero of y
    at its midpoint beta (``_zero_in_window``) gives g there, and Newton
    reruns on the half where g changes sign, from that half's pair of
    zeros.  A midpoint where g is exactly 0 is moved _TOL_BETA/4, so that
    both ends of every cell keep a strict sign.  A cell no wider than
    _TOL_BETA is the record's bracket, with the zero at its midpoint.
    Returns the ZeroRecord, whose beta bracket has a width <= _TOL_BETA,
    holds a strict sign change of g and has beta_k at its midpoint, or
    None when the piece loses its sign change of y (the branch ends).
    """
    while True:
        rec = _newton_crossing(b_lo, b_hi, g_lo, g_hi, t_a, t_b, m, k)
        if rec is not None:
            return rec
        beta = 0.5 * (b_lo + b_hi)
        narrow = b_hi - b_lo <= _TOL_BETA
        found = _zero_in_window(beta, m)
        if (found is not None and not narrow
                and found[3].real + TWO_PI * k == 0.0):
            beta += 0.25 * _TOL_BETA
            found = _zero_in_window(beta, m)
        if found is None:
            log.debug("branch lost at beta=%s on piece %d", beta, m)
            return None
        t, t_lo, t_hi, z = found
        if narrow:
            return _record(b_lo, b_hi, t, t_lo, t_hi, k)
        g = z.real + TWO_PI * k
        if (g > 0.0) == (g_lo > 0.0):
            b_lo, g_lo, t_a = beta, g, t
        else:
            b_hi, g_hi, t_b = beta, g, t


def _newton_crossing(b_lo, b_hi, g_lo, g_hi, t_a, t_b, m, k):
    """Newton steps on F(beta, t) = z(beta, t) + 2 pi k, two real
    equations in two unknowns, from the linear interpolation of the
    column pair's zeros (b_lo, t_a) and (b_hi, t_b) at the false-position
    beta of g.

    The Jacobian is (d z / d beta, d z / d t): the first by quadrature
    on the z table's panels from the head of t (``kernel._z_dbeta``), a
    value of (beta, t) alone, the second in closed form
    (``kernel.xy_prime``).  Each step evaluates z at one point with its
    noise floor (``z_many``); once |F| is at that floor (``_stop_floor``)
    the step from that point is the last one.  Every iterate must stay
    inside the cell (b_lo, b_hi) and its t inside P_m; returns None when
    one leaves, or when ``_NEWTON_STEPS`` steps do not reach the floor.
    Otherwise returns ``_crossing_record`` at the final point.
    """
    def inside(beta, t):
        p_lo, p_hi = _piece_bounds(beta, m)
        return b_lo < beta < b_hi and p_lo < t < p_hi

    beta = b_lo - g_lo * (b_hi - b_lo) / (g_hi - g_lo)
    t = t_a + (t_b - t_a) * (beta - b_lo) / (b_hi - b_lo)
    for _ in range(_NEWTON_STEPS):
        if not inside(beta, t):
            return None
        zs, ns = z_many(beta, [t], with_noise=True)
        f, noise = complex(zs[0]) + TWO_PI * k, float(ns[0])
        dx, dy = xy_prime(beta, t)
        d_t, d_beta = complex(dx, dy), _z_dbeta(beta, t)
        det = (d_beta.conjugate() * d_t).imag
        if det == 0.0:
            return None
        beta -= (f.conjugate() * d_t).imag / det
        t -= (d_beta.conjugate() * f).imag / det
        if abs(f) <= _stop_floor(noise):
            if not inside(beta, t):
                return None
            return _crossing_record(beta, t, k)
    return None


def _g_near(beta, t, k):
    """(g, t + dt): g = x + 2pi k at the zero of y near t, from one z
    evaluation at (beta, t) and a first-order step dt = -y/y' to that
    zero, g = x + x' dt + 2pi k."""
    z = complex(z_many(beta, [t])[0])
    dx, dy = xy_prime(beta, t)
    dt = -z.imag / dy
    return z.real + dx * dt + TWO_PI * k, t + dt


def _crossing_record(beta, t, k):
    """The ZeroRecord of a crossing found at (beta, t), t in the base
    period, or None when g has no strict sign change across its beta
    bracket.

    The bracket is beta +- 0.49 _TOL_BETA, so that the rounding of its ends
    cannot widen it past _TOL_BETA (for beta below 9000; z overflows from
    about beta = 1024 on).  g at each end is read from one z
    evaluation (``_g_near``).  The t bracket spans t and the two ends'
    zeros of y.
    """
    half = 0.49 * _TOL_BETA
    b_lo, b_hi = beta - half, beta + half
    (g_lo, t_lo), (g_hi, t_hi) = (_g_near(b, t, k) for b in (b_lo, b_hi))
    if not g_lo * g_hi < 0.0:
        return None
    return _record(b_lo, b_hi, t, min(t, t_lo, t_hi), max(t, t_lo, t_hi), k)


def _record(b_lo, b_hi, t, t_lo, t_hi, k):
    """The ZeroRecord of the crossing bracketed by (b_lo, b_hi) in beta and
    (t_lo, t_hi) in the base period: beta_k is the bracket's midpoint, t
    the zero of y there, and every t is shifted by 2pi k."""
    beta_k = 0.5 * (b_lo + b_hi)
    t_k = _shift(t, k)
    residual = abs(z_eval(beta_k, t_k))
    return ZeroRecord(beta_k=beta_k, t_k=t_k, residual=residual,
                      bracket=(b_lo, b_hi, _shift(t_lo, k), _shift(t_hi, k)),
                      branch_index=k)


def verify_nonvanishing(beta, t_lo, t_hi, grid):
    """Minimum of |z(beta, .)| over ``grid`` uniform points of the window
    (shift-reduced); the window and grid are checked as in ``y_zeros``."""
    _check_window(t_lo, t_hi, grid)
    ts = np.linspace(t_lo, t_hi, int(grid))
    return float(np.min(np.abs(z_many(beta, ts))))


# ---------------------------------------------------------------------------
# registry persistence
# ---------------------------------------------------------------------------

def registry_payload(records):
    return [
        {
            "beta": r.beta_k,
            "t": r.t_k,
            "residual": r.residual,
            "branch": r.branch_index,
            "bracket": list(r.bracket),
        }
        for r in records
    ]


def write_registry(fh, records):
    """Serialise records as a sorted-keys JSON array (deterministic)."""
    json.dump(registry_payload(records), fh, sort_keys=True, indent=2,
              ensure_ascii=False)
    fh.write("\n")


def read_registry(fh):
    """Inverse of ``write_registry``; anything but an array of records of
    ``registry_payload``'s form raises InvalidArgumentError."""
    data = json.load(fh)
    if not isinstance(data, list):
        raise InvalidArgumentError("a registry is a JSON array of records")
    out = []
    for i, d in enumerate(data):
        try:
            rec = ZeroRecord(beta_k=float(d["beta"]), t_k=float(d["t"]),
                             residual=float(d["residual"]),
                             bracket=tuple(float(x) for x in d["bracket"]),
                             branch_index=d["branch"])
            ok = (len(d) == 5 and len(rec.bracket) == 4
                  and type(rec.branch_index) is int)
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            raise InvalidArgumentError(f"registry record {i}: {d!r}")
        out.append(rec)
    return out

"""Zero set of the kernel curve z(beta, t).

For fixed beta the imaginary part y is 2pi-periodic (y(t + 2pi) = y(t)),
while the real part x gains exactly 2pi per period.  A zero of z at
t = t0 + 2pi*k with t0 in the base period therefore needs

    y(t0) = 0   and   x(t0) = -2pi*k.

The scan tracks the y-zero branches on the base period along beta,
watches x + 2pi*k for sign changes on every branch and admissible shift
index k >= 1, and closes each crossing in beta (``_bisect_crossing``).
The smallest pathological order beta0 ~ 4.84 is the k = 1 crossing of
the branch on (pi(1 - 2/beta), pi) for beta in [4, 5]; ``find_beta0``
runs the same crossing search there.

Every y-zero is found the same way: ``_brackets`` evaluates y at a set of
knots, brackets its sign changes and splits each bracket at the interior
extrema of y, so that y is monotone on every piece; ``_bisect_y`` then
refines the piece.  Both root-finders are safeguarded, so that each
keeps a sign bracket that only shrinks:

* in t, Newton steps with the closed-form y' (``kernel.xy_prime``) from
  the false-position point of the piece.  A step that would leave the
  current sign bracket, or a point where y' = 0 (a piece may end at an
  extremum of y), takes the bracket's midpoint instead.  A piece takes
  about 4 evaluations of z.
* in beta, where g(beta) = x(t*(beta)) + 2pi*k is smooth, Illinois regula
  falsi, with each iterate held tol_beta/2 inside the bracket and a
  bisection step whenever the bracket has not halved within three steps.
  A crossing takes 6-9 steps.  Near beta = 40, where g is not smooth
  at the scale of its rounding noise, the fallback still halves the
  bracket at least every fourth step.

Refinement evaluates z incrementally from an anchored value at the
bracket's left knot (``kernel.z_span``), so each step integrates a short
span instead of the whole [0, t] range.

Every sign of y is read by one rule (``_y_signs``): y has a sign only
where |y| exceeds ``_SIGN_NOISE`` times the cancellation floor that
``z_many(..., with_noise=True)`` returns for the point.  Points without a
sign are dropped, and sign changes are bracketed between consecutive
points that have one.  Near the lattice t = 0, 2pi, y is smaller than its
own rounding noise; a sign read there would add a false zero that depends
on the rounding of the quadrature and on the grid.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InvalidArgumentError
from .kernel import TWO_PI, QuadConfig, xy_prime, z_eval, z_many, z_span

log = logging.getLogger(__name__)

#: absolute target for |y| at a refined zero; widened by the cancellation
#: floor of the evaluation when beta is large (amplitudes grow like 2^beta,
#: so absolute accuracy below eps * 2^beta-scale mass is not representable).
_Y_TARGET = 1e-12

_EPS = float(np.finfo(float).eps)

_TIGHT = QuadConfig(abs_tol=1e-12, max_subdiv=4000)

#: y carries a sign only where |y| exceeds this multiple of its noise floor
_SIGN_NOISE = 4.0


@dataclass(frozen=True)
class ZeroRecord:
    """One located zero (beta_k, t_k) of z, with refinement provenance."""
    beta_k: float
    t_k: float
    residual: float
    bracket: tuple[float, float, float, float]  # (beta_lo, beta_hi, t_lo, t_hi)
    branch_index: int


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


def _eval_z(beta, t, anchor=None):
    """z and its accuracy floor at one point, incrementally when anchored.

    ``anchor`` is (t_a, z_a, noise_a) with t_a <= t, both inside the base
    period; the evaluation then integrates only [t_a, t].
    """
    if anchor is not None:
        t_a, z_a, n_a = anchor
        val, mass = z_span(beta, t_a, t)
        return z_a + val, n_a + 8.0 * _EPS * mass
    zs, ns = z_many(beta, [t], with_noise=True)
    return complex(zs[0]), float(ns[0])


def _extrema_points(beta, lo, hi):
    """Points in (lo, hi) where y' vanishes: the lattice t = 2pi j and
    t = 2pi j + pi(1 + 2m/beta) with |m| < beta/2."""
    pts = []
    j_lo = int(math.floor(lo / TWO_PI)) - 1
    j_hi = int(math.ceil(hi / TWO_PI)) + 1
    m_max = int(math.ceil(beta / 2.0)) - 1
    for j in range(j_lo, j_hi + 1):
        base = TWO_PI * j
        if lo < base < hi:
            pts.append(base)
        for m in range(-m_max, m_max + 1):
            t = base + math.pi * (1.0 + 2.0 * m / beta)
            if lo < t < hi:
                pts.append(t)
    return sorted(pts)


def _brackets(beta, knots):
    """Sign-change brackets of y between the knots, on which y is monotone.

    Evaluates y at the ascending ``knots``, brackets its sign changes
    between consecutive signed knots and splits each bracket at the
    interior extrema of y.  An extremum whose y has no sign (a tangential
    touch within noise, e.g. at the lattice) is skipped, so the piece
    across it spans two monotone parts.  Yields
    (t_lo, t_hi, y_lo, y_hi, anchor), where anchor = (t, z, noise) at the
    bracket's left knot.
    """
    knots = np.asarray(knots, dtype=float)
    zs, ns = z_many(beta, knots, with_noise=True)
    ys = zs.imag
    for i, j in _sign_brackets(ys, ns):
        lo, hi = float(knots[i]), float(knots[j])
        anchor = (lo, complex(zs[i]), float(ns[i]))
        pts = _extrema_points(beta, lo, hi)
        if not pts:
            yield lo, hi, float(ys[i]), float(ys[j]), anchor
            continue
        pz, pn = z_many(beta, pts, with_noise=True)
        sub = [lo] + pts + [hi]
        vals = [float(ys[i])] + [float(v) for v in pz.imag] + [float(ys[j])]
        noise = [0.0] + [float(v) for v in pn] + [0.0]
        for a, b in _sign_brackets(vals, noise):
            yield sub[a], sub[b], vals[a], vals[b], anchor


def _bisect_y(beta, lo, hi, ylo, yhi, anchor=None):
    """Refine a sign-change bracket of y by safeguarded Newton steps.

    The first point is the false-position point of the bracket; each next
    one is the Newton step t - y/y', with y' in closed form
    (``kernel.xy_prime``, no quadrature).  Every evaluated y narrows the
    sign bracket, and a step that would leave it, or a point where
    y' = 0, is replaced by the bracket's midpoint.  Stops when |y| is at
    the noise floor (``_stop_floor``) or the bracket at the rounding
    width.  The name stays ``_bisect_y`` although the steps are Newton
    steps, because the benchmark's per-layer spans bind it by name.

    Returns (t, t_lo, t_hi, z_at_t, noise_at_t), where [t_lo, t_hi] is the
    sign bracket that held t when it was evaluated.
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
            return t, lo, hi, z, noise
        if (y > 0.0) == lo_positive:
            lo = t
        else:
            hi = t
        dy = xy_prime(beta, t)[1]
        t = t - y / dy if dy != 0.0 else lo
        if not (lo < t < hi):
            t = 0.5 * (lo + hi)
    z, noise = _eval_z(beta, t, anchor)
    return t, lo, hi, z, noise


def y_zeros(beta, t_lo, t_hi, grid):
    """Ascending zeros of y(beta, .) strictly inside (t_lo, t_hi).

    Brackets the sign changes on ``grid`` uniform points (``_brackets``)
    and refines each monotone piece.  Tangential lattice zeros at
    t = 2 pi j, where y vanishes by symmetry without a crossing, are not
    reported.  The window may cross t = 2pi, so the pieces are refined
    without an anchor.
    """
    if not (0.0 < t_lo < t_hi):
        raise InvalidArgumentError("need 0 < t_lo < t_hi")
    if grid < 2:
        raise InvalidArgumentError("grid must be at least 2")
    ts = np.linspace(t_lo, t_hi, int(grid))
    out = sorted(_bisect_y(beta, a, b, va, vb)[0]
                 for a, b, va, vb, _ in _brackets(beta, ts))
    dedup = []
    for t in out:
        if not dedup or t - dedup[-1] > 1e-10 * max(1.0, t):
            dedup.append(t)
    return dedup


# ---------------------------------------------------------------------------
# the beta0 construction
# ---------------------------------------------------------------------------

def curve_F(beta):
    """x at the unique y-zero on the shifted branch (pi(3-2/beta), 3pi).

    Defined for beta in [4, 5] (small slack tolerated); the zero is
    located on the base branch (pi(1-2/beta), pi), where y falls from
    positive to negative, and the value is x there plus 2 pi.
    """
    if not (4.0 - 1e-9 <= beta <= 5.0 + 1e-9):
        raise InvalidArgumentError("curve_F is defined for beta in [4, 5]")
    found = _zero_in_window(beta, math.pi * (1.0 - 2.0 / beta) + 1e-9,
                            math.pi, math.pi)
    if found is None:
        raise BracketError(
            f"no y sign change on the branch interval for beta={beta}")
    return found[3].real + TWO_PI


def find_beta0(tol_beta=1e-10):
    """The smallest pathological order, to ``tol_beta`` in beta.

    beta0 is the sign change of ``curve_F`` on [4, 5]: the k = 1 crossing
    of the base branch, located by ``_bisect_crossing`` in the t window
    [pi/2, pi], which holds the branch (pi(1-2/beta), pi) for every beta in
    [4, 5].  Returns the ZeroRecord of (beta0, t0) with z(beta0, t0) = 0
    and t0 on the once-shifted branch (between 2pi and 3pi).
    """
    f4 = curve_F(4.0)
    f5 = curve_F(5.0)
    if not (f4 > 0.0 > f5):
        raise BracketError(
            f"expected F(4) > 0 > F(5), got F(4)={f4:.6f}, F(5)={f5:.6f}")
    rec = _bisect_crossing(4.0, 5.0, f4, f5, 0.5 * math.pi, math.pi, math.pi,
                           1, tol_beta)
    if rec is None:
        raise BracketError("the base branch left the window [pi/2, pi]")
    if not (4.0 < rec.beta_k < 5.0):
        raise BracketError(f"beta0={rec.beta_k} escaped (4, 5)")
    if not (math.pi * (3.0 - 2.0 / rec.beta_k) < rec.t_k < 3.0 * math.pi):
        raise BracketError(f"t0={rec.t_k} escaped the branch interval")
    return rec


# ---------------------------------------------------------------------------
# generic scan
# ---------------------------------------------------------------------------

def _column(beta, t_grid):
    """Refined y-zeros on the base period with their x values.

    Returns a list of (t, x, t_lo, t_hi), ascending in t.
    """
    pad = TWO_PI / t_grid
    ts = np.linspace(pad, TWO_PI - pad, int(t_grid))
    out = []
    for a, b, va, vb, anchor in _brackets(beta, ts):
        t, tl, th, z_t, _ = _bisect_y(beta, a, b, va, vb, anchor)
        out.append((t, z_t.real, tl, th))
    out.sort()
    return out


def _match_columns(col_a, col_b):
    """Greedy nearest-neighbour pairing of zeros between adjacent columns."""
    if not col_a or not col_b:
        return []
    gaps = [b[0] - a[0] for a, b in zip(col_a, col_a[1:])]
    gaps += [b[0] - a[0] for a, b in zip(col_b, col_b[1:])]
    tol = 0.45 * min(gaps) if gaps else math.inf
    cand = sorted(
        (abs(za[0] - zb[0]), ia, ib)
        for ia, za in enumerate(col_a) for ib, zb in enumerate(col_b))
    used_a, used_b, pairs = set(), set(), []
    for d, ia, ib in cand:
        if d > tol or ia in used_a or ib in used_b:
            continue
        used_a.add(ia)
        used_b.add(ib)
        pairs.append((ia, ib))
    return pairs


def _zero_in_window(beta, w_lo, w_hi, t_hint):
    """Locate the branch's y-zero inside a t window at a new beta.

    Brackets the window at its ends and monotonicity knots and refines the
    bracket nearest to the hint.  Returns the ``_bisect_y`` tuple, or None
    when the branch has no crossing there.
    """
    knots = [w_lo] + _extrema_points(beta, w_lo, w_hi) + [w_hi]
    best = min(_brackets(beta, knots), default=None,
               key=lambda br: abs(0.5 * (br[0] + br[1]) - t_hint))
    if best is None:
        return None
    return _bisect_y(beta, *best)


def scan_zero_set(beta_max, t_max, beta_grid=120, t_grid=512, *,
                  beta_min=0.0, tol_beta=1e-10):
    """Locate all zeros of z with beta in (beta_min, beta_max], t in (0, t_max].

    The beta columns are beta_min + i * step, step = (beta_max -
    beta_min) / beta_grid, for i = 0..beta_grid, so the first column
    sits at beta_min itself.  At beta_min = 0 they start at i = 1
    (beta = step), because z is undefined at beta = 0; a zero with beta
    in (0, step) is then not found (there is none below beta0 ~ 4.84).
    For each column the y-zero branches on the base period are refined
    together with x there; sign changes of x + 2pi*k between adjacent
    columns (for every shift index k >= 1 that keeps t = t_zero + 2pi*k
    inside the window) are closed in beta by ``_bisect_crossing`` to
    ZeroRecords.  Only the shifted copies
    are tracked — the reported family lives strictly above the base
    period (t_k > 2pi); roots of x itself on the base period, which
    appear for beta around 14 and beyond, are outside the scan's scope
    (``verify_nonvanishing`` probes the base period directly).  Branches
    that exit the window are dropped with a log note.  Records are
    sorted by (beta_k, t_k); when the window contains it, the first
    record is beta0, the crossing that ``find_beta0`` locates with the
    same search.

    The column grid and the window knots are bracketed by one routine
    (``_brackets``): y counts as signed only where |y| exceeds
    ``_SIGN_NOISE`` (4) times the noise floor of its evaluation, and zeros
    are bracketed between consecutive signed points.  So no zero is read
    out of rounding noise near t = 2pi, and the columns do not depend on
    how the quadrature rounds.
    """
    if not (beta_max > beta_min >= 0.0):
        raise InvalidArgumentError("need beta_max > beta_min >= 0")
    if t_max <= 0.0:
        raise InvalidArgumentError("t_max must be positive")
    if beta_grid < 2 or t_grid < 2:
        raise InvalidArgumentError("grids must be at least 2")

    step = (beta_max - beta_min) / beta_grid
    first = 0 if beta_min > 0.0 else 1
    betas = [beta_min + step * i for i in range(first, int(beta_grid) + 1)]
    columns = [_column(b, t_grid) for b in betas]

    records = []
    for i in range(len(betas) - 1):
        ba, bb = betas[i], betas[i + 1]
        col_a, col_b = columns[i], columns[i + 1]
        for ia, ib in _match_columns(col_a, col_b):
            ta, xa = col_a[ia][0], col_a[ia][1]
            tb, xb = col_b[ib][0], col_b[ib][1]
            pad = 4.0 * TWO_PI / t_grid + 2.0 * abs(tb - ta)
            w_lo = max(min(ta, tb) - pad, 1e-6)
            w_hi = min(max(ta, tb) + pad, TWO_PI - 1e-9)
            k_max = int(math.floor((t_max - max(ta, tb)) / TWO_PI))
            for k in range(1, k_max + 1):
                ga, gb = xa + TWO_PI * k, xb + TWO_PI * k
                if ga == 0.0 or gb == 0.0 or (ga > 0.0) == (gb > 0.0):
                    continue
                rec = _bisect_crossing(ba, bb, ga, gb, w_lo, w_hi,
                                       0.5 * (ta + tb), k, tol_beta)
                if rec is not None:
                    records.append(rec)
    # branches whose shifted copies leave the window are simply not tracked
    # further; note the truncation once per scan for transparency
    log.debug("scan window beta<=%s t<=%s: %d raw records",
              beta_max, t_max, len(records))

    records.sort(key=lambda r: (r.beta_k, r.t_k))
    dedup = []
    for r in records:
        if dedup and abs(r.beta_k - dedup[-1].beta_k) < 1e-8 \
                and abs(r.t_k - dedup[-1].t_k) < 1e-6:
            continue
        dedup.append(r)
    return dedup


def _bisect_crossing(b_lo, b_hi, g_lo, g_hi, w_lo, w_hi, t_hint, k,
                     tol_beta):
    """Locate the beta crossing of g = x(branch zero) + 2 pi k on [b_lo, b_hi].

    g is smooth in beta, so the bracket [b_lo, b_hi] (g_lo and g_hi of
    opposite signs) is closed by Illinois regula falsi: the next beta is
    the false-position point, and the g of an end that two steps in a row
    leave in place is halved.  Each iterate is clamped at least
    tol_beta/2 inside the bracket, so that the step after one that lands
    next to the crossing lands across it and the bracket closes to width
    <= tol_beta; a bracket that has not halved within three steps is
    bisected once.  The name stays ``_bisect_crossing`` because the
    benchmark's per-layer spans bind it by name.  Returns the
    ZeroRecord at the bracket's midpoint, or None when the branch leaves
    the t window [w_lo, w_hi].
    """
    hint = t_hint
    lo_positive = g_lo > 0.0
    moved = 0  # the end the last step replaced: -1 low, +1 high
    halved_at, stalls = b_hi - b_lo, 0
    while b_hi - b_lo > tol_beta:
        if stalls < 3:
            beta = b_lo - g_lo * (b_hi - b_lo) / (g_hi - g_lo)
        else:
            beta = 0.5 * (b_lo + b_hi)
        beta = min(max(beta, b_lo + 0.5 * tol_beta), b_hi - 0.5 * tol_beta)
        found = _zero_in_window(beta, w_lo, w_hi, hint)
        if found is None:
            log.debug("branch lost at beta=%s in (%s, %s)", beta, w_lo, w_hi)
            return None
        hint = found[0]
        g = found[3].real + TWO_PI * k
        if (g > 0.0) == lo_positive:
            if moved < 0:
                g_hi *= 0.5
            b_lo, g_lo, moved = beta, g, -1
        else:
            if moved > 0:
                g_lo *= 0.5
            b_hi, g_hi, moved = beta, g, 1
        if b_hi - b_lo <= 0.5 * halved_at:
            halved_at, stalls = b_hi - b_lo, 0
        else:
            stalls += 1
    beta_k = 0.5 * (b_lo + b_hi)
    found = _zero_in_window(beta_k, w_lo, w_hi, hint)
    if found is None:
        return None
    t_base, t_l, t_h, _, _ = found
    t_k = t_base + TWO_PI * k
    residual = abs(z_eval(beta_k, t_k, _TIGHT))
    return ZeroRecord(beta_k=beta_k, t_k=t_k, residual=residual,
                      bracket=(b_lo, b_hi, t_l + TWO_PI * k, t_h + TWO_PI * k),
                      branch_index=k)


def verify_nonvanishing(beta, t_lo, t_hi, grid):
    """Minimum of |z(beta, .)| over a uniform grid (shift-reduced)."""
    if not (0.0 < t_lo < t_hi):
        raise InvalidArgumentError("need 0 < t_lo < t_hi")
    if grid < 2:
        raise InvalidArgumentError("grid must be at least 2")
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
    """Inverse of ``write_registry``."""
    data = json.load(fh)
    return [
        ZeroRecord(beta_k=d["beta"], t_k=d["t"], residual=d["residual"],
                   bracket=tuple(d["bracket"]), branch_index=d["branch"])
        for d in data
    ]

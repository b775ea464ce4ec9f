"""Zero set of the kernel curve z(beta, t).

For fixed beta the imaginary part y is 2pi-periodic (y(t + 2pi) = y(t)),
while the real part x gains exactly 2pi per period.  A zero of z at
t = t0 + 2pi*k with t0 in the base period therefore needs

    y(t0) = 0   and   x(t0) = -2pi*k.

The scan tracks the y-zero branches on the base period along beta,
watches x + 2pi*k for sign changes on every branch and admissible shift
index k >= 1, and bisects each crossing in beta.  The first crossing
(branch shifted once, beta between 4 and 5) is the classical smallest
pathological order beta0 ~ 4.85, located directly by ``find_beta0``.

Bisection is used throughout: the monotonicity structure supplies sign
information, and derivative-based iterations misbehave near branch
endpoints where y' vanishes.  Refinement evaluates z incrementally from
an anchored value at the bracket edge (``kernel.z_span``), so each step
integrates a short span instead of the whole [0, t] range.

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
from .kernel import TWO_PI, QuadConfig, z_eval, z_many, z_span

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


def _eval_z(beta, t, cfg=None, anchor=None):
    """z and its accuracy floor at one point, incrementally when anchored.

    ``anchor`` is (t_a, z_a, noise_a) with t_a <= t, both inside the base
    period; the evaluation then integrates only [t_a, t].
    """
    if anchor is not None:
        t_a, z_a, n_a = anchor
        val, mass = z_span(beta, t_a, t, cfg)
        return z_a + val, n_a + 8.0 * _EPS * mass
    zs, ns = z_many(beta, [t], cfg, with_noise=True)
    return complex(zs[0]), float(ns[0])


def _extrema_points(beta, lo, hi):
    """Points in (lo, hi) where y' vanishes: t = pi(1 + 2m/beta) mod shifts,
    plus the lattice t = 2pi j."""
    pts = []
    j_lo = int(math.floor(lo / TWO_PI)) - 1
    j_hi = int(math.ceil(hi / TWO_PI)) + 1
    m_lo = int(math.floor(-beta / 2.0)) - 1
    m_hi = int(math.ceil(beta / 2.0)) + 1
    for j in range(j_lo, j_hi + 1):
        base = TWO_PI * j
        if lo < base < hi:
            pts.append(base)
        for m in range(m_lo, m_hi + 1):
            t = base + math.pi * (1.0 + 2.0 * m / beta)
            if lo < t < hi:
                pts.append(t)
    return sorted(pts)


def _bisect_y(beta, lo, hi, ylo, yhi, cfg=None, anchor=None):
    """Refine a sign-change bracket of y.

    Returns (t, t_lo, t_hi, z_at_t, noise_at_t).
    """
    width_floor = 64.0 * _EPS * max(1.0, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        zm, noise = _eval_z(beta, mid, cfg, anchor)
        ym = zm.imag
        if abs(ym) <= _stop_floor(noise) or (hi - lo) <= width_floor:
            return mid, lo, hi, zm, noise
        if (ym > 0.0) == (ylo > 0.0):
            lo, ylo = mid, ym
        else:
            hi, yhi = mid, ym
    mid = 0.5 * (lo + hi)
    zm, noise = _eval_z(beta, mid, cfg, anchor)
    return mid, lo, hi, zm, noise


def _subdivide_bracket(beta, lo, hi, ylo, yhi, cfg=None):
    """Split a bracket at interior extrema of y; yield sub-brackets that
    still change sign.

    The ends are signed already.  An extremum whose y has no sign (a
    tangential touch within noise, e.g. at the lattice) is skipped, so the
    sub-bracket across it spans two monotone pieces.
    """
    pts = _extrema_points(beta, lo, hi)
    if not pts:
        yield lo, hi, ylo, yhi
        return
    zs, ns = z_many(beta, pts, cfg, with_noise=True)
    knots = [lo] + pts + [hi]
    vals = [ylo] + [float(v) for v in zs.imag] + [yhi]
    noise = [0.0] + [float(v) for v in ns] + [0.0]
    for i, j in _sign_brackets(vals, noise):
        yield knots[i], knots[j], vals[i], vals[j]


def y_zeros(beta, t_lo, t_hi, grid, cfg=None):
    """Ascending zeros of y(beta, .) strictly inside (t_lo, t_hi).

    Scans ``grid`` uniform points, brackets sign changes, validates each
    bracket against the closed-form monotonicity intervals (y' vanishes at
    t = pi(1 + 2m/beta) modulo the period), and bisects.  Tangential
    lattice zeros at t = 2 pi j, where y vanishes by symmetry without a
    crossing, are not reported.
    """
    if not (0.0 < t_lo < t_hi):
        raise InvalidArgumentError("need 0 < t_lo < t_hi")
    if grid < 2:
        raise InvalidArgumentError("grid must be at least 2")
    ts = np.linspace(t_lo, t_hi, int(grid))
    zs, ns = z_many(beta, ts, cfg, with_noise=True)
    ys = zs.imag
    out = []
    for i, j in _sign_brackets(ys, ns):
        for a, b, va, vb in _subdivide_bracket(
                beta, float(ts[i]), float(ts[j]), float(ys[i]),
                float(ys[j]), cfg):
            t = _bisect_y(beta, a, b, va, vb, cfg)[0]
            out.append(t)
    out.sort()
    dedup = []
    for t in out:
        if not dedup or t - dedup[-1] > 1e-10 * max(1.0, t):
            dedup.append(t)
    return dedup


# ---------------------------------------------------------------------------
# the beta0 construction
# ---------------------------------------------------------------------------

def _branch_zero(beta, cfg=None):
    """The unique y-zero on the base branch (pi(1-2/beta), pi).

    Returns (t, t_lo, t_hi, z_at_t).  y is positive at the left end and
    negative at pi on the bracket for beta in [4, 5]; a missing sign
    change means beta is outside the regime.
    """
    lo = math.pi * (1.0 - 2.0 / beta) + 1e-9
    hi = math.pi
    zs, ns = z_many(beta, [lo, hi], cfg, with_noise=True)
    ylo, yhi = float(zs[0].imag), float(zs[1].imag)
    s_lo, s_hi = _y_signs([ylo, yhi], ns)
    if not (s_lo > 0.0 > s_hi):
        raise BracketError(
            f"no y sign change on the branch interval for beta={beta} "
            f"(y({lo:.6f})={ylo:.3e}, y(pi)={yhi:.3e})")
    anchor = (lo, complex(zs[0]), float(ns[0]))
    t, t_l, t_h, z_t, _ = _bisect_y(beta, lo, hi, ylo, yhi, cfg, anchor)
    return t, t_l, t_h, z_t


def curve_F(beta, cfg=None):
    """x at the unique y-zero on the shifted branch (pi(3-2/beta), 3pi).

    Defined for beta in [4, 5] (small slack tolerated); the zero is
    located one period up, so the value is x(base zero) + 2 pi.
    """
    if not (4.0 - 1e-9 <= beta <= 5.0 + 1e-9):
        raise InvalidArgumentError("curve_F is defined for beta in [4, 5]")
    _, _, _, z_t = _branch_zero(beta, cfg)
    return z_t.real + TWO_PI


def find_beta0(tol_beta=1e-10, cfg=None):
    """Bisect the sign change of curve_F on [4, 5] down to ``tol_beta``.

    Returns the ZeroRecord of the smallest pathological order: beta0 with
    z(beta0, t0) = 0, t0 on the once-shifted branch (between 2pi and 3pi).
    """
    f4 = curve_F(4.0, cfg)
    f5 = curve_F(5.0, cfg)
    if not (f4 > 0.0 > f5):
        raise BracketError(
            f"expected F(4) > 0 > F(5), got F(4)={f4:.6f}, F(5)={f5:.6f}")
    blo, bhi = 4.0, 5.0
    while bhi - blo > tol_beta:
        mid = 0.5 * (blo + bhi)
        if curve_F(mid, cfg) > 0.0:
            blo = mid
        else:
            bhi = mid
    beta0 = 0.5 * (blo + bhi)
    t_base, t_lo, t_hi, _ = _branch_zero(beta0, cfg)
    t0 = t_base + TWO_PI
    if not (4.0 < beta0 < 5.0):
        raise BracketError(f"beta0={beta0} escaped (4, 5)")
    if not (math.pi * (3.0 - 2.0 / beta0) < t0 < 3.0 * math.pi):
        raise BracketError(f"t0={t0} escaped the branch interval")
    residual = abs(z_eval(beta0, t0, _TIGHT))
    return ZeroRecord(beta_k=beta0, t_k=t0, residual=residual,
                      bracket=(blo, bhi, t_lo + TWO_PI, t_hi + TWO_PI),
                      branch_index=1)


# ---------------------------------------------------------------------------
# generic scan
# ---------------------------------------------------------------------------

def _column(beta, t_grid, cfg=None):
    """Refined y-zeros on the base period with their x values.

    Returns a list of (t, x, t_lo, t_hi), ascending in t.
    """
    pad = TWO_PI / t_grid
    ts = np.linspace(pad, TWO_PI - pad, int(t_grid))
    zs, ns = z_many(beta, ts, cfg, with_noise=True)
    ys = zs.imag
    out = []
    for i, j in _sign_brackets(ys, ns):
        anchor = (float(ts[i]), complex(zs[i]), float(ns[i]))
        for aa, bb, va, vb in _subdivide_bracket(
                beta, float(ts[i]), float(ts[j]), float(ys[i]),
                float(ys[j]), cfg):
            t, tl, th, z_t, _ = _bisect_y(beta, aa, bb, va, vb, cfg, anchor)
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


def _zero_in_window(beta, w_lo, w_hi, t_hint, cfg=None):
    """Locate the branch's y-zero inside a t window at a new beta.

    Partitions the window at monotonicity knots and bisects the
    sign-change subinterval nearest to the hint.  Returns the
    ``_bisect_y`` tuple, or None when the branch has no crossing there.
    """
    knots = [w_lo] + _extrema_points(beta, w_lo, w_hi) + [w_hi]
    zs, ns = z_many(beta, knots, cfg, with_noise=True)
    ys = zs.imag
    best = None
    for i, j in _sign_brackets(ys, ns):
        d = abs(0.5 * (knots[i] + knots[j]) - t_hint)
        if best is None or d < best[0]:
            best = (d, i, j)
    if best is None:
        return None
    _, i, j = best
    anchor = (knots[i], complex(zs[i]), float(ns[i]))
    return _bisect_y(beta, knots[i], knots[j], float(ys[i]), float(ys[j]),
                     cfg, anchor)


def scan_zero_set(beta_max, t_max, beta_grid=120, t_grid=512, *,
                  beta_min=0.0, tol_beta=1e-10, cfg=None):
    """Locate all zeros of z with beta in (beta_min, beta_max], t in (0, t_max].

    For each beta column the y-zero branches on the base period are
    refined together with x there; sign changes of x + 2pi*k along beta
    (for every shift index k >= 1 that keeps t = t_zero + 2pi*k inside
    the window) are bisected to ZeroRecords.  Only the shifted copies
    are tracked — the reported family lives strictly above the base
    period (t_k > 2pi); roots of x itself on the base period, which
    appear for beta around 14 and beyond, are outside the scan's scope
    (``verify_nonvanishing`` probes the base period directly).  Branches
    that exit the window are dropped with a log note.  Records are
    sorted by (beta_k, t_k); when the window contains it, the first
    record is beta0.

    y counts as signed only where |y| exceeds ``_SIGN_NOISE`` (4) times
    the noise floor of its evaluation, on the column grid, at the
    monotonicity knots and at the window knots alike; zeros are bracketed
    between consecutive signed points.  So no zero is read out of rounding
    noise near t = 2pi, and the columns do not depend on how the
    quadrature rounds.
    """
    if not (beta_max > beta_min >= 0.0):
        raise InvalidArgumentError("need beta_max > beta_min >= 0")
    if t_max <= 0.0:
        raise InvalidArgumentError("t_max must be positive")
    if beta_grid < 2 or t_grid < 2:
        raise InvalidArgumentError("grids must be at least 2")

    step = (beta_max - beta_min) / beta_grid
    betas = [beta_min + step * (i + 1) for i in range(int(beta_grid))]
    columns = [_column(b, t_grid, cfg) for b in betas]

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
                rec = _bisect_crossing(ba, bb, ga, w_lo, w_hi,
                                       0.5 * (ta + tb), k, tol_beta, cfg)
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


def _bisect_crossing(b_lo, b_hi, g_lo, w_lo, w_hi, t_hint, k,
                     tol_beta, cfg=None):
    """Bisect the beta crossing of x(branch zero) + 2 pi k on [b_lo, b_hi]."""
    hint = t_hint
    lo_positive = g_lo > 0.0
    while b_hi - b_lo > tol_beta:
        mid = 0.5 * (b_lo + b_hi)
        found = _zero_in_window(mid, w_lo, w_hi, hint, cfg)
        if found is None:
            log.debug("branch lost at beta=%s in (%s, %s)", mid, w_lo, w_hi)
            return None
        t_mid, _, _, z_mid, _ = found
        hint = t_mid
        if ((z_mid.real + TWO_PI * k) > 0.0) == lo_positive:
            b_lo = mid
        else:
            b_hi = mid
    beta_k = 0.5 * (b_lo + b_hi)
    found = _zero_in_window(beta_k, w_lo, w_hi, hint, cfg)
    if found is None:
        return None
    t_base, t_l, t_h, _, _ = found
    t_k = t_base + TWO_PI * k
    residual = abs(z_eval(beta_k, t_k, _TIGHT))
    return ZeroRecord(beta_k=beta_k, t_k=t_k, residual=residual,
                      bracket=(b_lo, b_hi, t_l + TWO_PI * k, t_h + TWO_PI * k),
                      branch_index=k)


def verify_nonvanishing(beta, t_lo, t_hi, grid, cfg=None):
    """Minimum of |z(beta, .)| over a uniform grid (shift-reduced)."""
    if not (0.0 < t_lo < t_hi):
        raise InvalidArgumentError("need 0 < t_lo < t_hi")
    if grid < 2:
        raise InvalidArgumentError("grid must be at least 2")
    ts = np.linspace(t_lo, t_hi, int(grid))
    return float(np.min(np.abs(z_many(beta, ts, cfg))))


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

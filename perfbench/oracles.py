"""Independent checks of the benchmark's outputs.

Every check reads an output as the program wrote it (registry JSON, curve
CSV, report CSV line, or the repr of a returned float) and compares it with
a route that shares no code with the one that produced it:

* kernel values against the direct series ``z_series`` / ``z_series_many``
  (no argument reduction, no quadrature);
* the first degenerate pair against an mpmath quadrature of
  (1 - e^{i phi})^beta in its principal-branch form;
* L2 moduli against Parseval closed forms, with psi from the series route.

A check returns None when the output passes and a one-line reason otherwise.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)

#: |z| at a located zero, as pinned by the acceptance suite
ZERO_TOL = 1e-8
#: accuracy requested from the series route
SERIES_TOL = 1e-9
#: absolute accuracy of the library's default kernel quadrature
QUAD_TOL = 1e-10
#: tighter series accuracy at zero records, where |z| itself is ~1e-10
RECORD_SERIES_TOL = 1e-11
#: relative slack of the chain tilde <= w <= omega (acceptance gate 08)
CHAIN_SLACK = 1e-6
#: relative agreement of omega with the dense-grid Parseval maximum
OMEGA_REL = 1e-6


def kernel_tol(beta, t):
    """Absolute tolerance for z(beta, t) against the series route.

    The series sums terms of size |binom(beta, v)|, whose total grows like
    2^beta, so its rounding floor (and the quadrature's) grows with beta and
    with the number of periods in t.  Below order 8 this is ZERO_TOL.
    """
    return (ZERO_TOL
            + 64.0 * _EPS * 2.0 ** (beta + 1.0) * (1.0 + abs(t) / TWO_PI))


# ---------------------------------------------------------------------------
# zero records
# ---------------------------------------------------------------------------

def check_registry(data: bytes):
    """Every record of a ``fracsmooth zeros`` registry is a zero of z."""
    from fracsmooth import z_series
    try:
        records = json.loads(data)
    except ValueError as exc:
        return f"registry is not JSON: {exc}"
    if not records:
        return "registry is empty"
    bad = []
    for r in records:
        beta, t = r["beta"], r["t"]
        if not (t > TWO_PI and r["branch"] >= 1):
            bad.append(f"beta={beta!r} t={t!r} outside the shifted family")
            continue
        z = abs(z_series(beta, t, tol=RECORD_SERIES_TOL))
        if not z <= kernel_tol(beta, t):
            bad.append(f"|z_series({beta!r}, {t!r})| = {z:.3e}")
    if bad:
        return (f"{len(bad)} of {len(records)} records fail: "
                + "; ".join(bad[:3]))
    return None


def z_mpmath(beta, t, dps=30):
    """z(beta, t) by mpmath tanh-sinh quadrature, split at multiples of pi."""
    import mpmath as mp
    with mp.workdps(dps):
        beta, t = mp.mpf(beta), mp.mpf(t)
        knots = [mp.mpf(0)]
        while knots[-1] + mp.pi < t:
            knots.append(knots[-1] + mp.pi)
        knots.append(t)
        return complex(mp.quad(lambda phi: mp.power(1 - mp.expj(phi), beta),
                               knots))


def check_beta0(data: bytes):
    """The ``find_beta0`` pair is a zero of z in mpmath, on branch 1."""
    rec = json.loads(data)
    beta, t = rec["beta"], rec["t"]
    if not (4.0 < beta < 5.0 and TWO_PI < t < 3.0 * math.pi):
        return f"beta0={beta!r}, t0={t!r} outside (4, 5) x (2pi, 3pi)"
    z = abs(z_mpmath(beta, t))
    if not z <= ZERO_TOL:
        return f"|z_mpmath(beta0, t0)| = {z:.3e}"
    return None


# ---------------------------------------------------------------------------
# curve samples
# ---------------------------------------------------------------------------

def check_curve(data: bytes, samples: int, subsample: int = 32):
    """A curve CSV has the requested rows, and an evenly spaced subsample of
    them matches the series route."""
    from fracsmooth import z_series_many
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != "beta,t,x,y":
        return "curve CSV header missing"
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if len(rows) != samples:
        return f"curve has {len(rows)} samples, expected {samples}"
    pick = np.unique(np.linspace(0, samples - 1, subsample).astype(int))
    beta = rows[0][0]
    ts = np.array([rows[i][1] for i in pick])
    got = np.array([complex(rows[i][2], rows[i][3]) for i in pick])
    want = z_series_many(beta, ts, tol=SERIES_TOL)
    tol = np.array([kernel_tol(beta, t) for t in ts])
    err = np.abs(got - want)
    if not np.all(err <= tol):
        i = int(np.argmax(err / tol))
        return (f"curve beta={beta!r}: sample t={ts[i]!r} off by "
                f"{err[i]:.3e} (tolerance {tol[i]:.3e})")
    return None


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------

class SeriesPsi:
    """psi(order, k h) for k = -degree..degree from the series route,
    cached per (order, h) and shared by every polynomial of a workload.

    The series gives x odd and y even in t, so psi(-t) = conj(psi(t)) and
    only k >= 1 is summed.
    """

    def __init__(self, degree):
        self.degree = degree
        self._cache = {}

    def __call__(self, order, h, degree):
        key = (float(order), float(h))
        if key not in self._cache:
            from fracsmooth import z_series_many
            ts = np.arange(1, self.degree + 1, dtype=float) * h
            pos = z_series_many(order, ts, tol=SERIES_TOL) / ts
            self._cache[key] = np.concatenate(
                [np.conj(pos[::-1]), [0.0], pos])
        mid = self.degree
        return self._cache[key][mid - degree:mid + degree + 1]


class Parseval:
    """L2 moduli of one polynomial from its coefficients (closed forms on
    the coefficient vector, psi from ``SeriesPsi``)."""

    def __init__(self, coeffs, series_psi):
        self.c2 = np.abs(np.asarray(coeffs)) ** 2
        self.degree = (len(self.c2) - 1) // 2
        self.k = np.arange(-self.degree, self.degree + 1, dtype=float)
        self.norm2 = float(math.sqrt(self.c2.sum()))
        self._series_psi = series_psi

    def psi(self, order, h):
        return self._series_psi(order, h, self.degree)

    def tilde(self, beta, h):
        sym = self.psi(beta, h)
        return float(math.sqrt(np.dot(self.c2, np.abs(sym) ** 2)))

    def star(self, beta, alpha, h):
        sym = self.psi(alpha, h)
        gap = int(round(beta - alpha))
        if gap > 0:
            sym = sym * self.psi(float(gap), h)
        return float(math.sqrt(np.dot(self.c2, np.abs(sym) ** 2)))

    def _diff_norm(self, beta, delta):
        s = np.abs(2.0 * np.sin(0.5 * self.k * delta)) ** (2.0 * beta)
        return math.sqrt(float(np.dot(self.c2, s)))

    def omega(self, beta, h, grid=4096, polish=60):
        """sup over delta in (0, h] of ||diff||_2: dense grid, then a
        golden-section polish around the grid maximum."""
        deltas = np.linspace(h / grid, h, grid)
        s = np.abs(2.0 * np.sin(0.5 * np.outer(deltas, self.k)))
        s **= 2.0 * beta
        vals = np.sqrt(s @ self.c2)
        i = int(np.argmax(vals))
        lo, hi = deltas[max(i - 1, 0)], deltas[min(i + 1, grid - 1)]
        inv = (math.sqrt(5.0) - 1.0) / 2.0
        best = float(vals[i])
        for _ in range(polish):
            a = hi - inv * (hi - lo)
            b = lo + inv * (hi - lo)
            fa, fb = self._diff_norm(beta, a), self._diff_norm(beta, b)
            best = max(best, fa, fb)
            if fa > fb:
                hi = b
            else:
                lo = a
        return best

    def tol(self, h, gap=0):
        """Absolute error budget of a psi-based L2 norm, with a factor 4 of
        margin: the two routes differ by at most QUAD_TOL + SERIES_TOL in z,
        i.e. that over |k| h in psi; a second factor psi_gap, of size up to
        2^gap, scales it."""
        return (4.0 * (QUAD_TOL + SERIES_TOL) / h * self.norm2 * 2.0 ** gap
                + 1e-12)


def _close(got, want, abs_tol, rel_tol=0.0):
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def check_report_row(data: bytes, parseval: Parseval):
    """One ``write_report_csv`` line: finite moduli, the chain
    tilde <= w <= omega, and (p = 2) Parseval agreement."""
    from fracsmooth import CSV_HEADER
    rec = next(csv.reader(io.StringIO(data.decode("utf-8"))))
    if len(rec) != len(CSV_HEADER):
        return f"row has {len(rec)} fields"
    row = dict(zip(CSV_HEADER, rec))
    beta, alpha, h, p = (float(row[k]) for k in ("beta", "alpha", "h", "p"))
    omega, w, tilde, star = (float(row[k]) for k in
                             ("omega", "w", "omega_tilde", "omega_star"))
    vals = {"omega": omega, "w": w, "omega_tilde": tilde, "omega_star": star}
    for name, v in vals.items():
        if not (math.isfinite(v) and v >= 0.0):
            return f"{name} = {v!r} is not a finite nonnegative number"
    slack = 1.0 + CHAIN_SLACK
    if not (tilde <= w * slack and w <= omega * slack):
        return f"chain broken: tilde={tilde!r}, w={w!r}, omega={omega!r}"
    if p == 2.0:
        tol = parseval.tol(h)
        want = parseval.tilde(beta, h)
        if not _close(tilde, want, tol):
            return f"tilde={tilde!r}, Parseval {want!r}"
        want = parseval.star(beta, alpha, h)
        if not _close(star, want, parseval.tol(h, round(beta - alpha))):
            return f"star={star!r}, Parseval {want!r}"
        want = parseval.omega(beta, h)
        if not _close(omega, want, 1e-12, OMEGA_REL):
            return f"omega={omega!r}, Parseval {want!r}"
    return None


def check_positive(data: bytes):
    """A bracket or floor: one finite positive float."""
    v = float(data)
    if not (math.isfinite(v) and v > 0.0):
        return f"value {v!r} is not finite and positive"
    return None


def check_modulus(data: bytes, parseval: Parseval, beta, alpha, h, p):
    """A tilde (alpha None) or star value: finite, positive, and at p = 2
    equal to its Parseval form."""
    bad = check_positive(data)
    if bad or p != 2.0:
        return bad
    v = float(data)
    if alpha is None:
        want, tol = parseval.tilde(beta, h), parseval.tol(h)
    else:
        want = parseval.star(beta, alpha, h)
        tol = parseval.tol(h, round(beta - alpha))
    if not _close(v, want, tol):
        return f"value {v!r}, Parseval {want!r}"
    return None

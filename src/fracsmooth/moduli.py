"""The four moduli of smoothness and the equivalence-ratio experiments.

The classical modulus takes a sup over step sizes and is evaluated by a
grid maximum plus a local polish (``bracket_max``: each round of knots in
one call).  The integral modulus averages the difference norm over steps
(Gauss-Legendre in delta).  Both evaluate their step grid in one batched
call, ``_diff_norms``: the (steps x frequencies) symbol matrix of the
difference times the coefficients, then the row norms (``lp_norms``):
Parseval's sum at p = 2, otherwise a row-wise real inverse FFT of the
half spectra (one for a real f, whose differences stay real) and the
rectangle rule.
The steps go in blocks of at most ``_BLOCK_ELEMS`` grid values, so a
high degree never allocates the whole (steps x grid) matrix at once.
Each value is bit for bit ``lp_norm(apply_diff(f, beta, delta), norm)``.

The linearized and double-averaged moduli never integrate differences
numerically: averaging a fractional difference over the step is exactly
a Fourier multiplier, so their values come from kernel symbols.

The scan engine computes all four on a corpus grid and the pairwise
ratios (with a divide-by-zero infinity flag).
"""
from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._util import bracket_max, check_beta, fmt17, gauss_legendre
from .errors import InvalidArgumentError, UnsupportedParameterError
from .fracdiff import split_order, symbol_values
from .kernel import psi_many
from .signal import NormParams, TrigPoly, grid_size, lp_norm, lp_norms

log = logging.getLogger(__name__)

# grid values (steps x grid points) of one block of ``_diff_norms``; every
# step grid of the default corpus (degree <= 16) fits in one block
_BLOCK_ELEMS = 1 << 18
#: uniform steps of the classical modulus's grid over (0, h]
_DELTA_GRID = 256
#: Gauss-Legendre nodes of the integral modulus over (0, h)
_QUAD_ORDER = 64

CSV_HEADER = ("fid", "beta", "alpha", "h", "p", "omega", "w",
              "omega_tilde", "omega_star", "r_w", "r_tilde", "r_star")


@dataclass(frozen=True)
class ModulusRequest:
    """Parameters shared by every modulus computation; the resolutions
    in the step are the constants ``_DELTA_GRID`` and ``_QUAD_ORDER``.

    ``alpha`` is only meaningful for the double-averaged modulus and must
    split beta as beta = alpha + (nonnegative integer) with alpha in
    (0, 4] — the regime where the averaging kernel of order alpha has no
    zeros and the construction is invertible.
    """
    beta: float
    h: float
    norm: NormParams
    alpha: float | None = None

    def __post_init__(self):
        check_beta(self.beta)
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise InvalidArgumentError("h must be positive and finite")
        if self.alpha is not None:
            split_order(self.beta, float(self.alpha))


def _diff_norms(f: TrigPoly, beta: float, deltas,
                norm: NormParams) -> np.ndarray:
    """||D_delta^beta f||_p for every step delta in ``deltas``.

    Per block of steps: the symbol matrix of the difference (one row per
    step) times the coefficients, then ``lp_norms`` of the rows.  The
    symbol is computed for k = 0..M and mirrored, sigma(-k) =
    conj(sigma(k)), which is bit for bit what ``symbol_values`` gives at
    -k.
    """
    deltas = np.asarray(deltas, dtype=float)
    rows = max(1, _BLOCK_ELEMS // grid_size(f.degree))
    half = np.arange(f.degree + 1)
    out = np.empty(deltas.size)
    for lo in range(0, deltas.size, rows):
        sym = symbol_values(beta, deltas[lo:lo + rows, None], half)
        sym = np.concatenate([np.conj(sym[:, :0:-1]), sym], axis=1)
        out[lo:lo + rows] = lp_norms(f.coeffs * sym, norm)
    return out


def classical_modulus(f: TrigPoly, req: ModulusRequest) -> float:
    """sup over steps delta in (0, h] of the difference norm.

    Grid maximum over ``_DELTA_GRID`` uniform steps, evaluated together by
    ``_diff_norms`` (one symbol matrix and one ``lp_norms`` call per block
    of at most ``_BLOCK_ELEMS`` grid values), then ``bracket_max`` in the
    cell around the discrete argmax: one ``_diff_norms`` call per round
    of knots.  When the sup sits at delta = h the first round finds no
    larger value and stops, so the result is the grid value at h.  The
    polish is local — no global unimodality is assumed.
    """
    if req.alpha is not None:
        raise InvalidArgumentError("alpha does not apply to this modulus")
    grid = _DELTA_GRID
    deltas = np.linspace(req.h / grid, req.h, grid)
    vals = _diff_norms(f, req.beta, deltas, req.norm)
    i = int(np.argmax(vals))
    return bracket_max(lambda ds: _diff_norms(f, req.beta, ds, req.norm),
                       deltas[max(i - 1, 0)], deltas[min(i + 1, grid - 1)],
                       float(vals[i]))


def integral_modulus(f: TrigPoly, req: ModulusRequest) -> float:
    """((1/h) integral of ||diff||_p^p1 over (0, h))^(1/p1), p1 = min(1, p).

    Gauss-Legendre of order ``_QUAD_ORDER`` (``gauss_legendre``) mapped
    onto (0, h); the difference norms at all of its nodes come from one
    ``_diff_norms`` call, in blocks of at most ``_BLOCK_ELEMS`` grid
    values like the classical grid.
    """
    if req.alpha is not None:
        raise InvalidArgumentError("alpha does not apply to this modulus")
    nodes, weights, _ = gauss_legendre(_QUAD_ORDER)
    deltas = 0.5 * req.h * (nodes + 1.0)
    scale = 0.5  # (1/h) * (h/2): the affine map's Jacobian over the mean
    p1 = req.norm.p1
    vals = _diff_norms(f, req.beta, deltas, req.norm).tolist()
    acc = 0.0
    # summed node by node: a dot product would round differently
    for v, w in zip(vals, weights):
        acc += w * v ** p1
    return float((scale * acc) ** (1.0 / p1))


def linearized_modulus(f: TrigPoly, req: ModulusRequest) -> float:
    """Norm of the step-averaged fractional difference.

    Averaging the difference over delta in (0, h) multiplies the k-th
    coefficient by the averaging symbol at k h, so the value is exact up
    to kernel quadrature — no delta integration happens here.  Defined
    for p >= 1 only.
    """
    if req.alpha is not None:
        raise InvalidArgumentError("alpha does not apply to this modulus")
    if req.norm.p < 1.0:
        raise UnsupportedParameterError(
            "the averaged difference needs an integrable function: p >= 1")
    sym = psi_many(req.beta, f.freqs * req.h)
    return lp_norm(f.with_coeffs(f.coeffs * sym), req.norm)


def star_modulus(f: TrigPoly, req: ModulusRequest) -> float:
    """Norm of the doubly averaged difference (orders beta-alpha and alpha).

    The two averaging symbols multiply; when beta = alpha the first
    factor is identically 1 and the value coincides with the linearized
    modulus.
    """
    if req.alpha is None:
        raise InvalidArgumentError("alpha is required for this modulus")
    if req.norm.p < 1.0:
        raise UnsupportedParameterError(
            "the averaged difference needs an integrable function: p >= 1")
    alpha = float(req.alpha)
    gap = split_order(req.beta, alpha)
    sym = psi_many(alpha, f.freqs * req.h)
    if gap > 0:
        sym = sym * psi_many(float(gap), f.freqs * req.h)
    return lp_norm(f.with_coeffs(f.coeffs * sym), req.norm)


# ---------------------------------------------------------------------------
# equivalence experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivReport:
    """One scan row: the four moduli and their quotients.

    ``error`` records a per-row failure message; it is not part of the
    CSV/JSON schema.
    """
    fid: str
    beta: float
    alpha: float
    h: float
    p: float
    omega: float
    w: float
    omega_tilde: float
    omega_star: float
    r_w: float
    r_tilde: float
    r_star: float
    error: str | None = field(default=None, compare=False)


def _ratio(num: float, den: float) -> float:
    """Quotient with the degenerate cases pinned: 0/0 -> nan, and a
    denominator at (or below) rounding scale of the numerator -> inf."""
    if num == 0.0 and den == 0.0:
        return math.nan
    if den <= 1e-9 * num:
        return math.inf
    return num / den


def default_alpha(beta: float) -> float:
    """Splitting rule for the double average: the fractional part of beta
    when there is one (beta = alpha + floor(beta)), otherwise beta capped
    at 4 (beta = alpha + 0 or alpha + (beta - 4))."""
    check_beta(beta)
    frac = beta - math.floor(beta)
    if frac > 1e-9:
        return frac
    return min(beta, 4.0)


def _scan_row(fid: str, f: TrigPoly, beta: float, h: float, p: float,
              alpha: float | None) -> EquivReport:
    a = default_alpha(beta) if alpha is None else alpha
    try:
        norm = NormParams(p=p)
        base = ModulusRequest(beta=beta, h=h, norm=norm)
        omega = classical_modulus(f, base)
        w_val = integral_modulus(f, base)
        tilde = linearized_modulus(f, base)
        # alpha = beta leaves one averaging symbol, the linearized one, so
        # that value is reused bit for bit; the request is still built so
        # that an invalid alpha fails the row
        split = ModulusRequest(beta=beta, h=h, norm=norm, alpha=a)
        star = tilde if a == beta else star_modulus(f, split)
        return EquivReport(
            fid=fid, beta=beta, alpha=a, h=h, p=p,
            omega=omega, w=w_val, omega_tilde=tilde, omega_star=star,
            r_w=_ratio(omega, w_val), r_tilde=_ratio(omega, tilde),
            r_star=_ratio(omega, star))
    except Exception as exc:  # noqa: BLE001 - rows must not kill the scan
        log.warning("scan row (%s, beta=%s, h=%s, p=%s) failed: %s",
                    fid, beta, h, p, exc)
        nan = math.nan
        return EquivReport(fid=fid, beta=beta, alpha=a, h=h, p=p,
                           omega=nan, w=nan, omega_tilde=nan, omega_star=nan,
                           r_w=nan, r_tilde=nan, r_star=nan,
                           error=str(exc))


def equivalence_scan(corpus, betas, hs, ps, *, alpha: float | None = None,
                     threads: int = 1) -> list[EquivReport]:
    """All four moduli on corpus x betas x hs x ps, with ratio columns.

    ``corpus`` is an iterable of (fid, TrigPoly).  A beta or h that is
    not positive and finite, or a p that is not positive, raises
    InvalidArgumentError before any row runs.  Rows are independent;
    ``threads`` > 1 maps them over a thread pool.  A failing row (an
    alpha that does not split its beta, p < 1 for the linearized
    modulus) is recorded with nan values and its message rather than
    aborting the scan.  Rows come back sorted by (fid, beta, h, p).
    """
    betas, hs, ps = ([float(v) for v in grid] for grid in (betas, hs, ps))
    for b, h, p in itertools.product(betas, hs, ps):
        ModulusRequest(beta=b, h=h, norm=NormParams(p=p))
    jobs = [(fid, f, b, h, p)
            for fid, f in corpus for b in betas for h in hs for p in ps]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            rows = list(pool.map(
                lambda j: _scan_row(j[0], j[1], j[2], j[3], j[4], alpha),
                jobs))
    else:
        rows = [_scan_row(fid, f, b, h, p, alpha)
                for fid, f, b, h, p in jobs]
    rows.sort(key=lambda r: (r.fid, r.beta, r.h, r.p))
    return rows


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return fmt17(value)


def write_report_csv(fh, rows: list[EquivReport]) -> None:
    """Fixed-schema CSV; floats at full round-trip precision."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r.fid] + [_cell(getattr(r, name))
                                   for name in CSV_HEADER[1:]])


def write_report_json(fh, rows: list[EquivReport]) -> None:
    """Same fields as the CSV, as a JSON array with sorted keys."""
    payload = [
        {name: (r.fid if name == "fid" else _cell(getattr(r, name)))
         for name in CSV_HEADER}
        for r in rows
    ]
    json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False)
    fh.write("\n")


def read_report_csv(fh) -> list[EquivReport]:
    """Parse a CSV produced by ``write_report_csv`` back into rows; a bad
    row (cell count, non-float value) raises InvalidArgumentError."""
    reader = csv.reader(fh)
    header = next(reader, [])
    if tuple(header) != CSV_HEADER:
        raise InvalidArgumentError(f"unexpected header: {header!r}")
    out = []
    for rec in reader:
        try:
            if len(rec) != len(CSV_HEADER):
                raise ValueError(f"{len(rec)} cells, not {len(CSV_HEADER)}")
            vals = {k: float(v) for k, v in zip(CSV_HEADER[1:], rec[1:])}
        except ValueError as exc:
            raise InvalidArgumentError(f"line {reader.line_num}: {exc}")
        out.append(EquivReport(fid=rec[0], **vals))
    return out

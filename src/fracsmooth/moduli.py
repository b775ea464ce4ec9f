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
A block's mirrored symbols depend on (beta, its steps, degree) and not on
p or on the function, so ``_symbol_block`` holds them, keyed by those
values with the steps as their float64 bytes: every block of every call
goes through it, the classical grid, the integral nodes and the polish
rounds alike, and the steps alone decide what is shared.  It holds at
most ``_STEP_BLOCKS`` = 4 blocks: within one scan the reuse is the
grid, the nodes and the polish rounds of one (beta, h) pair, asked for
again for each p, and a block of symbols is 0.47 MiB at degree 1024.
At p = 1 and p = inf one synthesis of the rows serves both exponents:
``_mean_and_peak`` reduces |f| on the grid by the row mean and by the
row maximum, as ``lp_norms`` does, and holds both, keyed by (beta, the
steps' float64 bytes, the coefficients' bytes, degree).  So the p = inf
row of a scan reads the grid and the nodes of the p = 1 row of the same
(function, beta, h), and its polish rounds where their brackets
coincide.  It holds at most ``_NORM_PAIRS`` = 8 entries; one is two
vectors of at most ``_DELTA_GRID`` floats, and its key holds the
coefficients' bytes (32 KiB at degree 1024).

The linearized and double-averaged moduli never integrate differences
numerically: averaging a fractional difference over the step is exactly
a Fourier multiplier, so each is one averaged difference (``_averaged``):
the coefficients times the product of psi(order, k h) over its orders,
(beta) or (alpha, beta - alpha).  A symbol depends on the order and the
step, not on p or on the function, and psi(order, k h) depends on
(order, k h) alone, so ``_psi_symbol`` holds the longest half spectrum
(k >= 0) asked for per (order, h) and answers a lower degree with a
read-only slice of it, bit for bit a shorter ``psi_many`` call.  The
product of the half spectra is mirrored once, psi(-k h) = conj(psi(k h)),
bit for bit what ``psi_many`` gives at -k h.  The memo holds at most
``_SYMBOLS`` = 24 half spectra, under a lock: a scan over the default
grid needs 12 (order, h) keys for every corpus member, and a
degree-1024 half spectrum is 16 KiB.

The scan engine computes all four on a corpus grid and the pairwise
ratios (with a divide-by-zero infinity flag).
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
import math
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._util import bracket_max, check_beta, fmt17, gauss_legendre
from .errors import InvalidArgumentError, UnsupportedParameterError
from .fracdiff import split_order, symbol_values
from .kernel import psi_many
from .signal import (NormParams, TrigPoly, _abs_on_grid, grid_size, lp_norm,
                     lp_norms)

log = logging.getLogger(__name__)

# grid values (steps x grid points) of one block of ``_diff_norms``; every
# step grid of the default corpus (degree <= 16) fits in one block
_BLOCK_ELEMS = 1 << 18
#: uniform steps of the classical modulus's grid over (0, h]
_DELTA_GRID = 256
#: Gauss-Legendre nodes of the integral modulus over (0, h)
_QUAD_ORDER = 64
#: half spectra held by ``_psi_symbol``: the degree-1024 linearized and
#: gapped moduli of the kernel-batch benchmark (4 (beta, alpha) pairs at 3
#: steps) need 18 (order, h) keys.  16 entries missed 13 times a job;
#: with 24 its median item fell from 1.23 to 0.45 ms and its job from
#: 0.337 to 0.313 s, and its peak RSS did not rise (medians of 3 runs on
#: a 2-core VM)
_SYMBOLS = 24
#: symbol blocks held by ``_symbol_block``: on one full-corpus scan, 2
#: entries missed 502 times, 4 and 6 entries 186, 8 and 16 entries 182
_STEP_BLOCKS = 4
#: p = 1 / p = inf norm pairs held by ``_mean_and_peak``: a classical
#: modulus makes at most 6 ``_diff_norms`` calls (the grid and 5 polish
#: rounds) and an integral modulus one, so 8 entries keep the whole p = 1
#: row for the p = inf row of the same (function, beta, h)
_NORM_PAIRS = 8

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


def _mirror(half: np.ndarray) -> np.ndarray:
    """A symbol on k = -M..M from its values on k = 0..M (the last axis),
    by sigma(-k) = conj(sigma(k))."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def _block_rows(degree: int) -> int:
    """Steps per block of ``_diff_norms`` at this degree."""
    return max(1, _BLOCK_ELEMS // grid_size(degree))


@functools.lru_cache(maxsize=_STEP_BLOCKS)
def _symbol_block(beta: float, steps: bytes, degree: int) -> np.ndarray:
    """The symbol matrix on k = -degree..degree, one row per step of
    ``steps`` (float64 bytes), read-only: computed for k = 0..degree and
    mirrored (``_mirror``), which is bit for bit what ``symbol_values``
    gives at -k.  One ``symbol_values`` call per key while the memo holds
    it; an invalid order raises and is not held.  ``symbol_values`` is
    looked up at call time, so a wrapper set on ``moduli.symbol_values``
    sees every miss."""
    deltas = np.frombuffer(steps)
    sym = _mirror(symbol_values(beta, deltas[:, None], np.arange(degree + 1)))
    sym.flags.writeable = False
    return sym


@functools.lru_cache(maxsize=_NORM_PAIRS)
def _mean_and_peak(beta: float, steps: bytes, coeffs: bytes,
                   degree: int) -> np.ndarray:
    """The p = 1 and p = inf norms of the difference at every step of
    ``steps`` (float64 bytes) of the polynomial with coefficients
    ``coeffs`` (complex128 bytes), as the rows of a read-only (2, steps)
    array.  Per block of at most ``_block_rows`` steps, one synthesis
    (``_abs_on_grid``) of the symbol block (``_symbol_block``) times the
    coefficients, reduced by ``np.mean(vals, axis=1)`` and
    ``vals.max(axis=1)``, the expressions of ``lp_norms``: bit for bit its
    values at p = 1 and p = inf.  An invalid order raises and is not
    held."""
    deltas = np.frombuffer(steps)
    c = np.frombuffer(coeffs, dtype=complex)
    rows = _block_rows(degree)
    out = np.empty((2, deltas.size))
    for lo in range(0, deltas.size, rows):
        sym = _symbol_block(beta, deltas[lo:lo + rows].tobytes(), degree)
        vals = _abs_on_grid(c * sym)
        out[0, lo:lo + rows] = np.mean(vals, axis=1)
        out[1, lo:lo + rows] = vals.max(axis=1)
    out.flags.writeable = False
    return out


def _diff_norms(f: TrigPoly, beta: float, deltas,
                norm: NormParams) -> np.ndarray:
    """||D_delta^beta f||_p for every step delta in ``deltas``.

    At p = 1 and p = inf, a row of ``_mean_and_peak`` (read-only), which
    both exponents share.  Any other p, per block of at most
    ``_block_rows`` steps: the symbol matrix of the difference
    (``_symbol_block``) times the coefficients, then ``lp_norms`` of the
    rows (Parseval's sum at p = 2).
    """
    deltas = np.asarray(deltas, dtype=float)
    p = norm.p
    if p == 1.0 or math.isinf(p):
        pair = _mean_and_peak(beta, deltas.tobytes(), f.coeffs.tobytes(),
                              f.degree)
        return pair[0 if p == 1.0 else 1]
    rows = _block_rows(f.degree)
    out = np.empty(deltas.size)
    for lo in range(0, deltas.size, rows):
        sym = _symbol_block(beta, deltas[lo:lo + rows].tobytes(), f.degree)
        out[lo:lo + rows] = lp_norms(f.coeffs * sym, norm)
    return out


_PSI = OrderedDict()
_PSI_LOCK = threading.Lock()


def _psi_symbol(order: float, h: float, degree: int) -> np.ndarray:
    """psi(order, k h) for k = 0..degree, read-only.

    The memo holds the longest half spectrum asked for per (order, h) and
    answers a lower degree with a slice of it, which is bit for bit
    ``psi_many`` on the shorter grid, as psi depends on (order, k h)
    alone.  A higher degree makes one ``psi_many`` call and replaces the
    entry.  The call runs outside the lock, so threads may compute the
    same spectrum twice; either copy serves.  An invalid order raises and
    is not held.  ``psi_many`` is looked up at call time, so a wrapper
    set on ``moduli.psi_many`` sees every miss.
    """
    key = (order, h)
    with _PSI_LOCK:
        half = _PSI.get(key)
        if half is not None and half.size > degree:
            _PSI.move_to_end(key)
            return half[:degree + 1]
    half = psi_many(order, np.arange(degree + 1) * h)
    half.flags.writeable = False
    with _PSI_LOCK:
        held = _PSI.get(key)
        if held is None or held.size < half.size:
            _PSI[key] = half
        _PSI.move_to_end(key)
        while len(_PSI) > _SYMBOLS:
            _PSI.popitem(last=False)
    return half


def classical_modulus(f: TrigPoly, req: ModulusRequest) -> float:
    """sup over steps delta in (0, h] of the difference norm.

    Grid maximum over ``_DELTA_GRID`` uniform steps, evaluated together by
    ``_diff_norms`` (one symbol matrix and its row norms per block of at
    most ``_BLOCK_ELEMS`` grid values), then ``bracket_max`` in the cell
    around the discrete argmax: one ``_diff_norms`` call per round of
    knots.  The rows of a scan that differ in p alone share the symbol
    blocks of both (``_symbol_block``), and the p = 1 and p = inf rows
    share their norms (``_mean_and_peak``).
    When the sup sits at delta = h the first round finds no larger value
    and stops, so the result is the grid value at h.  The polish is local
    — no global unimodality is assumed.
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
    ``_diff_norms`` call, like the classical grid, through the same
    memos.
    """
    if req.alpha is not None:
        raise InvalidArgumentError("alpha does not apply to this modulus")
    nodes, weights, _ = gauss_legendre(_QUAD_ORDER)
    scale = 0.5  # (1/h) * (h/2): the affine map's Jacobian over the mean
    p1 = req.norm.p1
    vals = _diff_norms(f, req.beta, 0.5 * req.h * (nodes + 1.0),
                       req.norm).tolist()
    acc = 0.0
    # summed node by node: a dot product would round differently
    for v, w in zip(vals, weights):
        acc += w * v ** p1
    return float((scale * acc) ** (1.0 / p1))


def _averaged(f: TrigPoly, orders: tuple[float, ...],
              req: ModulusRequest) -> float:
    """Norm of the difference averaged over the step once per order of
    ``orders``: the product of their half spectra (``_psi_symbol``),
    mirrored once, as conj(a) conj(b) = conj(a b) bit for bit.  Defined
    for p >= 1 only."""
    if req.norm.p < 1.0:
        raise UnsupportedParameterError(
            "the averaged difference needs an integrable function: p >= 1")
    half = _psi_symbol(orders[0], req.h, f.degree)
    for order in orders[1:]:
        half = half * _psi_symbol(order, req.h, f.degree)
    return lp_norm(f.with_coeffs(f.coeffs * _mirror(half)), req.norm)


def linearized_modulus(f: TrigPoly, req: ModulusRequest) -> float:
    """Norm of the step-averaged fractional difference.

    Averaging the difference over delta in (0, h) multiplies the k-th
    coefficient by the averaging symbol at k h, so the value is exact up
    to kernel quadrature: one averaged difference (``_averaged``) of order
    beta, with no delta integration.  Defined for p >= 1 only.
    """
    if req.alpha is not None:
        raise InvalidArgumentError("alpha does not apply to this modulus")
    return _averaged(f, (req.beta,), req)


def star_modulus(f: TrigPoly, req: ModulusRequest) -> float:
    """Norm of the doubly averaged difference (orders alpha and beta-alpha).

    The two averaging symbols multiply (``_averaged``); when beta = alpha
    the second factor is identically 1 and is left out, so the value
    coincides with the linearized modulus.  Defined for p >= 1 only.
    """
    if req.alpha is None:
        raise InvalidArgumentError("alpha is required for this modulus")
    alpha = float(req.alpha)
    gap = split_order(req.beta, alpha)
    return _averaged(f, (alpha, float(gap)) if gap > 0 else (alpha,), req)


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

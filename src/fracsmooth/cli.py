"""Command-line front end.

Subcommands expose the library surface for scripted runs: point
evaluation of the averaging kernel, curve export, the zero-set scan,
single modulus values, and the equivalence-ratio experiment.  All output
is deterministic: floats are emitted at 17 significant digits, JSON keys
are sorted, and rerunning a command with identical flags reproduces the
bytes exactly.

Exit codes: 0 success, 1 usage or invalid parameters, 2 numerical
failure (non-convergence, lost brackets, vanishing denominators),
3 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager

from ._util import fmt17
from .errors import (BracketError, ConvergenceError, DomainTooSmallError,
                     InvalidArgumentError, UnsupportedParameterError,
                     ZeroDenominatorError)
from .signal import NormParams, TrigPoly, corpus, default_corpus


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse terminates with status 2 on bad flags; route through the
    usage exit code instead."""

    def error(self, message):
        raise _UsageError(message)


def parse_fn(spec: str) -> tuple[str, TrigPoly]:
    """Resolve a corpus mini-grammar spec to (id, polynomial).

    Forms: ``const``, ``exp:<n>``, ``random:<degree>[:<seed>]``,
    ``sawtooth:<degree>``, ``abssin:<degree>``.
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "const" and len(parts) == 1:
            return spec, corpus("exponential", 0)
        if kind == "exp" and len(parts) == 2:
            return spec, corpus("exponential", int(parts[1]))
        if kind == "random" and len(parts) in (2, 3):
            seed = int(parts[2]) if len(parts) == 3 else 0
            return spec, corpus("random_smooth", int(parts[1]), seed=seed)
        if kind == "sawtooth" and len(parts) == 2:
            return spec, corpus("sawtooth_truncated", int(parts[1]))
        if kind == "abssin" and len(parts) == 2:
            return spec, corpus("abs_sin_truncated", int(parts[1]))
    except ValueError as exc:
        raise _UsageError(f"bad function spec {spec!r}: {exc}") from exc
    raise _UsageError(f"unknown function spec {spec!r}")


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad numeric list {text!r}") from exc


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{fmt17(z.real)} {sign} {fmt17(abs(z.imag))}i"


@contextmanager
def _open_out(path):
    """The stream behind ``--out``: stdout for ``-`` (left open), otherwise
    a file that is closed on exit."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


@functools.cache
def _build_parser() -> _Parser:
    """The parser of ``main``, built once per process.  Parsing leaves it
    as it was: each call gets a fresh namespace, and ``append`` copies its
    default list before appending."""
    p = _Parser(prog="fracsmooth",
                description="fractional smoothness toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("psi", parents=[], help="evaluate z and psi at (beta, t)")
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--t", type=float, required=True)

    q = sub.add_parser("curve", help="export the kernel curve as CSV")
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--t-lo", type=float, default=0.0)
    q.add_argument("--t-hi", type=float, required=True)
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--out", default="-")

    q = sub.add_parser("zeros", help="scan the zero set, write JSON registry")
    q.add_argument("--beta-max", type=float, default=40.0)
    q.add_argument("--t-max", type=float, default=40.0 * math.pi)
    q.add_argument("--beta-min", type=float, default=0.0)
    q.add_argument("--beta-grid", type=int, default=120)
    q.add_argument("--t-grid", type=int, default=512)
    q.add_argument("--out", default="-")

    q = sub.add_parser("modulus", help="compute one modulus value")
    q.add_argument("--kind", choices=("omega", "w", "tilde", "star"),
                   required=True)
    q.add_argument("--fn", required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--h", type=float, required=True)
    q.add_argument("--p", type=float, required=True)

    q = sub.add_parser("equiv", help="equivalence-ratio scan report")
    q.add_argument("--fn", action="append", default=[],
                   help="corpus member spec; repeatable")
    q.add_argument("--full-corpus", action="store_true",
                   help="use the built-in six-member corpus")
    q.add_argument("--betas", type=_floats, default=[0.5, 1.0, 2.5])
    q.add_argument("--hs", type=_floats, default=[0.05, 0.2, 1.0])
    q.add_argument("--ps", type=_floats, default=[1.0, 2.0, math.inf])
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--threads", type=int, default=1)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.add_argument("--out", default="-")
    return p


def _cmd_psi(args) -> int:
    from .kernel import psi_eval, z_eval
    z = z_eval(args.beta, args.t)
    psi = psi_eval(args.beta, args.t)
    print(f"z = {_fmt_complex(z)}")
    print(f"psi = {_fmt_complex(psi)}")
    return 0


def _cmd_curve(args) -> int:
    from .kernel import curve_points, write_curve_csv
    ts, zs = curve_points(args.beta, args.t_lo, args.t_hi, args.samples)
    with _open_out(args.out) as fh:
        write_curve_csv(fh, args.beta, ts, zs)
    return 0


def _cmd_zeros(args) -> int:
    from .zeros import scan_zero_set, write_registry
    records = scan_zero_set(args.beta_max, args.t_max,
                            args.beta_grid, args.t_grid,
                            beta_min=args.beta_min)
    with _open_out(args.out) as fh:
        write_registry(fh, records)
    return 0


def _cmd_modulus(args) -> int:
    from .moduli import (ModulusRequest, classical_modulus, integral_modulus,
                         linearized_modulus, star_modulus)
    _, f = parse_fn(args.fn)
    alpha = args.alpha if args.kind == "star" else None
    req = ModulusRequest(beta=args.beta, h=args.h,
                         norm=NormParams(p=args.p), alpha=alpha)
    dispatch = {"omega": classical_modulus, "w": integral_modulus,
                "tilde": linearized_modulus, "star": star_modulus}
    print(fmt17(dispatch[args.kind](f, req)))
    return 0


def _cmd_equiv(args) -> int:
    from .moduli import equivalence_scan, write_report_csv, write_report_json
    corp = list(default_corpus()) if args.full_corpus else []
    corp.extend(parse_fn(spec) for spec in args.fn)
    rows = equivalence_scan(corp, args.betas, args.hs, args.ps,
                            alpha=args.alpha, threads=args.threads)
    with _open_out(args.out) as fh:
        if args.format == "json":
            write_report_json(fh, rows)
        else:
            write_report_csv(fh, rows)
    return 0


_COMMANDS = {
    "psi": _cmd_psi,
    "curve": _cmd_curve,
    "zeros": _cmd_zeros,
    "modulus": _cmd_modulus,
    "equiv": _cmd_equiv,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InvalidArgumentError, UnsupportedParameterError,
            DomainTooSmallError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, BracketError, ZeroDenominatorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

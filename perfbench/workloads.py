"""The benchmark's three workloads, built from a seed.

A workload is a list of items, each one public call of the library or the
CLI, run back to back by one caller (a closed loop with one client); one
pass over the items (plus the workload's ``finish`` step) is one job.  The
program is reached only through attribute lookups on ``fracsmooth`` and
``fracsmooth.cli`` at call time, so the tracer's wrappers see every call.

``outputs`` turns a job's results into the bytes the program produced (the
files the CLI wrote, the report CSV lines, the repr of returned floats);
``check`` judges the first job's bytes with the independent oracles, and
later jobs must reproduce them byte for byte.
"""
from __future__ import annotations

import functools
import json
import math
import os
import random

import numpy as np

import fracsmooth as fs
import fracsmooth.cli

import oracles


class Workload:
    """Items of one job; subclasses fill ``self.items`` with (name, call)."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.items: list[tuple[str, object]] = []

    def path(self, filename):
        return os.path.join(self.workdir, filename)

    def finish(self, values: dict) -> None:
        """Timed tail of a job, after its items (nothing by default)."""

    def outputs(self, values: dict) -> dict:
        """item name -> output bytes, for the items that returned."""
        raise NotImplementedError

    def check(self, outputs: dict) -> dict:
        """item name -> failure reason (None when the item passes)."""
        raise NotImplementedError


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _cli_output(rc, path):
    return b"rc=%d\n" % rc + _read(path)


def _cli_body(data):
    """Split ``_cli_output`` bytes into (return code, file bytes)."""
    head, _, body = data.partition(b"\n")
    return int(head[3:]), body


class ZerosScan(Workload):
    """A window of the zero-set scan through the CLI, then ``find_beta0``.

    The window is beta in (7, 8.875] with 10 columns: the columns of the
    full ``--beta-min 4 --beta-max 16 --beta-grid 64`` scan that lie in it
    (step 0.1875), at the same ``--t-max 24pi --t-grid 384``.  It holds the
    shift indices up to k = 11 and beta 8-8.5, where the full scan misses
    zeros.  A job of the full scan takes about 7 s, so a run held too few
    of them for a steady median; a job of the window takes about 1.5 s.

    The column grid is the same for every seed.  The scan's record set is
    chaotic in the grid (a shift of 1e-7 of a column step already moves the
    full scan between 35 and 41 records, and the job time with it by up to
    15%), so a seeded jitter would make ``job_s`` measure the seed, not the
    code.
    """

    name = "zeros-scan"
    ARGS = ["--beta-min", "7", "--beta-max", "8.875",
            "--t-max", repr(24.0 * math.pi),
            "--beta-grid", "10", "--t-grid", "384"]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.argv = ["zeros", *self.ARGS, "--out", self.path("registry.json")]
        self.items = [("zeros", lambda: fracsmooth.cli.main(self.argv)),
                      ("find_beta0", lambda: fs.find_beta0())]

    def outputs(self, values):
        out = {}
        if "zeros" in values:
            out["zeros"] = _cli_output(values["zeros"], self.argv[-1])
        if "find_beta0" in values:
            r = values["find_beta0"]
            out["find_beta0"] = json.dumps(
                {"beta": r.beta_k, "t": r.t_k, "residual": r.residual,
                 "bracket": list(r.bracket), "branch": r.branch_index},
                sort_keys=True).encode()
        return out

    def check(self, outputs):
        rc, body = _cli_body(outputs["zeros"])
        return {"zeros": (f"exit code {rc}" if rc
                          else oracles.check_registry(body)),
                "find_beta0": oracles.check_beta0(outputs["find_beta0"])}


class EquivCorpus(Workload):
    """The ``equiv --full-corpus`` grid, one row per ``equivalence_scan``
    call, then the CSV report.  The seed draws the phases of the two random
    corpus members; sizes and the parameter grid are fixed."""

    name = "equiv-corpus"
    BETAS = (0.5, 1.0, 2.5)
    HS = (0.05, 0.2, 1.0)
    PS = (1.0, 2.0, math.inf)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        specs = ["exp:1", "exp:3",
                 f"random:8:{rng.randrange(1 << 30)}",
                 f"random:16:{rng.randrange(1 << 30)}",
                 "sawtooth:8", "abssin:8"]
        self.corpus = [fracsmooth.cli.parse_fn(s) for s in specs]
        self.keys = {}
        for fid, f in self.corpus:
            for b in self.BETAS:
                for h in self.HS:
                    for p in self.PS:
                        name = f"{fid}|{b}|{h}|{p}"
                        self.keys[name] = (fid, b, h, p)
                        self.items.append((name, functools.partial(
                            self._row, fid, f, b, h, p)))
        self.report = self.path("report.csv")

    @staticmethod
    def _row(fid, f, b, h, p):
        return fs.equivalence_scan([(fid, f)], [b], [h], [p], threads=1)[0]

    def _rows(self, values):
        return sorted(((self.keys[n], n) for n in values),
                      key=lambda kn: kn[0])

    def finish(self, values):
        rows = [values[n] for _, n in self._rows(values)]
        with open(self.report, "w", encoding="utf-8", newline="") as fh:
            fs.write_report_csv(fh, rows)

    def outputs(self, values):
        lines = _read(self.report).splitlines(keepends=True)[1:]
        return {n: line for (_, n), line in zip(self._rows(values), lines)}

    def check(self, outputs):
        psi = oracles.SeriesPsi(max(f.degree for _, f in self.corpus))
        polys = {fid: oracles.Parseval(f.coeffs, psi)
                 for fid, f in self.corpus}
        return {n: oracles.check_report_row(data, polys[self.keys[n][0]])
                for n, data in outputs.items()}


class KernelBatch(Workload):
    """Wide batches through the kernel: curve exports, linearized and
    gapped moduli of a degree-1024 polynomial, comparison-function brackets
    and non-vanishing floors.  The seed draws the polynomial's phases.

    Sixteen curves (rather than ten) put the 90th latency percentile inside
    the curve-export cluster instead of on the edge between clusters, where
    it would jump between a 50 ms and a 130 ms item from run to run.
    """

    name = "kernel-batch"
    CURVE_BETAS = tuple(float(b) for b in np.linspace(0.5, 16.0, 16))
    CURVE_SAMPLES = 8192
    PAIRS = ((1.5, 1.5), (2.5, 2.5), (3.5, 2.5), (5.0, 4.0))
    HS = (0.05, 0.2, 1.0)
    PS = (1.0, 2.0, math.inf)
    GTAU_BETAS = (0.5, 2.5, 3.9)
    FLOORS = ((0.5, 0.05, 8.0 * math.pi, 2048),
              (3.9, 0.05, 8.0 * math.pi, 2048),
              (4.85, 0.05, math.pi - 0.05, 3042),
              (8.0, 0.05, math.pi - 0.05, 3042))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        poly_seed = random.Random(seed).randrange(1 << 30)
        self.f = fs.corpus("random_smooth", 1024, seed=poly_seed)
        self.argvs = {}
        for i, b in enumerate(self.CURVE_BETAS):
            name = f"curve|{b!r}"
            self.argvs[name] = [
                "curve", "--beta", repr(b), "--t-lo", "0",
                "--t-hi", repr(16.0 * math.pi),
                "--samples", str(self.CURVE_SAMPLES),
                "--out", self.path(f"curve{i}.csv")]
            self.items.append((name, functools.partial(
                self._cli, self.argvs[name])))
        self.moduli = {}
        for beta, alpha in self.PAIRS:
            for h in self.HS:
                for p in self.PS:
                    for kind, a in (("tilde", None), ("star", alpha)):
                        name = f"{kind}|{beta}|{alpha}|{h}|{p}"
                        self.moduli[name] = (beta, a, h, p)
                        self.items.append((name, functools.partial(
                            self._modulus, self.f, beta, a, h, p)))
        for beta in self.GTAU_BETAS:
            for tau in np.arange(0.1, 0.95, 0.1):
                self.items.append((f"gtau|{beta}|{tau:.1f}", functools.partial(
                    self._gtau, beta, float(tau))))
        for args in self.FLOORS:
            self.items.append((f"floor|{args[0]}", functools.partial(
                self._floor, *args)))

    @staticmethod
    def _cli(argv):
        return fracsmooth.cli.main(argv)

    @staticmethod
    def _modulus(f, beta, alpha, h, p):
        req = fs.ModulusRequest(beta=beta, h=h, norm=fs.NormParams(p=p),
                                alpha=alpha)
        if alpha is None:
            return fs.linearized_modulus(f, req)
        return fs.star_modulus(f, req)

    @staticmethod
    def _gtau(beta, tau):
        return fs.beurling_bound(fs.make_g_tau(beta, tau), 3.0)

    @staticmethod
    def _floor(beta, t_lo, t_hi, grid):
        return fs.verify_nonvanishing(beta, t_lo, t_hi, grid)

    def outputs(self, values):
        out = {}
        for name, value in values.items():
            if name in self.argvs:
                out[name] = _cli_output(value, self.argvs[name][-1])
            else:
                out[name] = repr(float(value)).encode()
        return out

    def check(self, outputs):
        parseval = oracles.Parseval(self.f.coeffs,
                                    oracles.SeriesPsi(self.f.degree))
        verdicts = {}
        for name, data in outputs.items():
            if name in self.argvs:
                rc, body = _cli_body(data)
                verdicts[name] = (
                    f"exit code {rc}" if rc
                    else oracles.check_curve(body, self.CURVE_SAMPLES))
            elif name in self.moduli:
                verdicts[name] = oracles.check_modulus(
                    data, parseval, *self.moduli[name])
            else:
                verdicts[name] = oracles.check_positive(data)
        return verdicts


WORKLOADS = {w.name: w for w in (ZerosScan, EquivCorpus, KernelBatch)}

"""Self-tests of the benchmark: the oracles reject wrong outputs, traced
counts repeat exactly, and the printed metric names are BENCHMARK.json's.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import fracsmooth as fs
import fracsmooth.cli

import oracles
import refclock
from spans import SpanStats, Tracer, layer_metrics
from worker import Job, failures
from workloads import EquivCorpus, KernelBatch, ZerosScan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# each oracle flags a deliberately wrong output
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def beta0():
    return fs.find_beta0()


def test_registry_check_flags_record_shifted_in_beta(beta0):
    rec = {"beta": beta0.beta_k, "t": beta0.t_k, "branch": 1,
           "residual": beta0.residual, "bracket": list(beta0.bracket)}
    assert oracles.check_registry(json.dumps([rec]).encode()) is None
    shifted = dict(rec, beta=rec["beta"] + 1e-6)
    assert oracles.check_registry(json.dumps([rec, shifted]).encode())


def test_beta0_check_flags_shifted_pair(beta0):
    good = {"beta": beta0.beta_k, "t": beta0.t_k}
    assert oracles.check_beta0(json.dumps(good).encode()) is None
    bad = dict(good, beta=good["beta"] + 1e-6)
    assert oracles.check_beta0(json.dumps(bad).encode())


def _report_line(fid, beta, h, p):
    _, f = fracsmooth.cli.parse_fn(fid)
    rows = fs.equivalence_scan([(fid, f)], [beta], [h], [p])
    buf = io.StringIO()
    fs.write_report_csv(buf, rows)
    return f, buf.getvalue().splitlines()[1]


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_row_check_flags_tilde_above_w(p):
    f, line = _report_line("random:8:3", 2.5, 0.2, p)
    parseval = oracles.Parseval(f.coeffs, oracles.SeriesPsi(f.degree))
    assert oracles.check_report_row(line.encode(), parseval) is None
    rec = next(csv.reader([line]))
    i_w, i_t = fs.CSV_HEADER.index("w"), fs.CSV_HEADER.index("omega_tilde")
    rec[i_t] = repr(float(rec[i_w]) * 1.01)
    assert oracles.check_report_row(",".join(rec).encode(), parseval)


def test_row_check_flags_omega_off_parseval():
    f, line = _report_line("sawtooth:8", 1.0, 0.2, 2.0)
    parseval = oracles.Parseval(f.coeffs, oracles.SeriesPsi(f.degree))
    rec = next(csv.reader([line]))
    i_o = fs.CSV_HEADER.index("omega")
    rec[i_o] = repr(float(rec[i_o]) * (1.0 + 1e-4))
    assert oracles.check_report_row(",".join(rec).encode(), parseval)


def test_curve_check_flags_sample_off_by_1e_6(tmp_path):
    out = tmp_path / "curve.csv"
    rc = fracsmooth.cli.main(["curve", "--beta", "2.5", "--t-hi", "20",
                              "--samples", "64", "--out", str(out)])
    assert rc == 0
    data = out.read_bytes()
    assert oracles.check_curve(data, 64) is None
    lines = data.decode().splitlines()
    beta, t, x, y = lines[-1].split(",")
    lines[-1] = ",".join([beta, t, repr(float(x) + 1e-6), y])
    assert oracles.check_curve(("\n".join(lines) + "\n").encode(), 64)


def test_modulus_check_flags_wrong_parseval_value():
    f = fs.corpus("random_smooth", 64, seed=4)
    parseval = oracles.Parseval(f.coeffs, oracles.SeriesPsi(f.degree))
    req = fs.ModulusRequest(beta=2.5, h=0.2, norm=fs.NormParams(p=2.0))
    v = fs.linearized_modulus(f, req)
    assert oracles.check_modulus(repr(v).encode(), parseval,
                                 2.5, None, 0.2, 2.0) is None
    assert oracles.check_modulus(repr(v * (1 + 1e-6)).encode(), parseval,
                                 2.5, None, 0.2, 2.0)


@pytest.mark.parametrize("value", ["0.0", "-1.5", "nan", "inf"])
def test_positive_check_flags_nonpositive(value):
    assert oracles.check_positive(value.encode())


# ---------------------------------------------------------------------------
# failures are counted per item, never fatal
# ---------------------------------------------------------------------------

class SmallScan(ZerosScan):
    ARGS = ["--beta-min", "4", "--beta-max", "6", "--t-max", "20",
            "--beta-grid", "6", "--t-grid", "64"]


class SmallEquiv(EquivCorpus):
    BETAS = (2.5,)
    HS = (0.2,)
    PS = (2.0, math.inf)


class SmallBatch(KernelBatch):
    CURVE_BETAS = (2.5,)
    CURVE_SAMPLES = 256
    PAIRS = ((3.5, 2.5),)
    HS = (0.2,)
    PS = (2.0,)
    GTAU_BETAS = (2.5,)
    FLOORS = ((3.9, 0.05, 8.0 * math.pi, 256),)


SMALL = [SmallScan, SmallEquiv, SmallBatch]


def test_raising_item_and_changed_output_count_as_failures(tmp_path):
    wl = SmallEquiv(1, str(tmp_path))
    first = Job(wl)
    name, call = wl.items[0]
    wl.items[0] = (name, lambda: 1 / 0)
    second = Job(wl)
    wl.items[0] = (name, call)
    third = Job(wl)
    third.outputs[wl.items[1][0]] += b"x"
    failed = failures(wl, [first, second, third])
    assert [(j, n) for j, n, _ in failed] == [(1, name), (2, wl.items[1][0])]
    assert "ZeroDivisionError" in failed[0][2]


def test_job_times_are_scaled_by_the_probes(tmp_path, monkeypatch):
    # a host at half the reference speed: reference times are twice wall
    monkeypatch.setattr(refclock, "probe", lambda: 0.5 * refclock.REF_S)
    wl = SmallEquiv(1, str(tmp_path))
    job = Job(wl)
    assert len(job.latencies) == len(wl.items)
    assert job.seconds == pytest.approx(2.0 * job.wall_s, rel=1e-12)
    assert sum(job.latencies) <= job.seconds


# ---------------------------------------------------------------------------
# traced runs: exact counts, unchanged outputs
# ---------------------------------------------------------------------------

def _counts(wl):
    tracer = Tracer()
    with tracer:
        job = Job(wl)
    metrics = layer_metrics(SpanStats(tracer), 0.0)
    return job, {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.__name__)
def test_traced_counts_repeat_and_outputs_unchanged(cls, tmp_path):
    wl = cls(7, str(tmp_path))
    plain = Job(wl)
    job1, counts1 = _counts(wl)
    job2, counts2 = _counts(cls(7, str(tmp_path)))
    assert counts1 == counts2
    assert sum(v for v in counts1.values()) > 0
    assert job1.outputs == plain.outputs == job2.outputs
    assert failures(wl, [plain, job1]) == []


def test_tracer_restores_every_binding():
    import fracsmooth.zeros
    before = (fracsmooth.zeros.z_span, fs.find_beta0,
              fracsmooth.cli.main, fracsmooth.moduli.lp_norm)
    with Tracer() as tracer:
        assert fracsmooth.zeros.z_span is not before[0]
        assert fracsmooth.moduli.lp_norm is not before[3]
    assert tracer.absent == []
    assert (fracsmooth.zeros.z_span, fs.find_beta0,
            fracsmooth.cli.main, fracsmooth.moduli.lp_norm) == before


def test_traced_scan_counts_steps(tmp_path):
    _, counts = _counts(SmallScan(1, str(tmp_path)))
    assert counts["zeros.records"] >= 1
    assert counts["zeros.beta_steps_per_crossing"] > 10
    assert counts["zeros.y_steps_per_bracket"] > 1
    assert counts["kernel.z_span.calls"] > 0
    assert counts["cli.output_bytes"] > 0


# ---------------------------------------------------------------------------
# printed metric names are BENCHMARK.json's
# ---------------------------------------------------------------------------

def test_layer_metric_names_match_benchmark_json():
    names = set(layer_metrics(SpanStats(Tracer()), 0.0))
    assert names == {m["name"] for m in spec()["per_layer"]}


def _run(cwd, trace, workload="equiv-corpus"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_result_matches_benchmark_json(trace):
    out = _run(ROOT, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, 0, "zeros-scan")
    assert out.returncode != 0
    assert out.stdout == ""

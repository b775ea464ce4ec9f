"""fracsmooth benchmark: one workload per fresh, single-threaded interpreter.

Run from the repository root::

    python3 perfbench/run.py --workload zeros-scan --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics (from one extra job run under the span tracer; spans
are written to .perfbench/spans-<workload>-<seed>.json).  The last line of
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment, the job-time
quartiles, ``fail_ratio`` and the reason for every failed item.

Set-up time is the median over several fresh interpreters of the time from
process start until fracsmooth is imported and the inputs are built.  Every
time metric is in reference seconds: wall time scaled by the speed of the
host at that moment, as refclock.py measures it; the wall-clock medians are
on the line before the result.  The library comes from ./src; nothing is
installed or compiled, so the active backend is whatever
``fracsmooth.backend_name()`` reports.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("zeros-scan", "equiv-corpus", "kernel-batch")
SETUP_REPEATS = 7
#: the whole run, set-up included, must end within this many seconds
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def source_digest(src):
    """sha256 over the package sources, standing in for a commit id when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "fracsmooth")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env(src):
    env = dict(os.environ)
    env.pop("FRACSMOOTH_BACKEND", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=src)
    return env


def start_worker(argv, env, cwd, deadline):
    """Start a worker; return (process, seconds until it printed 'ready')."""
    t0 = time.perf_counter()
    # unbuffered, so readline takes no bytes past 'ready' that communicate,
    # which reads the pipe itself, would then never see
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd,
                            bufsize=0)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    if time.monotonic() > deadline:
        proc.kill()
        proc.wait()
        raise BenchError("set-up exceeded the deadline")
    return proc, setup_s


def finish_worker(proc, deadline):
    """Wait for a started worker; return its last output line as JSON."""
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = out.decode().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(root, spec, workload, seed, seconds, trace):
    src = os.path.join(root, "src")
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    env = child_env(src)
    deadline = time.monotonic() + DEADLINE_S
    base = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", workdir, "--src", src]
    try:
        setups, setup_probes = [], []
        for _ in range(SETUP_REPEATS - 1):
            proc, s = start_worker(base + ["--setup-only"], env, root,
                                   deadline)
            out = finish_worker(proc, deadline)
            setups.append(s)
            setup_probes.append(out["setup_probe"])
        spans_out = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
        proc, s = start_worker(base + ["--spans-out", spans_out], env, root,
                               deadline)
        raw = finish_worker(proc, deadline)
        setups.append(s)
        setup_probes.append(raw["setup_probe"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    job_s = raw["job_s"]
    setup_ref = [s * refclock.REF_S / p for s, p in zip(setups, setup_probes)]
    measured = {
        "setup_s": statistics.median(setup_ref),
        "job_s": statistics.median(job_s),
        "item_p50_ms": raw["item_p50_s"] * 1e3,
        "item_p90_ms": raw["item_p90_s"] * 1e3,
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    if trace:
        measured = raw["layers"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(measured):
        raise BenchError("metric names differ from BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(measured))}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    info = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "jobs": raw["jobs"],
        "items_per_job": raw["items_per_job"],
        "job_s_samples": job_s,
        "job_s_quartiles": (statistics.quantiles(job_s, n=4)
                            if len(job_s) > 1 else job_s * 3),
        "job_wall_s_median": statistics.median(raw["job_wall_s"]),
        "setup_s_samples": setup_ref,
        "setup_wall_s_median": statistics.median(setups),
        "check_s": raw["check_s"],
        "fail_ratio": raw["failed"] / raw["attempted"],
        "failures": raw["failures"],
        "absent_spans": raw.get("absent_spans", []),
        "env": {
            "backend": raw["backend"],
            "python": sys.version.split()[0],
            "numpy": raw["numpy"],
            "nproc": os.cpu_count(),
            "git_commit": git_commit(root),
            "source_digest": source_digest(src),
        },
    }
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return info, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracsmooth",
                                       "__init__.py")):
        print("run.py: no fracsmooth sources under ./src; run from the root "
              "of a fracsmooth checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            info, result = run_workload(root, spec, name, args.seed,
                                        args.seconds, args.trace)
            print(json.dumps(info))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

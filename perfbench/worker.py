"""One workload in one fresh interpreter (started by run.py).

Prints ``ready`` once fracsmooth is imported and the inputs are built, so
the parent can time set-up, then times the reference kernel (refclock) so
the parent can scale that time.  With ``--setup-only`` it stops there.
Otherwise it runs jobs back to back until ``--seconds`` have passed, checks
the outputs, and prints one JSON line with the raw measurements.  With
``--trace 1`` it then runs one more job under the span tracer and derives the
per-layer metrics from that job's spans.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import refclock


def quantiles(values):
    """(p50, p90) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), q[8]


class Job:
    """Results, per-item latencies and errors of one pass over the items.

    ``latencies`` (items only) and ``seconds`` (items plus ``finish``) are
    in reference seconds (see refclock); ``wall_s`` is the job's wall time.
    """

    def __init__(self, workload):
        self.values, self.errors = {}, {}
        clock = time.perf_counter
        walls, scales = [], []
        before, stretch = refclock.probe(), 0.0
        for name, call in workload.items:
            t0 = clock()
            try:
                self.values[name] = call()
            except Exception as exc:  # noqa: BLE001 - counted, never fatal
                self.errors[name] = f"{type(exc).__name__}: {exc}"
            walls.append(clock() - t0)
            stretch += walls[-1]
            if stretch >= refclock.EVERY_S:
                before, stretch = self._settle(walls, scales, before), 0.0
        t0 = clock()
        try:
            workload.finish(self.values)
        except Exception as exc:  # noqa: BLE001
            self.errors["finish"] = f"{type(exc).__name__}: {exc}"
        walls.append(clock() - t0)
        self._settle(walls, scales, before)
        self.outputs = {}
        if "finish" not in self.errors:
            try:
                self.outputs = workload.outputs(self.values)
            except Exception as exc:  # noqa: BLE001
                self.errors["finish"] = f"{type(exc).__name__}: {exc}"
        ref = [w * k for w, k in zip(walls, scales)]
        self.latencies = ref[:-1]
        self.seconds = sum(ref)
        self.wall_s = sum(walls)

    @staticmethod
    def _settle(walls, scales, before):
        """Probe the host's speed and scale the steps since the last probe."""
        after = refclock.probe()
        scales += [refclock.scale(before, after)] * (len(walls) - len(scales))
        return after


def failures(workload, jobs):
    """(job index, item, reason) for every item that raised, failed its
    oracle check (first job) or changed its output bytes (later jobs)."""
    first = jobs[0].outputs
    verdicts = workload.check(first)
    out = []
    for j, job in enumerate(jobs):
        for name, _ in workload.items:
            if name in job.errors:
                reason = job.errors[name]
            elif name not in job.outputs:
                reason = job.errors.get("finish", "no output")
            elif j == 0:
                reason = verdicts.get(name)
            elif job.outputs[name] != first.get(name):
                reason = "output differs from the first job"
            else:
                reason = None
            if reason:
                out.append((j, name, reason))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import fracsmooth
    import numpy
    where = os.path.realpath(fracsmooth.__file__)
    if not where.startswith(os.path.realpath(args.src) + os.sep):
        print(f"worker: fracsmooth imported from {where}, not {args.src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    # the speed of the host just after set-up, to scale the set-up time
    setup_probe = refclock.probe()
    if args.setup_only:
        print(json.dumps({"setup_probe": setup_probe}), flush=True)
        return 0

    start = time.perf_counter()
    jobs = [Job(workload)]
    # the high-water mark of set-up plus one job: later jobs only add
    # allocator fragmentation, which would tie the figure to the job count
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # start another job only if it should end by the deadline, to within
    # half a job, so runs last --seconds on average rather than overrunning
    while (time.perf_counter() - start
           + 0.5 * statistics.median(j.wall_s for j in jobs) < args.seconds):
        jobs.append(Job(workload))

    job_s = [j.seconds for j in jobs]
    # each item's median latency over the jobs, then percentiles over items
    item_p50_s, item_p90_s = quantiles(
        [statistics.median(lat) for lat in zip(*(j.latencies for j in jobs))])
    result = {
        "jobs": len(jobs),
        "items_per_job": len(workload.items),
        "job_s": job_s,
        "job_wall_s": [j.wall_s for j in jobs],
        "setup_probe": setup_probe,
        "item_p50_s": item_p50_s,
        "item_p90_s": item_p90_s,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "backend": fracsmooth.backend_name(),
        "numpy": numpy.__version__,
    }

    if args.trace:
        from spans import SpanStats, Tracer, layer_metrics
        tracer = Tracer()
        with tracer:
            traced = Job(workload)
        jobs.append(traced)
        stats = SpanStats(tracer)
        result["layers"] = layer_metrics(
            stats, traced.seconds - statistics.median(job_s))
        result["absent_spans"] = tracer.absent
        if args.spans_out:
            tracer.write(args.spans_out)

    t0 = time.perf_counter()
    failed = failures(workload, jobs)
    result["check_s"] = time.perf_counter() - t0
    result["attempted"] = len(workload.items) * len(jobs)
    result["failed"] = len(failed)
    result["failures"] = [f"job {j} {name}: {why}"
                          for j, name, why in failed[:20]]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

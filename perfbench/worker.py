"""Run one workload's job list in this process, one job at a time.

    python3 perfbench/worker.py PLAN [--passes N] [--trace SPANS]

PLAN holds the generated jobs with their job-file paths filled in.
Each job runs through ``cfperiod.cli.main`` with stdout and stderr captured;
its latency covers that call alone, and its output is checked afterwards.
The list runs ``--passes`` times (once by default).  The count is fixed, not
timed: the first pass fills the process-wide caches, so a stop after so many
seconds would make the share of cold passes, and with it every figure, depend
on the host's speed.

The host's speed changes every few seconds, by up to 60 %, so a fixed piece of
work, ``probe``, that does not touch cfperiod is timed after every job.  Each
latency is scaled by ``PROBE_REF_S`` over the mean of the probe times on either
side of the job: the reported times are those of a host on which the probe
takes ``PROBE_REF_S`` seconds.  The raw times are reported as well.  With
``--trace`` the layer tracer is installed and its spans are written to SPANS
at the end.  The result is printed as one JSON object on the last line of
stdout.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

import checks

# what ``probe`` takes on the reference host (a 2-vCPU machine in its fast
# state, CPython 3.11); a shorter probe tracks the host worse
PROBE_REF_S = 0.004
_MOD = 10 ** 300 + 7


def probe() -> float:
    """Time a fixed mix of the work cfperiod does (Fractions, big integers,
    small containers) and return the seconds it took.  The garbage collector
    is paused meanwhile: a full collection that lands in a probe would make
    its neighbours' times look several times shorter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 800):
            acc += Fraction(i, i + 7)
            table[i % 53, i] = [i] * 3
        x = 3 ** 400
        for _ in range(400):
            x = x * x % _MOD
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # e.g. argparse rejecting the job's arguments
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a raw traceback is a failed job, not a crash
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            code = -1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    jobs, digests = plan["jobs"], plan["digests"]

    # set-up, not timed: every CLI invocation pays these imports
    import mpmath  # noqa: F401
    import sympy  # noqa: F401

    import cfperiod.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    lat = {j["id"]: [] for j in jobs}
    raw = {j["id"]: [] for j in jobs}
    probes = []
    attempted = failed = 0
    failures = []
    periods_rows = periods_closed = 0
    before = probe()
    for pass_no in range(args.passes):
        for job in jobs:
            if tracer:
                tracer.job = job["id"]
            code, out, err, dt = run_job(cli, job["argv"])
            after = probe()
            attempted += 1
            raw[job["id"]].append(dt)
            lat[job["id"]].append(dt * 2 * PROBE_REF_S / (before + after))
            probes.append(after)
            before = after
            bad = checks.problems(job, code, out, err)
            if digests is not None and checks.digest(code, out) != digests.get(job["id"]):
                bad.append("output differs from the recorded reference")
            if bad:
                failed += 1
                failures.append({"job": job["id"], "problems": bad[:3]})
            if pass_no == 0 and job["argv"][0] == "periods":
                closed = [c for ell, c in checks.periods_rows(out.splitlines())[0].values()
                          if ell > 0]
                periods_rows += len(closed)
                periods_closed += sum(closed)
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "passes": args.passes,
        "latencies": lat,
        "wall_s": sum(statistics.median(v) for v in lat.values()),
        "raw_wall_s": sum(statistics.median(v) for v in raw.values()),
        "probe_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        tracer.write_spans(args.trace)
        periods_jobs = {j["id"] for j in jobs if j["argv"][0] == "periods"}
        result["layers"] = tracer.metrics(periods_rows, periods_closed, periods_jobs)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The cfperiod benchmark: seeded CLI workloads, checked outputs, named metrics.

    python3 perfbench/run.py --workload periods_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --record-digests        # re-record the references

Run it from the root of a source checkout.  It generates the workload's job
files from the seed, then twice in turn measures set-up (fresh
interpreters importing ``cfperiod.cli``, sympy and mpmath) and starts a worker
process that runs the job list through ``cfperiod.cli.main`` (closed loop,
one job at a time) in a fixed number of whole passes: one for every
``SECONDS_PER_PASS`` of ``--seconds``, at least two.  Every
output is checked; for the default seed it must also match the recorded
reference byte for byte.  Job and set-up times are scaled to a reference
host speed by a probe timed around each of them (see worker.py); the raw
times are in the details line.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
runs one pass of the list untraced and one traced, each in a fresh worker,
and reports the per-layer metrics.  Each metric is printed as
``name value unit``; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  BENCHMARK.json lists the metrics,
their units and bounds; README.md maps each layer metric to the end-to-end
metric and workload it should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
# The host's speed differs between processes as well as over time, so each
# run is spread over WORKERS fresh workers whose job times are pooled.
WORKERS = 2
SETUP_RUNS = 3  # before each worker, so set-up is sampled across the run
SECONDS_PER_PASS = 10
PASS_TIMEOUT_S = 35  # at two passes, two workers and their set-ups end within 180 s

sys.path.insert(0, HERE)
import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    sources = sorted(os.path.join(dp, f) for dp, _dn, fs in os.walk(os.path.join(SRC, "cfperiod"))
                     for f in fs if f.endswith(".py"))
    h = hashlib.sha256()
    for path in sources:
        with open(path, "rb") as fh:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() or commit
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": h.hexdigest(),
            "python": platform.python_version(),
            "sympy": metadata.version("sympy"), "mpmath": metadata.version("mpmath"),
            "nproc": os.cpu_count(), "cpu": cpu}


def host_speed() -> float:
    """Median of three probe times (worker.probe); one probe is too noisy next
    to a set-up of half a second."""
    return statistics.median(worker.probe() for _ in range(3))


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing the CLI and its libraries,
    scaled by the probe times on either side as a job's latency is, and raw."""
    code = "import sympy, mpmath, cfperiod.cli"
    scaled, raw = [], []
    before = host_speed()
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                       timeout=120)
        raw.append(time.perf_counter() - t0)
        after = host_speed()
        scaled.append(raw[-1] * 2 * worker.PROBE_REF_S / (before + after))
        before = after
    return scaled, raw


def write_plan(workload: str, seed: int, work: str, digests) -> tuple[str, int]:
    """Write the job files and the worker's plan; return its path and job count."""
    jobs = workloads.GENERATORS[workload](seed)
    for i, job in enumerate(jobs):
        if job["spec"] is not None:
            path = os.path.join(work, f"job{i:03d}.json")
            with open(path, "w") as fh:
                json.dump(job["spec"], fh)
            job["argv"] = [path if a == "{job}" else a for a in job["argv"]]
    plan = os.path.join(work, "plan.json")
    with open(plan, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs, "digests": digests}, fh)
    return plan, len(jobs)


def run_worker(plan: str, passes: int = 1, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan,
           "--passes", str(passes), *extra]
    got = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                         timeout=passes * PASS_TIMEOUT_S)
    if got.returncode != 0:
        raise RuntimeError(f"worker failed ({got.returncode}): {got.stderr.strip()[-2000:]}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def reference_digests(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(DIGESTS) as fh:
        return json.load(fh)["workloads"][workload]


def end_to_end(runs: list[dict], setup_s: float) -> dict:
    """Each job's latency is its median over every pass of every worker; the
    quantiles weigh each job of the list once, however many passes ran."""
    lat = [statistics.median([x for r in runs for x in r["latencies"][job]])
           for job in runs[0]["latencies"]]
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "wall_s": (sum(lat), "s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (q[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Return (result line, details) for one workload run."""
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        plan, n_jobs = write_plan(workload, seed, work, reference_digests(workload, seed))
        if trace:
            plain = run_worker(plan)
            spans = os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")
            traced = run_worker(plan, 1, "--trace", spans)
            runs = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["trace_overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1, "ratio")
        else:
            passes = max(2, seconds // SECONDS_PER_PASS)
            setup, raw_setup, runs = [], [], []
            for _ in range(WORKERS):
                scaled, raw = measure_setup(SETUP_RUNS)
                setup += scaled
                raw_setup += raw
                runs.append(run_worker(plan, passes))
            metrics = end_to_end(runs, statistics.median(setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    raw = {"raw_wall_s": statistics.fmean(r["raw_wall_s"] for r in runs),
           "probe_s": statistics.median(r["probe_s"] for r in runs)}
    if not trace:
        raw["raw_setup_s"] = statistics.median(raw_setup)
    details = {"workload": workload, "seed": seed, "step_cap": workloads.STEP_CAP,
               "jobs": n_jobs, "workers": len(runs), "passes": sum(r["passes"] for r in runs),
               "failed_frac": failed / attempted,
               "failures": [f for r in runs for f in r["failures"]],
               "digest_checked": seed == workloads.DEFAULT_SEED, **raw,
               "environment": environment()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return line, details


def record_digests() -> int:
    sys.path.insert(0, SRC)
    import cfperiod.cli as cli

    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        work = os.path.join(WORK, f"record-{workload}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        with open(write_plan(workload, workloads.DEFAULT_SEED, work, None)[0]) as fh:
            jobs = json.load(fh)["jobs"]
        got = {}
        for job in jobs:
            code, text, err, _dt = worker.run_job(cli, job["argv"])
            bad = checks.problems(job, code, text, err)
            if bad:
                print(f"{workload} {job['id']}: {bad}", file=sys.stderr)
                return 1
            got[job["id"]] = checks.digest(code, text)
        out["workloads"][workload] = got
        shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--record-digests", action="store_true",
                    help="re-record the default seed's reference output digests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cfperiod", "cli.py")):
        print(f"error: no cfperiod sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        line, details = run_one(name, args.seed, args.seconds, bool(args.trace))
        print(f"# {name}: seed {args.seed}, step cap {details['step_cap']}, "
              f"{details['jobs']} jobs, {line['attempted']} runs, "
              f"{details['passes']} whole passes in {details['workers']} workers")
        for metric, m in line["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{name} failed_frac {details['failed_frac']:.6g} ratio")
        print("# details " + json.dumps(details))
        lines.append(line)
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {"correct": all(x["correct"] for x in lines),
                 "attempted": sum(x["attempted"] for x in lines),
                 "failed": sum(x["failed"] for x in lines),
                 "metrics": {f"{n}.{k}": v for n, x in zip(names, lines)
                             for k, v in x["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's output checks: a corrupted output counts as failed.

    python3 perfbench/selftest.py

Runs a few default-seed jobs of every workload, confirms their real outputs
pass both the structural checks and the recorded digests, then corrupts each
output in a way a broken program could (a changed number, a wrong verdict, a
summary that no longer matches its rows) and confirms every corruption is
caught, as is a job whose arguments the CLI rejects.  Last, it runs the
worker on a plan whose reference digest for one job is wrong and confirms the
worker counts exactly that job as failed.
Exits 0 when every check behaves, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import cfperiod.cli as cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

def _bump(pattern):
    """Corruption: add 1 to the integer in group 2 of the first match."""
    return lambda s: re.sub(pattern, lambda m: m.group(1) + str(int(m.group(2)) + 1),
                            s, count=1)


# (command, description, corruption of the output text)
CORRUPTIONS = [
    ("periods", "ell changed in a row", _bump(r"(\n\d+,)(\d+)")),
    ("periods", "truncated row keeps its preperiod",
     lambda s: re.sub(r",-1,(-?\d+),0,1\n", r",5,\1,0,1\n", s, count=1)),
    ("periods", "window summary dropped",
     lambda s: re.sub(r"# window [^\n]*\n", "", s, count=1)),
    ("periods", "lower-bound marker dropped", lambda s: s.replace(" (lower bound)", "", 1)),
    ("classify", "verdict changed",
     lambda s: s.replace("verdict: ProvenUnbounded", "verdict: ClassC_c (possibly bounded)", 1)),
    ("classify", "unknown step tag", lambda s: re.sub(r"step: [BC]\.\d", "step: C.9", s, count=1)),
    ("growth", "growth check flipped",
     lambda s: s.replace("# growth_check: pass", "# growth_check: fail")),
    ("growth", "garbled row", lambda s: re.sub(r"\n(\d+),", r"\n\1;", s, count=1)),
    ("schinzel", "running max disagrees", _bump(r"(# running_max: n=\d+ ell=)(\d+)")),
    ("cf", "period length disagrees", _bump(r"(ell = )(\d+)")),
    ("props", "closed form reported failing", lambda s: s.replace(",pass\n", ",fail\n", 1)),
]


def main() -> int:
    errors = []
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        samples = {}
        for workload in workloads.WORKLOADS:
            digests = run.reference_digests(workload, workloads.DEFAULT_SEED)
            plan, _n = run.write_plan(workload, workloads.DEFAULT_SEED, work, digests)
            with open(plan) as fh:
                jobs = json.load(fh)["jobs"]
            for job in jobs:
                cmd = job["argv"][0]
                if cmd in samples and not job["id"].startswith(("curated:(3+sqrt2)^n:1",
                                                                "C.", "growth.2adic")):
                    continue
                code, out, err, _dt = worker.run_job(cli, job["argv"])
                bad = checks.problems(job, code, out, err)
                if bad or checks.digest(code, out) != digests[job["id"]]:
                    errors.append(f"{workload} {job['id']}: genuine output rejected: {bad}")
                samples.setdefault(cmd, []).append((job, code, out, err))
        for cmd, what, corrupt in CORRUPTIONS:
            hit = False
            for job, code, out, err in samples[cmd]:
                bad_out = corrupt(out)
                if bad_out == out:
                    continue
                hit = True
                if not checks.problems(job, code, bad_out, err):
                    errors.append(f"{cmd}: corruption not caught by the structure check: {what}")
                if checks.digest(code, bad_out) == checks.digest(code, out):
                    errors.append(f"{cmd}: corruption not caught by the digest: {what}")
                break
            if not hit:
                errors.append(f"{cmd}: no sample output to corrupt for: {what}")
        job, code, out, err = samples["periods"][0]
        if not checks.problems(job, 3, out, "internal error: x\n"):
            errors.append("non-zero exit code not counted as a failure")
        code, out, err, _dt = worker.run_job(cli, ["periods", "--no-such-option"])
        if not checks.problems(job, code, out, err):
            errors.append("rejected job arguments not counted as a failure")

        # end to end: one wrong reference digest makes exactly one failed job
        digests = dict(run.reference_digests("short_jobs", workloads.DEFAULT_SEED))
        victim = sorted(digests)[0]
        digests[victim] = "0" * 64
        plan, _n = run.write_plan("short_jobs", workloads.DEFAULT_SEED, work, digests)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            worker.main([plan])
        res = json.loads(buf.getvalue().strip().splitlines()[-1])
        if res["failed"] != 1 or [f["job"] for f in res["failures"]] != [victim]:
            errors.append(f"worker did not count exactly the corrupted job: {res['failures']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print("FAIL", e)
    print(f"selftest: {len(CORRUPTIONS)} corruptions, "
          f"{'all caught' if not errors else f'{len(errors)} problems'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

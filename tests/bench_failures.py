"""Failing-jobs ledger: which jobs of the benchmark's workloads fail, seed by seed.

The benchmark's job lists depend only on the workload and the seed
(``bench.workloads.build``), and a job's outcome on its exit code and
oracle deviations, not on timing.  So one untimed pass of a list is a fixed
record on a given NumPy and SciPy.  ``bench_failures.json`` stores, for
seeds 1-3 of every workload, each failing job's index, task, method and
causes, and every job's ``worst_dev_over_tol`` (the largest deviation over
tolerance of its passed checks, to 3 significant digits), so a result
that drifts towards a tolerance shows before it fails.
``test_bench_failures.py`` replays tasks-default seed 1 against it.

From the root of a checkout::

    python tests/bench_failures.py          # rewrite bench_failures.json, print what moved
    python tests/bench_failures.py --check  # replay all nine passes, exit 1 if any moved

A change that moves the failing set lists each removed and each added
job, with its cause, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "bench_failures.json"
SEEDS = (1, 2, 3)

for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import jobs, workloads  # noqa: E402


def versions() -> dict[str, str]:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def replay(workload: str, seed: int) -> dict:
    """One untimed pass of the job list of ``workload`` and ``seed``."""
    job_list = workloads.build(workload, seed)
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        outcomes = [jobs.run_job(job, os.path.join(tmp, "out"), sink) for job in job_list]
    failing = [{"index": i, "task": o.job.task, "method": o.job.settings.get("method"),
                "causes": o.causes} for i, o in enumerate(outcomes) if o.failed]
    worst = [float(f"{o.worst_dev_over_tol:.3g}") for o in outcomes]
    return {"workload": workload, "seed": seed, "jobs": len(job_list), "failing": failing,
            "worst_dev_over_tol": worst}


def _dumps(doc: dict) -> str:
    # one failing job per line, so that a diff of the file lists the jobs that moved
    lines = ["{", f' "numpy": {json.dumps(doc["numpy"])},', f' "scipy": {json.dumps(doc["scipy"])},',
             ' "passes": [']
    for i, rec in enumerate(doc["passes"]):
        lines.append(f'  {{"workload": {json.dumps(rec["workload"])}, "seed": {rec["seed"]}, '
                     f'"jobs": {rec["jobs"]},')
        lines.append('   "failing": [')
        lines.extend(f"    {json.dumps(job)}" + ("," if k + 1 < len(rec["failing"]) else "")
                     for k, job in enumerate(rec["failing"]))
        lines.append("   ],")
        lines.append(f'   "worst_dev_over_tol": {json.dumps(rec["worst_dev_over_tol"])}}}'
                     + ("," if i + 1 < len(doc["passes"]) else ""))
    lines += [" ]", "}"]
    return "\n".join(lines) + "\n"


def compare(old: dict | None, new: dict) -> list[str]:
    """One line for each job that left or joined the failing set of a pass."""
    name = f"{new['workload']} seed {new['seed']}"
    before = {j["index"]: j for j in old["failing"]} if old else {}
    after = {j["index"]: j for j in new["failing"]}
    lines = [f"removed: {name} job {i} {before[i]['task']} {before[i]['method']} {before[i]['causes']}"
             for i in sorted(set(before) - set(after))]
    lines += [f"added: {name} job {i} {after[i]['task']} {after[i]['method']} {after[i]['causes']}"
              for i in sorted(set(after) - set(before))]
    lines += [f"changed: {name} job {i} {before[i]['causes']} -> {after[i]['causes']}"
              for i in sorted(set(before) & set(after)) if before[i] != after[i]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite or check tests/bench_failures.json.")
    parser.add_argument("--check", action="store_true",
                        help="replay every pass and exit 1 if its failing set moved")
    args = parser.parse_args(argv)
    old = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else {"passes": []}
    stored = {(r["workload"], r["seed"]): r for r in old["passes"]}
    passes, moved = [], []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            record = replay(workload, seed)
            passes.append(record)
            lines = compare(stored.get((workload, seed)), record)
            moved += lines
            print(f"{workload} seed {seed}: {len(record['failing'])} of {record['jobs']} jobs fail",
                  flush=True)
    for line in moved:
        print(line)
    if args.check:
        return 1 if moved else 0
    LEDGER.write_text(_dumps({**versions(), "passes": passes}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""defosc benchmark: time to a verified result on three seeded workloads.

Run from the root of a checkout (defosc is imported from ``src/`` there):

    python3 bench/run.py --workload tasks-default --seed 1 --seconds 25 --trace 0

Workloads are ``tasks-default``, ``fock-dense-large`` and
``position-quadrature`` (see ``bench/README.md``).  One process runs one
workload in a closed loop: one client, one job at a time.  The seeded job
list is run in passes until ``--seconds`` would be exceeded, at least once.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every job
untraced and traced and reports the per-layer metrics.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(provenance, failure ledger, per-pass figures, and in traced runs the
spans) is written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

def bootstrap() -> None:
    """Make this checkout's ``bench`` and ``defosc`` packages importable."""
    if not os.path.isfile(os.path.join(SRC, "defosc", "cli.py")):
        raise SystemExit(f"bench: no defosc sources at {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, ROOT]
    import defosc

    if os.path.dirname(os.path.abspath(defosc.__file__)) != os.path.join(SRC, "defosc"):
        raise SystemExit(f"bench: imported defosc from {defosc.__file__}, not from {SRC}")


def probe_setup() -> float:
    """Seconds from starting a fresh process to the end of its warm-up."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed (exit {proc.returncode})")
    return elapsed


@dataclass
class Pass:
    """One run of the whole job list.

    In a traced run every job runs twice in a pass, untraced and traced,
    in alternating order from job to job, so both modes see the same
    machine state and the same share of warm caches.
    """

    outcomes: list
    traced_outcomes: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def job_seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def traced_job_seconds(self) -> float:
        return sum(o.seconds for o in self.traced_outcomes)


def run_passes(job_list, seconds: float, trace: bool, work_dir: str):
    from bench import jobs
    from bench.tracing import Tracer

    tracer = Tracer()
    passes: list[Pass] = []
    start = time.perf_counter()
    with open(os.devnull, "w") as sink:
        while True:
            pass_start = time.perf_counter()
            current = Pass([])
            first_span = len(tracer.spans)
            for index, job in enumerate(job_list):
                modes = (False, True) if index % 2 == 0 else (True, False)
                for traced in modes if trace else (False,):
                    if not traced:
                        current.outcomes.append(jobs.run_job(job, work_dir, sink))
                        continue
                    tracer.job = index
                    tracer.install()
                    try:
                        current.traced_outcomes.append(jobs.run_job(job, work_dir, sink))
                    finally:
                        tracer.uninstall()
            current.spans = tracer.spans[first_span:]
            passes.append(current)
            last = time.perf_counter() - pass_start
            if time.perf_counter() - start + last > seconds:
                return passes, tracer


def ledger(workload: str, outcomes) -> list[dict]:
    """Failures of one pass by task and cause."""
    counts = Counter((o.job.task, cause) for o in outcomes for cause in o.causes)
    return [{"workload": workload, "task": task, "cause": cause, "jobs": n}
            for (task, cause), n in sorted(counts.items())]


def end_to_end(passes: list[Pass], setup_samples: list[float]) -> dict:
    from bench.workloads import TASK_KINDS

    outcomes = [o for p in passes for o in p.outcomes]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p.job_seconds for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "failed_frac": (sum(o.failed for o in outcomes) / len(outcomes), "ratio"),
    }
    for task in TASK_KINDS:
        own = [o.seconds for o in outcomes if o.job.task == task and not o.job.everyday]
        everyday = [o.seconds for o in outcomes if o.job.task == task and o.job.everyday]
        metrics[f"{task}_s"] = (statistics.median(own or everyday), "s")
    return metrics


def per_layer(passes: list[Pass]) -> dict:
    from bench import tracing

    rows = [tracing.pass_metrics(p.spans, p.traced_outcomes) for p in passes]
    for row, p in zip(rows, passes):
        row["trace.overhead_frac"] = p.traced_job_seconds / p.job_seconds - 1.0
    return {name: (statistics.median(r[name] for r in rows), tracing.unit_of(name))
            for name in tracing.PER_LAYER}


def main(argv=None) -> int:
    bootstrap()
    from bench import jobs, provenance, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    job_list = workloads.build(args.workload, args.seed)
    setup_samples = [] if args.trace else [probe_setup() for _ in range(SETUP_PROBES)]

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    jobs.warm_up(workloads.warm_up_jobs(), work_dir)
    passes, tracer = run_passes(job_list, args.seconds, bool(args.trace), work_dir)

    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setup_samples)
    all_outcomes = [o for p in passes for o in p.outcomes + p.traced_outcomes]
    summary = {
        "correct": not any(o.wrong_output for o in all_outcomes),
        "attempted": len(all_outcomes),
        "failed": sum(o.failed for o in all_outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    prov = provenance.record(ROOT, SRC, args.workload, args.seed,
                             [j.cutoff for j in job_list if j.task != workloads.GRAM])
    failures = ledger(args.workload, passes[0].outcomes)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "setup_samples_s": setup_samples,
                   "passes": [{"job_seconds": p.job_seconds,
                               "traced_job_seconds": p.traced_job_seconds} for p in passes],
                   "jobs_per_pass": len(job_list), "failure_ledger": failures,
                   "failing_jobs": [{"task": o.job.task, "params": o.job.settings,
                                     "causes": o.causes}
                                    for o in passes[0].outcomes if o.failed],
                   "result": summary}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"passes: {len(passes)} of {len(job_list)} jobs; record in {stem}.json")
    for row in failures:
        print(f"failed: {row['task']} {row['cause']} x{row['jobs']} per pass")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

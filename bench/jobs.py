"""Running one job through defosc's public entry points and judging it.

Only the call into defosc is timed.  Reading the report, the oracle
comparison and removing the output directory happen after the clock
stops.  A job fails when

* ``cli.main`` returns nonzero (cause ``exit<code>``, or the ids of the
  failed checks when the code is 1), or ``report.json`` says
  ``all_passed: false``;
* an exception escapes the entry point (cause: its type name); the run
  goes on;
* the benchmark's oracle disagrees with a result the program passed, at
  the task's check tolerance (cause: the oracle check id).  When the
  disagreement also exceeds ``oracle.GROSS_TOL`` the output is wrong, and
  the run's ``correct`` is false.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

from . import oracle
from .workloads import GRAM, GRAM_MAX_ORDER, Job


@dataclass
class Outcome:
    """What one job did: timed seconds, failure causes, and CLI output facts."""

    job: Job
    seconds: float
    causes: list[str] = field(default_factory=list)
    wrong_output: bool = False
    bytes_written: int = 0
    worst_dev_over_tol: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.causes)


def _model_params(settings: dict):
    from defosc import models

    if settings["model"] == "tpt":
        return models.ModelParams.tpt(float(settings["lambda"]))
    return models.ModelParams.pseudoharmonic(float(settings["s"]))


def _dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def _judge_cli(job: Job, rc: int, out_dir: str, outcome: Outcome) -> None:
    outcome.bytes_written = _dir_bytes(out_dir)
    report_path = os.path.join(out_dir, "report.json")
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        # accuracy margin of the checks that passed: how close to its
        # tolerance a verified result came
        ratios = [c["max_deviation"] / c["tolerance"] for c in report["checks"]
                  if c["passed"] and c["tolerance"] > 0]
        outcome.worst_dev_over_tol = max(ratios, default=0.0)
    if rc != 0:
        failed_checks = [c["id"] for c in report["checks"] if not c["passed"]] if report else []
        outcome.causes += failed_checks if rc == 1 and failed_checks else [f"exit{rc}"]
        return
    if report is None or not report.get("all_passed", False):
        outcome.causes.append("report-not-passed")
        return
    if job.task in ("coherent", "displacement-check"):
        csv_path = os.path.join(out_dir, f"{job.task}.csv")
        _judge_oracle(outcome, oracle.csv_deviations(job.task, job.settings, csv_path),
                      float(report["config"]["check_tol"]))


def _judge_oracle(outcome: Outcome, deviations: dict[str, float], tol: float) -> None:
    for check, dev in deviations.items():
        if not dev <= tol:
            outcome.causes.append(check)
        if not dev <= oracle.GROSS_TOL:
            outcome.wrong_output = True


def run_job(job: Job, out_dir: str, sink) -> Outcome:
    """Run ``job`` once, writing CLI output to the fresh directory ``out_dir``.

    ``sink`` receives the program's stdout and stderr.  Entry points are
    looked up on their module at call time, so wrappers installed by the
    tracer are used.
    """
    import defosc.cli
    import defosc.position

    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    result = None
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if job.task == GRAM:
                s = job.settings
                result = defosc.position.orthonormality_gram(
                    _model_params(s), n_max=s["n_max"], max_order=GRAM_MAX_ORDER)
            else:
                result = defosc.cli.main(job.argv(out_dir))
        except Exception as exc:  # the ledger records it and the run goes on
            error = exc
        seconds = time.perf_counter() - start
    outcome = Outcome(job, seconds)
    if error is not None:
        outcome.causes.append(type(error).__name__)
    elif job.task == GRAM:
        gram, _, _ = result
        _judge_oracle(outcome, oracle.gram_deviation(gram), oracle.GRAM_TOL)
    else:
        _judge_cli(job, int(result), out_dir, outcome)
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    return outcome


def warm_up(jobs: list[Job], out_dir: str) -> None:
    """Run each warm-up job once, untimed, so lazy library set-up is paid here."""
    with open(os.devnull, "w") as sink:
        for job in jobs:
            run_job(job, out_dir, sink)

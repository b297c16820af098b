"""The benchmark's tracer observes jobs without changing their outcome.

Its observers read library results (``result.state.cutoff`` of
``annihilation_eigenstate``, ``args[0].entries`` of ``matrix_exponential``);
an observer that raises turns a passing job into a traced failure.  A
traced run counts its traced outcomes in ``failed``, so an observer that
raised only on grown, truncated or failing jobs would raise the failure
share without moving any untraced median; the replayed slice holds such
jobs.
"""

import contextlib
import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import jobs, workloads  # noqa: E402
from bench.tracing import Tracer  # noqa: E402

# Jobs of tasks-default seed 1, by index, and the cutoff each ends at
# (None where it exits 3 and writes nothing)
SLICE = {
    75: 2048,   # coherent, displacement-factored: grows from 128
    245: 256,   # coherent, displacement-direct: grows to a weight below 1e-24
    463: 256,   # displacement-check: the direct route grows to a weight below 1e-18
    470: None,  # displacement-check: the direct route misses tail_tol, exit 3
    601: None,  # coherent, displacement-factored: grows to the cap, exit 3
}
# A job that fails a check (exit 1) and reports no cutoff: the deviation
# grows from lambda 1e4 to 100
FAILS_A_CHECK = workloads.Job("harmonic-limit", (("lambdas", [10000.0, 100.0]),))


def _replay(job, out_dir):
    """Outcome of ``job`` untraced, then traced, with the tracer used."""
    sink = io.StringIO()
    plain = jobs.run_job(job, os.path.join(out_dir, "plain"), sink)
    tracer = Tracer()
    tracer.install()
    try:
        traced = jobs.run_job(job, os.path.join(out_dir, "traced"), sink)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def _facts(outcome):
    return (outcome.causes, outcome.wrong_output, outcome.bytes_written, outcome.worst_dev_over_tol)


def _cutoff_used(job, out_dir):
    import defosc.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        defosc.cli.main(job.argv(out_dir))
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return report.get("cutoff_used", report["checks"][0]["parameters"].get("cutoff"))


@pytest.mark.parametrize("job", workloads.warm_up_jobs(), ids=lambda job: job.task)
def test_traced_run_has_the_untraced_causes(job, tmp_path):
    plain, traced, tracer = _replay(job, str(tmp_path))
    assert tracer.spans
    assert traced.causes == plain.causes


def test_traced_slice_has_the_untraced_outcomes(tmp_path):
    job_list = workloads.build("tasks-default", 1)
    cases = [(str(index), job_list[index], cutoff) for index, cutoff in SLICE.items()]
    causes = []
    for name, job, cutoff in cases + [("fails-a-check", FAILS_A_CHECK, None)]:
        plain, traced, tracer = _replay(job, str(tmp_path / name))
        assert tracer.spans, name
        assert _facts(traced) == _facts(plain), name
        assert _cutoff_used(job, str(tmp_path / name / "report")) == cutoff, name
        causes += plain.causes
    # the slice keeps a truncation failure and a failed check
    assert "exit3" in causes and any(not c.startswith("exit") for c in causes)

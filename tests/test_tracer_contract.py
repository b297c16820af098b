"""The benchmark's tracer observes jobs without changing their outcome.

Its observers read library results (``result.state.cutoff`` of
``annihilation_eigenstate``, ``args[0].entries`` of ``matrix_exponential``);
an observer that raises turns a passing job into a traced failure.
"""

import io
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import jobs, workloads  # noqa: E402
from bench.tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("job", workloads.warm_up_jobs(), ids=lambda job: job.task)
def test_traced_run_has_the_untraced_causes(job, tmp_path):
    sink = io.StringIO()
    plain = jobs.run_job(job, str(tmp_path / "plain"), sink)
    tracer = Tracer()
    tracer.install()
    try:
        traced = jobs.run_job(job, str(tmp_path / "traced"), sink)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert traced.causes == plain.causes

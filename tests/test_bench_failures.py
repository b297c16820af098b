"""The failing jobs of tasks-default seed 1 are those recorded in bench_failures.json."""

import json

import pytest

import bench_failures

_DOC = json.loads(bench_failures.LEDGER.read_text(encoding="utf-8"))


def test_ledger_covers_every_pass():
    got = [(r["workload"], r["seed"]) for r in _DOC["passes"]]
    assert got == [(w, s) for w in bench_failures.workloads.WORKLOADS for s in bench_failures.SEEDS]
    for record in _DOC["passes"]:
        assert len(record["worst_dev_over_tol"]) == record["jobs"]


def test_tasks_default_seed1_fails_the_recorded_jobs():
    recorded = {k: _DOC[k] for k in ("numpy", "scipy")}
    if bench_failures.versions() != recorded:
        pytest.skip(f"ledger was recorded with {recorded}, this is {bench_failures.versions()}")
    stored = next(r for r in _DOC["passes"] if (r["workload"], r["seed"]) == ("tasks-default", 1))
    got = bench_failures.replay("tasks-default", 1)
    assert bench_failures.compare(stored, got) == []

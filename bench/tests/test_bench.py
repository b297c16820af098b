"""Tests of the benchmark's own machinery.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import defosc.cli  # noqa: E402
from defosc import coherent, fock, models  # noqa: E402

from bench import jobs, oracle, run, tracing, workloads  # noqa: E402
from bench.tracing import Span  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_draws(workload):
    first = workloads.build(workload, 7)
    assert workloads.build(workload, 7) == first
    other = workloads.build(workload, 8)
    assert [j.task for j in other] and other != first
    assert {j.params for j in other}.isdisjoint({j.params for j in first if "alpha_re" in j.settings})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_every_task_kind(workload):
    kinds = {j.task for j in workloads.build(workload, 1)}
    assert kinds == set(workloads.TASK_KINDS)


def test_stratified_draws_cover_every_stratum():
    jobs_ = [j for j in workloads.build("tasks-default", 3)
             if j.task == "spectrum" and j.settings["model"] == "tpt"]
    n = len(jobs_)
    strata = sorted(int((j.settings["lambda"] - 0.6) / 49.4 * n) for j in jobs_)
    assert strata == list(range(n))


def _span(id, start, end, parent=None, name="fock.apply"):
    return Span(id, name, start, end, parent, job=0)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, 0.0, 10.0, name="cli.main"),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 5.0, parent=0),   # overlaps span 1: covered 1..5 once
        _span(3, 7.0, 12.0, parent=0),  # runs past the parent: only 7..10 counts
        _span(4, 1.5, 2.0, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(5.0)
    assert own[4] == pytest.approx(0.5)


def test_layer_self_times_sum_to_root_duration():
    spans = [
        _span(0, 0.0, 10.0, name="cli.main"),
        _span(1, 1.0, 6.0, parent=0, name="coherent.displacement_state_direct"),
        _span(2, 2.0, 5.0, parent=1, name="fock.matrix_exponential"),
        _span(3, 7.0, 8.0, parent=0, name="models.deformation_for"),
    ]
    m = tracing.pass_metrics(spans, [])
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["coherent.self_s"] == pytest.approx(2.0)
    assert m["fock.self_s"] == pytest.approx(3.0)
    assert m["models.self_s"] == pytest.approx(1.0)
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(10.0)
    assert m["coherent.displacement_state_direct.incl_s"] == pytest.approx(5.0)


def _write_coherent_output(out_dir, settings, coeffs, all_passed=True):
    os.makedirs(out_dir)
    lines = ["n,re,im,abs2"] + [f"{k},{float(c.real)!r},{float(c.imag)!r},{float(abs(c)) ** 2!r}"
                                for k, c in enumerate(coeffs)]
    with open(os.path.join(out_dir, "coherent.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    report = {"all_passed": all_passed, "config": dict(settings, check_tol=1e-12),
              "checks": [{"id": "state-normalized", "max_deviation": 0.0,
                          "tolerance": 1e-12, "passed": True}]}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh)


def test_oracle_accepts_true_csv_and_counts_corrupted_one_as_failure(tmp_path):
    settings = {"model": "tpt", "lambda": 3.0, "method": "annihilation",
                "alpha_re": 0.7, "alpha_im": -0.4}
    job = workloads.Job("coherent", tuple(sorted(settings.items())))
    coeffs = oracle.eigenstate_coefficients(settings, 128)

    good = jobs.Outcome(job, 0.0)
    _write_coherent_output(str(tmp_path / "good"), settings, coeffs)
    jobs._judge_cli(job, 0, str(tmp_path / "good"), good)
    assert not good.failed and not good.wrong_output

    corrupted = coeffs.copy()
    corrupted[5] += 1e-3
    bad = jobs.Outcome(job, 0.0)
    _write_coherent_output(str(tmp_path / "bad"), settings, corrupted)
    jobs._judge_cli(job, 0, str(tmp_path / "bad"), bad)
    assert bad.causes == ["oracle-coherent-annihilation"]
    assert bad.wrong_output


def test_oracle_agrees_with_program_routes(tmp_path):
    settings = {"model": "pseudoharmonic", "s": 1.7, "alpha_re": 0.6, "alpha_im": 0.5}
    job = workloads.Job("displacement-check", tuple(sorted(settings.items())))
    out = jobs.run_job(job, str(tmp_path / "dc"), open(os.devnull, "w"))
    assert not out.failed, out.causes


def test_gram_oracle_flags_non_identity():
    assert oracle.gram_deviation(np.eye(3))["oracle-gram-identity"] == 0.0
    assert oracle.gram_deviation(np.eye(3) * 1.001)["oracle-gram-identity"] > oracle.GRAM_TOL


def test_exception_from_stubbed_job_is_a_failure_and_run_goes_on(tmp_path, monkeypatch):
    real_main = defosc.cli.main
    calls = []

    def stub(argv):
        calls.append(argv)
        if len(calls) == 1:
            raise OverflowError("stubbed")
        return real_main(argv)

    monkeypatch.setattr(defosc.cli, "main", stub)
    job_list = [workloads.Job("spectrum", (("model", "tpt"),))] * 2
    passes, _ = run.run_passes(job_list, 0.0, False, str(tmp_path / "work"))
    outcomes = passes[0].outcomes
    assert len(calls) == 2
    assert outcomes[0].causes == ["OverflowError"]
    assert not outcomes[1].failed
    assert run.ledger("w", outcomes) == [
        {"workload": "w", "task": "spectrum", "cause": "OverflowError", "jobs": 1}]


def test_tracer_times_internal_calls_and_restores_originals():
    original = fock.matrix_exponential
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert coherent.matrix_exponential is fock.matrix_exponential is not original
        f = models.tpt_deformation(models.ModelParams.tpt(2.0))
        coherent.displacement_state_direct(f, 0.3 + 0.2j, 16)
    finally:
        tracer.uninstall()
    assert coherent.matrix_exponential is original and fock.matrix_exponential is original
    by_name = {s.name: s for s in tracer.spans}
    expm = by_name["fock.matrix_exponential"]
    parent = next(s for s in tracer.spans if s.id == expm.parent)
    assert parent.name == "coherent.displacement_state_direct"
    assert expm.attrs["gflop"] > 0

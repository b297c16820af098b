import json
import os

import pytest

from defosc import coherent, fock
from defosc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_TRUNCATION,
    _commutator_suite,
    emit_csv,
    main,
)
from defosc.errors import DomainError
from defosc.models import ModelParams


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestEmitCsv:
    def test_empty_table_is_header_only(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_csv(["a", "b"], [], path)
        assert read(path) == b"a,b\n"

    def test_float_formatting_is_shortest_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_csv(["x"], [[0.1], [3.5], [1e-9], [7.0]], path)
        assert read(path) == b"x\n0.1\n3.5\n1e-09\n7.0\n"

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_csv(["a", "b"], [[1.0]], str(tmp_path / "t.csv"))


class TestSpectrumTask:
    def test_golden_csv(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["spectrum", "--param", "cutoff=3", "--out", out])
        assert code == EXIT_OK
        assert read(os.path.join(out, "spectrum.csv")) == b"n,energy\n0,1.0\n1,3.5\n2,7.0\n"
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["all_passed"] is True
        assert report["task"] == "spectrum"
        assert "PASS" in capsys.readouterr().out

    def test_param_override(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["spectrum", "--param", "lambda=3", "--param", "cutoff=2", "--out", out])
        assert code == EXIT_OK
        assert read(os.path.join(out, "spectrum.csv")) == b"n,energy\n0,1.5\n1,5.0\n"

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "spectrum", "model": "pseudoharmonic", "s": 1.0,
                                   "cutoff": 2}))
        out = str(tmp_path / "run")
        code = main(["spectrum", "--config", str(cfg), "--out", out])
        assert code == EXIT_OK
        assert read(os.path.join(out, "spectrum.csv")) == b"n,energy\n0,3.0\n1,5.0\n"

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["spectrum", "--param", "lambda=2.7", "--out", out]) == EXIT_OK
        assert read(os.path.join(out1, "spectrum.csv")) == read(os.path.join(out2, "spectrum.csv"))
        assert read(os.path.join(out1, "report.json")) == read(os.path.join(out2, "report.json"))


class TestConfigErrors:
    def test_unknown_param_key(self, tmp_path, capsys):
        code = main(["spectrum", "--param", "bogus=1", "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_malformed_param(self, tmp_path):
        assert main(["spectrum", "--param", "novalue", "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        for param in ("alpha_re=NaN", "alpha_im=-Infinity", "alpha_re=\"x\"", "zeta_re=NaN"):
            assert main(["coherent", "--param", param, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        for param in ("tail_tol=NaN", "check_tol=NaN", "tail_tol=true"):
            assert main(["coherent", "--param", param, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        for param in ('lambdas=["x"]', "lambdas=[0.3]", "lambdas=[NaN]"):
            assert main(["harmonic-limit", "--param", param, "--out", str(tmp_path / "r")]) == EXIT_CONFIG

    def test_bad_json_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_CONFIG

    def test_conflicting_task_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "coherent"}))
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_CONFIG

    def test_bad_model(self, tmp_path):
        assert main(["spectrum", "--param", 'model="morse"', "--out", str(tmp_path / "r")]) == EXIT_CONFIG

    def test_bad_cutoff(self, tmp_path):
        assert main(["spectrum", "--param", "cutoff=1", "--out", str(tmp_path / "r")]) == EXIT_CONFIG

    def test_inadmissible_lambda(self, tmp_path):
        for value in ("0.4", "NaN", "Infinity"):
            assert main(["spectrum", "--param", f"lambda={value}",
                         "--out", str(tmp_path / "r")]) == EXIT_CONFIG


class TestChecksAndStatuses:
    @pytest.mark.parametrize("model", ["tpt", "pseudoharmonic", "harmonic"])
    def test_commutators_pass(self, tmp_path, monkeypatch, model):
        def no_dense_operator(*args, **kwargs):
            raise AssertionError("dense operator in the commutator suite")

        monkeypatch.setattr(fock, "OperatorMatrix", no_dense_operator)
        out = str(tmp_path / "r")
        assert main(["commutators", "--param", f'model="{model}"', "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        ids = {c["id"] for c in report["checks"]}
        assert ids == {"commutator-lower-raise", "commutator-lower-number", "commutator-raise-number"}
        assert all(c["excluded_indices"] == [127] for c in report["checks"])

    def test_commutator_suite_near_lower_bound(self):
        suite = _commutator_suite(ModelParams.tpt(0.6), 512)
        assert len(suite) == 3
        assert all(dev <= 1e-12 and excluded == [511] for _, dev, excluded in suite)

    def test_commutator_suite_at_smallest_cutoff(self):
        # at cutoff 2 every off-diagonal entry touches the excluded index
        suite = _commutator_suite(ModelParams.tpt(2.0), 2)
        assert [dev for _, dev, _ in suite] == [0.0, 0.0, 0.0]
        assert all(excluded == [1] for _, _, excluded in suite)

    def test_commutators_harmonic(self, tmp_path):
        # roundoff of sqrt(n)^2 grows like eps*n, so the 1e-14 claim is
        # exercised at a cutoff where it genuinely holds
        assert main(["commutators", "--param", 'model="harmonic"', "--param", "check_tol=1e-14",
                     "--param", "cutoff=16", "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_impossible_tolerance_fails_run(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        code = main(["displacement-check", "--param", "check_tol=1e-30", "--out", out])
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["all_passed"] is False

    def test_displacement_check_passes_at_default_tolerance(self, tmp_path):
        assert main(["displacement-check", "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_truncation_exit_status(self, tmp_path, capsys):
        code = main(["coherent", "--param", 'method="displacement-direct"',
                     "--param", "cutoff=16", "--param", "alpha_re=3.0",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_TRUNCATION
        assert "truncation error" in capsys.readouterr().err
        # a tail_tol below 1e-12 is applied as given; the tails at cutoff 64 are
        # 6.2e-14 (factored) and 1.5e-13 (direct)
        for method in ("displacement-direct", "displacement-factored"):
            code = main(["coherent", "--param", f'method="{method}"', "--param", "cutoff=64",
                         "--param", "alpha_re=1.9", "--param", "tail_tol=1e-14",
                         "--out", str(tmp_path / method)])
            assert code == EXIT_TRUNCATION
            assert "truncation error" in capsys.readouterr().err

    def test_domain_exit_status(self, tmp_path, capsys, monkeypatch):
        # these tasks are undefined for the harmonic reference; the two that
        # need the su(1,1) structure reject it before any dense work
        def no_dense_work(*args):
            raise AssertionError("dense work before the su(1,1) check")

        for task in ("compare", "displacement-check", "wavefunction"):
            with monkeypatch.context() as m:
                if task != "wavefunction":
                    m.setattr(coherent, "ladder_amplitudes", no_dense_work)
                code = main([task, "--param", 'model="harmonic"', "--out", str(tmp_path / "r")])
            assert code == EXIT_DOMAIN
            err = capsys.readouterr().err
            assert "error" in err
            if task != "wavefunction":
                assert "su(1,1)" in err


class TestCoherentTask:
    def test_default_run(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["coherent", "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["cutoff_used"] == 128
        assert report["photon_statistics"]["mean_n"] > 0
        with open(os.path.join(out, "coherent.csv"), "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "n,re,im,abs2"

    def test_auto_doubled_cutoff_reported(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["coherent", "--param", "cutoff=4", "--param", "alpha_re=2.0",
                     "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["cutoff_used"] > 4

    @pytest.mark.parametrize("method", ["annihilation-closed-form", "displacement",
                                        "displacement-direct", "displacement-factored"])
    def test_all_methods_run(self, tmp_path, method):
        assert main(["coherent", "--param", f'method="{method}"', "--param", "cutoff=64",
                     "--out", str(tmp_path / method)]) == EXIT_OK

    def test_closed_form_metadata(self, tmp_path):
        reports = {}
        for method in ("annihilation", "annihilation-closed-form", "displacement"):
            out = str(tmp_path / method)
            assert main(["coherent", "--param", f'method="{method}"', "--out", out]) == EXIT_OK
            reports[method] = json.loads(read(os.path.join(out, "report.json")))
        assert reports["displacement"]["method"] == "displacement-closed-form"
        assert reports["annihilation-closed-form"]["normalization_constant"] == pytest.approx(
            reports["annihilation"]["normalization_constant"], rel=1e-12)

    def test_explicit_zeta(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["coherent", "--param", 'method="displacement"', "--param", "zeta_re=0.5",
                     "--param", "cutoff=64", "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["parameter"]["re"] == pytest.approx(0.5)


class TestOtherTasks:
    def test_compare(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["compare", "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["bg_vs_displacement"]["max_abs_coeff_diff"] > 1e-3

    def test_compare_pseudoharmonic(self, tmp_path):
        assert main(["compare", "--param", 'model="pseudoharmonic"',
                     "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_displacement_check_pseudoharmonic(self, tmp_path):
        assert main(["displacement-check", "--param", 'model="pseudoharmonic"',
                     "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_wavefunction(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["wavefunction", "--param", "cutoff=48", "--param", "grid_nodes=400",
                     "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        assert abs(report["quadrature_norm"] - 1.0) < 1e-6

    def test_wavefunction_pseudoharmonic(self, tmp_path):
        assert main(["wavefunction", "--param", 'model="pseudoharmonic"', "--param", "cutoff=48",
                     "--param", "grid_nodes=400", "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_wavefunction_pseudoharmonic_large_s(self, tmp_path):
        # rho^s and the unnormalized Laguerre recurrence both overflow here
        out = str(tmp_path / "r")
        assert main(["wavefunction", "--param", 'model="pseudoharmonic"',
                     "--param", "s=171.95637555610085", "--param", "alpha_re=2.9995668754551197",
                     "--param", "alpha_im=-1.8061596451778663", "--param", "cutoff=1024",
                     "--param", "grid_nodes=256", "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        assert abs(report["quadrature_norm"] - 1.0) < 1e-6

    def test_harmonic_limit(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["harmonic-limit", "--out", out]) == EXIT_OK
        rows = read(os.path.join(out, "harmonic-limit.csv")).decode().strip().split("\n")
        assert rows[0] == "lambda,deviation"
        assert len(rows) == 4

import json
import os
import subprocess
import sys

import pytest

from defosc import coherent, fock
from defosc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_QUADRATURE,
    EXIT_TRUNCATION,
    MAX_GRID_NODES,
    METHODS,
    _commutator_suite,
    emit_csv,
    main,
)
from defosc.errors import DomainError
from defosc.models import ModelParams, deformation_for


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
        # JSON integers too large for a float
        huge = "1" + "0" * 400
        for task, param in (("spectrum", f"lambda={huge}"), ("coherent", f"alpha_re={huge}"),
                            ("harmonic-limit", f"lambdas=[{huge}]")):
            assert main([task, "--param", param, "--out", str(tmp_path / "r")]) == EXIT_CONFIG

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

    def test_sizes_above_their_caps(self, tmp_path, capsys, monkeypatch):
        # 2^62 ended in numpy's "array is too big" ValueError or a MemoryError (exit 1)
        huge = 2 ** 62
        for task in ("spectrum", "commutators", "coherent"):
            assert main([task, "--param", f"cutoff={huge}", "--out", str(tmp_path / "r")]) == EXIT_CONFIG
            assert "DEFOSC_MAX_CUTOFF" in capsys.readouterr().err
        for nodes in (huge, MAX_GRID_NODES + 1):
            assert main(["wavefunction", "--param", f"grid_nodes={nodes}",
                         "--out", str(tmp_path / "r")]) == EXIT_CONFIG
            assert f"from 2 to {MAX_GRID_NODES}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")
        # the cutoff cap follows the environment, and a malformed cap is a config error
        monkeypatch.setenv(coherent.MAX_CUTOFF_ENV, "64")
        assert main(["spectrum", "--param", "cutoff=65", "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        assert main(["spectrum", "--param", "cutoff=64", "--out", str(tmp_path / "r")]) == EXIT_OK
        monkeypatch.setenv(coherent.MAX_CUTOFF_ENV, "junk")
        assert main(["spectrum", "--out", str(tmp_path / "s")]) == EXIT_CONFIG

    @pytest.mark.parametrize("task, method", [
        ("spectrum", "displacement"),
        ("compare", "annihilation"),
        ("compare", "displacement"),
        ("displacement-check", "displacement"),
        ("commutators", "annihilation"),
        ("harmonic-limit", "annihilation"),
        ("coherent", "annihilation"),
        ("coherent", "displacement-direct"),
        ("wavefunction", "displacement-factored"),
    ])
    @pytest.mark.parametrize("param", ["zeta_re=0.5", "zeta_im=0.5"])
    def test_zeta_only_for_closed_form_displacement(self, tmp_path, capsys, task, method, param):
        # zeta was ignored here: the checks used the zeta derived from alpha
        code = main([task, "--param", f'method="{method}"', "--param", param,
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert "zeta" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")

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
        suite = _commutator_suite(deformation_for(ModelParams.tpt(0.6)), 512)
        assert len(suite) == 3
        assert all(dev <= 1e-12 and excluded == [511] for _, dev, excluded in suite)

    def test_commutator_suite_at_smallest_cutoff(self):
        # at cutoff 2 every off-diagonal entry touches the excluded index
        suite = _commutator_suite(deformation_for(ModelParams.tpt(2.0)), 2)
        assert [dev for _, dev, _ in suite] == [0.0, 0.0, 0.0]
        assert all(excluded == [1] for _, _, excluded in suite)

    def test_commutators_harmonic(self, tmp_path):
        # roundoff of sqrt(n)^2 grows like eps*n, so the 1e-14 claim is
        # exercised at a cutoff where it genuinely holds
        assert main(["commutators", "--param", 'model="harmonic"', "--param", "check_tol=1e-14",
                     "--param", "cutoff=16", "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_impossible_tolerance_fails_run(self, tmp_path, capsys, monkeypatch):
        # the direct route's last weight at cutoff 128 is 2e-150: below
        # eps**2, so no check_tol makes it grow, and 1e-200 squared is not 0
        monkeypatch.setenv(coherent.MAX_CUTOFF_ENV, "128")
        for tol in ("1e-30", "1e-200"):
            out = str(tmp_path / tol)
            code = main(["displacement-check", "--param", f"check_tol={tol}", "--out", out])
            assert code == EXIT_CHECK_FAILED
            assert "FAIL" in capsys.readouterr().out
            report = json.loads(read(os.path.join(out, "report.json")))
            assert report["all_passed"] is False

    def test_displacement_check_passes_at_default_tolerance(self, tmp_path):
        assert main(["displacement-check", "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_truncation_exit_status(self, tmp_path, capsys):
        # the direct route grows on its certificate to at most 512 levels,
        # where the exact tail at alpha 5 is still 5.4e-4
        code = main(["coherent", "--param", 'method="displacement-direct"',
                     "--param", "cutoff=16", "--param", "alpha_re=5.0",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_TRUNCATION
        assert "truncation error" in capsys.readouterr().err
        # a tail_tol below 1e-12 is applied as given.  The factored route (two
        # vector series) grows up to DEFOSC_MAX_CUTOFF; the direct route stops
        # at 512, where the exact tail at alpha 4 is still 4.4e-13
        argv = ["--param", "cutoff=64", "--param", "alpha_re=4.0", "--param", "tail_tol=1e-14"]
        code = main(["coherent", "--param", 'method="displacement-direct"', *argv,
                     "--out", str(tmp_path / "direct")])
        assert code == EXIT_TRUNCATION
        assert "at cutoff 512" in capsys.readouterr().err
        out = str(tmp_path / "factored")
        assert main(["coherent", "--param", 'method="displacement-factored"', *argv,
                     "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["cutoff_used"] == 1024 and report["tail_mass"] <= 1e-14

    @pytest.mark.parametrize("task, method", [("compare", "annihilation"), ("coherent", "annihilation"),
                                              ("coherent", "annihilation-closed-form"),
                                              ("wavefunction", "annihilation")])
    def test_phase_underflow_is_truncation(self, tmp_path, capsys, task, method):
        # the phase of 1e300+1e-300i underflows; cmath.phase raised
        # OverflowError there, a traceback and exit 1.  pytest turns any
        # RuntimeWarning into an error, so none is emitted either
        code = main([task, "--param", f'method="{method}"', "--param", "alpha_re=1e300",
                     "--param", "alpha_im=1e-300", "--out", str(tmp_path / "r")])
        assert code == EXIT_TRUNCATION
        assert "truncation error" in capsys.readouterr().err

    def test_domain_exit_status(self, tmp_path, capsys):
        # the harmonic reference has no su(1,1) structure and no coordinate
        # family; these runs exited 5 from inside a route and are now
        # rejected with the configuration, before any output is written
        runs = [("compare", None), ("displacement-check", None)]
        runs += [("coherent", m) for m in ("annihilation-closed-form", "displacement", "displacement-factored")]
        runs += [("wavefunction", m) for m in METHODS]
        for task, method in runs:
            argv = [task, "--param", 'model="harmonic"', "--out", str(tmp_path / "r")]
            if method is not None:
                argv[1:1] = ["--param", f'method="{method}"']
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "harmonic" in err and (method if task == "coherent" else task) in err
            assert not os.path.exists(tmp_path / "r")


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

    def test_closed_form_eigenstate_grows_cutoff(self, tmp_path):
        # at cutoff 128 the closed form's last weight is 0.59; the run exited 1
        used = {}
        for method in ("annihilation", "annihilation-closed-form"):
            out = str(tmp_path / method)
            assert main(["coherent", "--param", f'method="{method}"', "--param", "alpha_re=100.0",
                         "--out", out]) == EXIT_OK
            used[method] = json.loads(read(os.path.join(out, "report.json")))["cutoff_used"]
        assert used == {"annihilation": 512, "annihilation-closed-form": 512}

    def test_check_tol_applied(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["coherent", "--param", "check_tol=1e-300", "--out", out]) == EXIT_CHECK_FAILED
        report = json.loads(read(os.path.join(out, "report.json")))
        checks = {c["id"]: c for c in report["checks"]}
        assert checks["state-normalized"]["tolerance"] == 1e-300
        assert not checks["state-normalized"]["passed"]

    def test_displacement_grows_cutoff(self, tmp_path):
        # the exact family's tail at cutoff 128 is 1.2e-7; the run exited 1
        out = str(tmp_path / "r")
        assert main(["coherent", "--param", 'method="displacement"',
                     "--param", 'model="pseudoharmonic"', "--param", "s=2.0",
                     "--param", "alpha_re=1.5", "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["cutoff_used"] == 256
        assert report["tail_mass"] <= 1e-12

    def test_displacement_past_cap_is_truncation_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(coherent.MAX_CUTOFF_ENV, "512")
        code = main(["coherent", "--param", 'method="displacement"', "--param", "alpha_re=8.0",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_TRUNCATION
        assert "cap 512" in capsys.readouterr().err

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

    def test_displacement_check_grows_the_direct_route(self, tmp_path, capsys, monkeypatch):
        # at cutoff 128 the direct route's Duhamel bound is 2.7e-7 (its last
        # weight, 2.7e-14, met tail_tol while the amplitudes were 7e-8 off, so
        # the run once exited 1).  Its certificate, the exact tail and the
        # squared bound, meets check_tol**2 = 1e-18 at 256
        argv = ["displacement-check", "--param", 'model="pseudoharmonic"', "--param", "s=1.441",
                "--param", "alpha_re=1.149", "--param", "alpha_im=0.556"]
        for cutoff in (128, 64):
            out = str(tmp_path / f"r{cutoff}")
            assert main(argv + ["--param", f"cutoff={cutoff}", "--out", out]) == EXIT_OK
            report = json.loads(read(os.path.join(out, "report.json")))
            assert [c["parameters"]["cutoff"] for c in report["checks"]] == [256, 256]
            assert all(c["max_deviation"] < 1e-12 for c in report["checks"])
            assert len(read(os.path.join(out, "displacement-check.csv")).splitlines()) == 1 + 256
        # the growth stops at min(512, DEFOSC_MAX_CUTOFF), from any given cutoff
        monkeypatch.setenv(coherent.MAX_CUTOFF_ENV, "128")
        for cutoff in (128, 64):
            assert main(argv + ["--param", f"cutoff={cutoff}",
                                "--out", str(tmp_path / f"capped{cutoff}")]) == EXIT_TRUNCATION
            # the certificate fails at every cutoff up to the cap, so nothing is built
            err = capsys.readouterr().err
            assert "tail mass bound" in err and "at cutoff 128" in err and "cap 128" in err

    def test_displacement_check_fails_on_too_few_direct_levels(self, tmp_path, monkeypatch):
        # fault injection: exponentiating on a quarter of the certified levels
        # leaves a truncation gap that the checks see
        argv = ["displacement-check", "--param", "alpha_re=1.2", "--param", "alpha_im=0.3"]
        assert main(argv + ["--out", str(tmp_path / "certified")]) == EXIT_OK
        chosen = coherent._direct_levels
        monkeypatch.setattr(coherent, "_direct_levels", lambda f, radius, n: chosen(f, radius, n) // 4)
        assert main(argv + ["--out", str(tmp_path / "quarter")]) == EXIT_CHECK_FAILED

    def test_wavefunction_explicit_zeta(self, tmp_path):
        assert main(["wavefunction", "--param", 'method="displacement"', "--param", "zeta_im=0.3",
                     "--param", "cutoff=48", "--out", str(tmp_path / "r")]) == EXIT_OK

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

    def test_wavefunction_pseudoharmonic_small_s(self, tmp_path):
        # non-integer 2s < 3: the adaptive Gauss-Legendre norm was off by 1.0e-6
        out = str(tmp_path / "r")
        assert main(["wavefunction", "--param", 'model="pseudoharmonic"',
                     "--param", "s=0.5771074864666221", "--param", "alpha_re=2.469356972299063",
                     "--param", "alpha_im=-0.31051357808916485", "--param", "check_tol=1e-8",
                     "--out", out]) == EXIT_OK

    def test_wavefunction_pseudoharmonic_past_200_levels(self, tmp_path):
        # n_eff = 209 needs a 210-node Laguerre rule, whose largest weights
        # underflow; the rule seeds the recurrences with sqrt(w) instead
        out = str(tmp_path / "r")
        assert main(["wavefunction", "--param", 'model="pseudoharmonic"', "--param", "s=1.0",
                     "--param", 'method="displacement"', "--param", "alpha_re=1.5",
                     "--param", "cutoff=512", "--out", out]) == EXIT_OK
        report = json.loads(read(os.path.join(out, "report.json")))
        assert abs(report["quadrature_norm"] - 1.0) < 1e-12

    @pytest.mark.parametrize("method, model, alpha_re", [("annihilation-closed-form", "tpt", 100.0),
                                                         ("displacement", "pseudoharmonic", 1.9)])
    def test_wavefunction_closed_forms_meet_tail_tol(self, tmp_path, monkeypatch, method, model, alpha_re):
        # at cutoff 128 the first state's last weight is 0.59 and the second
        # drops 7.7e-4 of the mass; both runs exited 0 with the truncated state
        monkeypatch.setenv(coherent.MAX_CUTOFF_ENV, "128")
        assert main(["wavefunction", "--param", f'method="{method}"', "--param", f'model="{model}"',
                     "--param", f"alpha_re={alpha_re}", "--out", str(tmp_path / "r")]) == EXIT_TRUNCATION

    def test_wavefunction_grown_past_laguerre_reach(self, tmp_path):
        # the grown state (cutoff 512) occupies levels 0..458; SciPy gives no valid
        # 459-node Laguerre rule
        assert main(["wavefunction", "--param", 'method="displacement"', "--param", 'model="pseudoharmonic"',
                     "--param", "alpha_re=1.9", "--out", str(tmp_path / "r")]) == EXIT_QUADRATURE

    def test_harmonic_limit(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["harmonic-limit", "--out", out]) == EXIT_OK
        rows = read(os.path.join(out, "harmonic-limit.csv")).decode().strip().split("\n")
        assert rows[0] == "lambda,deviation"
        assert len(rows) == 4


def test_module_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(fock.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "defosc", "spectrum", "--param", "cutoff=3",
                           "--out", str(tmp_path / "r")], env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert read(tmp_path / "r" / "spectrum.csv") == b"n,energy\n0,1.0\n1,3.5\n2,7.0\n"

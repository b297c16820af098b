"""Batch front-end: config-driven runs, CSV artifacts, verification report.

Invocation:

    defosc <task> [--config FILE] [--param key=value ...] --out DIR

Tasks: spectrum, coherent, compare, commutators, displacement-check,
wavefunction, harmonic-limit.  Each run writes ``<task>.csv`` and
``report.json`` into the output directory and exits 0 only if every
declared check passed.  Output is deterministic for a fixed config:
floats are printed as shortest round-trip decimals and re-runs produce
byte-identical files.

Exit status: 0 all checks passed; 1 some check failed; 2 bad
configuration; 3 truncation failure; 4 quadrature or fitting failure;
5 domain error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from . import coherent as cs
from . import fock, models, position
from .errors import ConfigError, DefoscError, DomainError, QuadratureError, TruncationError

__all__ = ["RunConfig", "run", "emit_csv", "main"]

TASKS = (
    "spectrum",
    "coherent",
    "compare",
    "commutators",
    "displacement-check",
    "wavefunction",
    "harmonic-limit",
)

METHODS = (
    "annihilation",
    "annihilation-closed-form",
    "displacement",
    "displacement-direct",
    "displacement-factored",
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3
EXIT_QUADRATURE = 4
EXIT_DOMAIN = 5

_DEFAULT_CHECK_TOL = {
    "spectrum": 1e-12,
    "coherent": 1e-12,
    "compare": 1e-12,
    "commutators": 1e-12,
    "displacement-check": 1e-9,
    "wavefunction": 1e-6,
    "harmonic-limit": 1e-2,
}

_CONFIG_DEFAULTS: dict[str, Any] = {
    "model": "tpt",
    "lambda": 2.0,
    "a": 1.0,
    "s": 1.0,
    "omega": 1.0,
    "alpha_re": 0.5,
    "alpha_im": 0.0,
    "zeta_re": None,
    "zeta_im": None,
    "cutoff": 128,
    "tail_tol": 1e-12,
    "check_tol": None,
    "grid_nodes": 256,
    "lambdas": [100.0, 1000.0, 10000.0],
    "method": "annihilation",
}


def _is_finite_real(value: Any) -> bool:
    # bool is an int subclass, but true/false is never a meaningful number
    # here; the bound rejects NaN, infinities and integers too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class RunConfig:
    """One resolved run: a task plus every numeric knob it may need."""

    task: str
    settings: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def build(cls, task: str, config_path: Optional[str], overrides: list[str]) -> "RunConfig":
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}; choose one of {', '.join(TASKS)}")
        merged = dict(_CONFIG_DEFAULTS)
        if config_path is not None:
            try:
                with open(config_path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise ConfigError("config document must be a JSON object")
            for key, val in doc.items():
                if key == "task":
                    if val != task:
                        raise ConfigError(f"config names task {val!r} but {task!r} was requested")
                    continue
                if key not in merged:
                    raise ConfigError(f"unknown config key {key!r}")
                merged[key] = val
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--param expects key=value, got {item!r}")
            key, raw = item.split("=", 1)
            if key == "task":
                raise ConfigError("the task is fixed by the positional argument")
            if key not in merged:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                merged[key] = json.loads(raw)
            except json.JSONDecodeError:
                merged[key] = raw
        if merged["check_tol"] is None:
            merged["check_tol"] = _DEFAULT_CHECK_TOL[task]
        cfg = cls(task=task, settings=merged)
        cfg._validate()
        return cfg

    def _validate(self) -> None:
        s = self.settings
        if s["model"] not in ("tpt", "pseudoharmonic", "harmonic"):
            raise ConfigError(f"unknown model {s['model']!r}")
        if s["method"] not in METHODS:
            raise ConfigError(f"unknown method {s['method']!r}; choose one of {', '.join(METHODS)}")
        # the harmonic reference has no su(1,1) lowest weight and no coordinate family
        if s["model"] == "harmonic":
            if self.task in ("compare", "displacement-check", "wavefunction"):
                raise ConfigError(f"model \"harmonic\" does not support the {self.task!r} task")
            if self.task == "coherent" and s["method"] not in ("annihilation", "displacement-direct"):
                raise ConfigError("model \"harmonic\" supports the coherent task only with method "
                                  f"\"annihilation\" or \"displacement-direct\", not {s['method']!r}")
        if not isinstance(s["cutoff"], int) or s["cutoff"] < 2:
            raise ConfigError(f"cutoff must be an integer >= 2, got {s['cutoff']!r}")
        for key in ("tail_tol", "check_tol"):
            if not _is_finite_real(s[key]) or not 0 < s[key]:
                raise ConfigError(f"{key} must be a finite positive number, got {s[key]!r}")
        if not isinstance(s["grid_nodes"], int) or s["grid_nodes"] < 2:
            raise ConfigError(f"grid_nodes must be an integer >= 2, got {s['grid_nodes']!r}")
        if not isinstance(s["lambdas"], list) or not s["lambdas"]:
            raise ConfigError("lambdas must be a nonempty list")
        if not all(_is_finite_real(x) and 0.5 < x for x in s["lambdas"]):
            raise ConfigError(f"lambdas entries must be finite numbers above 1/2, got {s['lambdas']!r}")
        try:
            self.model_params()
            amplitudes = {"alpha": self.alpha, "zeta": self.zeta}
        except (DomainError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc
        for name, value in amplitudes.items():
            if value is not None and not cmath.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.zeta is not None and not (self.task in ("coherent", "wavefunction")
                                          and s["method"] == "displacement"):
            raise ConfigError("zeta_re/zeta_im apply only to the coherent and wavefunction "
                              f"tasks with method \"displacement\", not to {self.task!r} "
                              f"with method {s['method']!r}")

    def model_params(self) -> models.ModelParams:
        s = self.settings
        if s["model"] == "tpt":
            return models.ModelParams.tpt(float(s["lambda"]), float(s["a"]))
        if s["model"] == "pseudoharmonic":
            return models.ModelParams.pseudoharmonic(float(s["s"]))
        return models.ModelParams.harmonic(float(s["omega"]))

    def deformation(self) -> models.DeformationFunction:
        """The model's deformation; its ``params`` are :meth:`model_params`."""
        return models.deformation_for(self.model_params())

    @property
    def alpha(self) -> complex:
        return complex(float(self.settings["alpha_re"]), float(self.settings["alpha_im"]))

    @property
    def zeta(self) -> Optional[complex]:
        zr, zi = self.settings["zeta_re"], self.settings["zeta_im"]
        if zr is None and zi is None:
            return None
        return complex(float(zr or 0.0), float(zi or 0.0))


def _fmt(cell: Any) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    return str(cell)


def emit_csv(header: list[str], rows: list[list], path: str) -> None:
    """Write a rectangular table: UTF-8, header row, comma separators,
    shortest round-trip floats, "\\n" line terminator."""
    for row in rows:
        if len(row) != len(header):
            raise DomainError(f"row width {len(row)} does not match header width {len(header)}")
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _check(check_id: str, parameters: dict, deviation: float, tolerance: float,
           excluded: Optional[list[int]] = None, passed: Optional[bool] = None) -> dict:
    return {
        "id": check_id,
        "parameters": parameters,
        "max_deviation": float(deviation),
        "tolerance": float(tolerance),
        "passed": bool(deviation <= tolerance) if passed is None else bool(passed),
        "excluded_indices": [] if excluded is None else excluded,
    }


def _energies(p: models.ModelParams, n: np.ndarray) -> np.ndarray:
    if p.model is models.Model.TPT:
        return np.asarray(models.tpt_energy(n, p))
    if p.model is models.Model.PSEUDOHARMONIC:
        return np.asarray(models.pseudoharmonic_energy(n, p.s))
    return p.omega * (n + 0.5)


# ---------------------------------------------------------------------------
# Task implementations; each returns (header, rows, checks, extras)


def _task_spectrum(cfg: RunConfig):
    f = cfg.deformation()
    p = f.params
    n_levels = cfg.settings["cutoff"]
    n = np.arange(n_levels, dtype=float)
    energies = _energies(p, n)
    if p.model is models.Model.PSEUDOHARMONIC:
        diag = fock.deformed_hamiltonian_antisymmetric(f, n_levels)
        check_id = "spectrum-antisymmetric-hamiltonian"
    else:
        diag = fock.deformed_hamiltonian_symmetric(f, n_levels, p.omega)
        check_id = "spectrum-symmetric-hamiltonian"
    rel = float(np.max(np.abs(diag - energies) / np.maximum(np.abs(energies), 1e-300)))
    checks = [_check(check_id, {"model": cfg.settings["model"], "levels": n_levels},
                     rel, cfg.settings["check_tol"])]
    rows = [[int(k), float(energies[k])] for k in range(n_levels)]
    return ["n", "energy"], rows, checks, {}


def _rel_dev(computed: np.ndarray, target: np.ndarray) -> float:
    # Entrywise relative to the identity's magnitude, floored at 1 so that
    # structurally-zero entries are compared absolutely.
    return float(np.max(np.abs(computed - target) / np.maximum(1.0, np.abs(target)), initial=0.0))


def _commutator_suite(f: models.DeformationFunction, cutoff: int) -> list[tuple[str, float, list[int]]]:
    # For f^2(n) = slope*n + intercept: [A, A^dag] = C with
    # C = diag(2*slope*n + slope + intercept), [A, N] = A and [A^dag, N] = -A^dag.
    # Each side has one nonzero diagonal, built from amp[n] = <n|A|n+1>; the
    # entries touching index N-1 are excluded, leaving amp[n] for n < N-2.
    amp = fock.ladder_amplitudes(f, cutoff)
    sq = amp * amp
    n = np.arange(cutoff - 1, dtype=float)
    c1 = sq - np.concatenate(([0.0], sq[:-1]))
    inner, m = amp[:-1], n[:-1]
    d2 = inner * (m + 1.0) - m * inner
    d3 = inner * m - (m + 1.0) * inner
    excluded = [cutoff - 1]
    return [
        ("commutator-lower-raise", _rel_dev(c1, 2.0 * f.slope * n + f.slope + f.intercept), excluded),
        ("commutator-lower-number", _rel_dev(d2, inner), excluded),
        ("commutator-raise-number", _rel_dev(d3, -inner), excluded),
    ]


def _task_commutators(cfg: RunConfig):
    cutoff = cfg.settings["cutoff"]
    tol = cfg.settings["check_tol"]
    suite = _commutator_suite(cfg.deformation(), cutoff)
    checks = [
        _check(cid, {"model": cfg.settings["model"], "cutoff": cutoff}, dev, tol, excluded)
        for cid, dev, excluded in suite
    ]
    rows = [[c["id"], c["max_deviation"], c["tolerance"], c["passed"]] for c in checks]
    return ["check", "max_deviation", "tolerance", "passed"], rows, checks, {}


# The route of each method, named so that it is looked up on ``cs`` at call
# time and a wrapper installed there (bench/tracing.py) sees every call.
# Every route takes (f, alpha or zeta, cutoff).
_ROUTES = {
    "annihilation": "annihilation_eigenstate",
    "annihilation-closed-form": "closed_form_bg_coefficients",
    "displacement": "displacement_state_closed_form",
    "displacement-direct": "displacement_state_direct",
    "displacement-factored": "displacement_state_factored",
}


def _build_state(cfg: RunConfig, f: models.DeformationFunction, method: str) -> cs.CoherentStateResult:
    """The state of ``method`` for the state tasks, from one :func:`grow_cutoff` call.

    The recurrence and the closed forms double their cutoff until the tail
    meets ``tail_tol``, up to DEFOSC_MAX_CUTOFF.  The direct and factored
    routes do dense N^3 work, so they are pinned to the configured cutoff
    and raise TruncationError there."""
    cutoff = cfg.settings["cutoff"]
    route = getattr(cs, _ROUTES[method])
    parameter = cfg.alpha
    if method == "displacement":
        parameter = cfg.zeta if cfg.zeta is not None else cs.zeta_from_alpha(cfg.alpha, f)
    pin = cutoff if method in ("displacement-direct", "displacement-factored") else None
    return cs.grow_cutoff(lambda n: route(f, parameter, n), cutoff, cfg.settings["tail_tol"], pin)


def _task_coherent(cfg: RunConfig):
    method = cfg.settings["method"]
    result = _build_state(cfg, cfg.deformation(), method)
    c = result.state.coeffs
    rows = [[int(k), float(c[k].real), float(c[k].imag), float(abs(c[k]) ** 2)] for k in range(c.size)]
    stats = cs.photon_statistics(c)
    checks = [
        _check("state-normalized", {"method": cfg.settings["method"]},
               abs(float(np.linalg.norm(c)) - 1.0), cfg.settings["check_tol"]),
        _check("tail-below-tolerance", {"cutoff_used": result.state.cutoff},
               result.tail_mass, cfg.settings["tail_tol"]),
    ]
    extras = {
        "method": result.method.value,
        "parameter": {"re": result.parameter.real, "im": result.parameter.imag},
        "normalization_constant": result.normalization_constant,
        "tail_mass": result.tail_mass,
        "cutoff_used": result.state.cutoff,
        "photon_statistics": {
            "mean_n": stats.mean_n,
            "variance_n": stats.variance_n,
            "mandel_q": stats.mandel_q,
        },
    }
    return ["n", "re", "im", "abs2"], rows, checks, extras


def _task_compare(cfg: RunConfig):
    f = cfg.deformation()
    cutoff = cfg.settings["cutoff"]
    tol = cfg.settings["check_tol"]
    alpha = cfg.alpha
    zeta = cs.zeta_from_alpha(alpha, f)
    bg_rec = cs.grow_cutoff(lambda n: cs.annihilation_eigenstate(f, alpha, n), cutoff,
                            cfg.settings["tail_tol"], max_cutoff=cutoff).state.coeffs
    bg_closed = cs.closed_form_bg_coefficients(f, alpha, cutoff).state.coeffs
    disp_closed = cs.displacement_state_closed_form(f, zeta, cutoff).state.coeffs
    disp_formula = cs.deformed_displacement_coefficients(f, zeta, cutoff)

    d1, inf1 = cs.compare_states(bg_rec, bg_closed)
    d2, inf2 = cs.compare_states(disp_closed, disp_formula / np.linalg.norm(disp_formula))
    d3, inf3 = cs.compare_states(bg_rec, disp_closed)
    rows = [
        ["bg-recurrence-vs-closed-form", d1, inf1],
        ["displacement-closed-vs-deformed-formula", d2, inf2],
        ["bg-vs-displacement", d3, inf3],
    ]
    checks = [
        _check("bg-recurrence-vs-closed-form", {"alpha_re": alpha.real, "alpha_im": alpha.imag}, d1, tol),
        _check("displacement-closed-vs-deformed-formula",
               {"zeta_re": zeta.real, "zeta_im": zeta.imag}, d2, tol),
    ]
    extras = {"bg_vs_displacement": {"max_abs_coeff_diff": d3, "infidelity": inf3}}
    return ["comparison", "max_abs_coeff_diff", "infidelity"], rows, checks, extras


def _task_displacement_check(cfg: RunConfig):
    f = cfg.deformation()
    cutoff = cfg.settings["cutoff"]
    tol = cfg.settings["check_tol"]
    alpha = cfg.alpha
    zeta = cs.zeta_from_alpha(alpha, f)
    direct = _build_state(cfg, f, "displacement-direct").state.coeffs
    factored = _build_state(cfg, f, "displacement-factored").state.coeffs
    closed = cs.displacement_state_closed_form(f, zeta, cutoff).state.coeffs
    dev_fact = float(np.max(np.abs(direct - factored)))
    dev_closed = float(np.max(np.abs(direct - closed)))
    checks = [
        _check("displacement-direct-vs-factored",
               {"alpha_re": alpha.real, "alpha_im": alpha.imag, "cutoff": cutoff}, dev_fact, tol),
        _check("displacement-direct-vs-closed-form",
               {"zeta_re": zeta.real, "zeta_im": zeta.imag, "cutoff": cutoff}, dev_closed, tol),
    ]
    rows = [
        [int(k), float(direct[k].real), float(direct[k].imag),
         float(factored[k].real), float(factored[k].imag),
         float(closed[k].real), float(closed[k].imag)]
        for k in range(cutoff)
    ]
    header = ["n", "direct_re", "direct_im", "factored_re", "factored_im", "closed_re", "closed_im"]
    return header, rows, checks, {}


def _task_wavefunction(cfg: RunConfig):
    f = cfg.deformation()
    p = f.params
    c = _build_state(cfg, f, cfg.settings["method"]).state.coeffs
    occupied = np.nonzero(np.abs(c) ** 2 > 1e-16)[0]
    n_eff = int(occupied[-1]) if occupied.size else 0
    nodes = position.sample_points(p, cfg.settings["grid_nodes"], n_eff)
    vals = np.asarray(position.coherent_wavefunction(c, nodes, p), dtype=complex)
    # the norm of the occupied levels, exact on the (n_eff+1)-node Gauss rule
    on_rule = c[: n_eff + 1] @ position.gauss_levels(p, n_eff, n_eff + 1)
    norm = float(np.vdot(on_rule, on_rule).real)
    err = 32.0 * np.finfo(float).eps * norm
    checks = [
        _check("wavefunction-norm", {"grid_nodes": cfg.settings["grid_nodes"]},
               abs(norm - 1.0), cfg.settings["check_tol"]),
    ]
    rows = [[float(nodes[i]), float(vals[i].real), float(vals[i].imag)] for i in range(nodes.size)]
    extras = {"quadrature_norm": norm, "quadrature_error_estimate": err}
    return ["node", "psi_re", "psi_im"], rows, checks, extras


def _task_harmonic_limit(cfg: RunConfig):
    lambdas = [float(x) for x in cfg.settings["lambdas"]]
    devs = cs.harmonic_limit_deviation(cfg.alpha, lambdas, cfg.settings["cutoff"])
    rows = [[lambdas[i], devs[i]] for i in range(len(lambdas))]
    increases = [devs[i + 1] - devs[i] for i in range(len(devs) - 1)]
    worst_increase = max(increases) if increases else -math.inf
    checks = [
        _check("deviation-strictly-decreasing", {"lambdas": lambdas},
               worst_increase, 0.0, passed=worst_increase < 0.0),
        _check("final-deviation-small", {"lambda": lambdas[-1]},
               devs[-1], cfg.settings["check_tol"]),
    ]
    return ["lambda", "deviation"], rows, checks, {"deviations": devs}


_TASK_FN = {
    "spectrum": _task_spectrum,
    "coherent": _task_coherent,
    "compare": _task_compare,
    "commutators": _task_commutators,
    "displacement-check": _task_displacement_check,
    "wavefunction": _task_wavefunction,
    "harmonic-limit": _task_harmonic_limit,
}


def run(cfg: RunConfig, out_dir: str) -> int:
    """Execute one task, write ``<task>.csv`` and ``report.json``, return exit status."""
    os.makedirs(out_dir, exist_ok=True)
    header, rows, checks, extras = _TASK_FN[cfg.task](cfg)
    emit_csv(header, rows, os.path.join(out_dir, f"{cfg.task}.csv"))
    all_passed = all(c["passed"] for c in checks)
    report = {
        "task": cfg.task,
        "config": cfg.settings,
        "checks": checks,
        "all_passed": all_passed,
    }
    report.update(extras)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['id']}: max_deviation={c['max_deviation']!r} tolerance={c['tolerance']!r}")
    print("OK" if all_passed else "FAILED")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="defosc",
        description="Deformed-oscillator coherent states: batch computations and verification.",
    )
    parser.add_argument("task", choices=TASKS, help="computation to run")
    parser.add_argument("--config", default=None, help="JSON configuration file")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config field (repeatable)")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.build(args.task, args.config, args.param)
        return run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (DomainError, DefoscError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())

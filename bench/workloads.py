"""Seeded job lists of the three benchmark workloads.

A job is one call through a public defosc entry point: a CLI task run by
``defosc.cli.main`` or a library ``defosc.position.orthonormality_gram``
call (task name ``gram``).  The job list depends only on the workload name
and the seed.  Draws are never filtered: a draw the program cannot handle
stays in the list and is counted as a failure.

Continuous parameters are Latin-hypercube stratified inside each cell of
(task, variant, model): with n jobs in a cell, each parameter gets exactly
one draw in each of n equal-probability strata.  The marginals are the
stated distributions, but the share of draws in any region (for example
the large-|alpha| region where truncation fails) varies far less between
seeds than with independent draws, so seed-to-seed spread of the metrics
reflects the program rather than the luck of the draw.

Every workload reports every end-to-end metric, so each list also holds
the everyday slice: the ``tasks-default`` job list, with jobs of every
task kind at the default sizes, marked ``everyday``.  ``tasks-default``
is that slice alone.  A per-task time is the median over the
workload's own jobs of the task when it has some, else over its everyday
jobs; so ``displacement-check_s`` on ``fock-dense-large`` times only the
dense jobs, while ``spectrum_s`` there times the everyday spectrum jobs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

CLI_TASKS = (
    "spectrum",
    "coherent",
    "compare",
    "commutators",
    "displacement-check",
    "wavefunction",
    "harmonic-limit",
)
GRAM = "gram"
TASK_KINDS = CLI_TASKS + (GRAM,)

METHODS = (
    "annihilation",
    "annihilation-closed-form",
    "displacement",
    "displacement-direct",
    "displacement-factored",
)

ALL_MODELS = ("tpt", "pseudoharmonic", "harmonic")
DEFORMED_MODELS = ("tpt", "pseudoharmonic")

# Models each CLI task accepts; the harmonic model has no
# su(1,1) structure, so only the recurrence route of `coherent` takes it.
# `harmonic-limit` sweeps its own lambda list and takes no model.
TASK_MODELS = {
    "spectrum": ALL_MODELS,
    "compare": DEFORMED_MODELS,
    "commutators": ALL_MODELS,
    "displacement-check": DEFORMED_MODELS,
    "wavefunction": DEFORMED_MODELS,
    "harmonic-limit": (None,),
}
METHOD_MODELS = {m: (ALL_MODELS if m == "annihilation" else DEFORMED_MODELS) for m in METHODS}

WORKLOADS = ("tasks-default", "fock-dense-large", "position-quadrature")

# Job counts per pass of each workload's list.
EVERYDAY_PER_TASK = 100
WAVEFUNCTION_PER_CELL = 2
# Gram cost is a step function of the quadrature order the draw needs, so
# the cells are large enough that each order class keeps a steady share.
GRAM_N_MAX = (10, 40)
GRAM_PER_CELL = 10

# Highest quadrature order orthonormality_gram may double past.  Without a
# cap a Gram job that does not converge doubles its order until leggauss
# asks for more memory than the machine has (pseudoharmonic s = 0.618,
# n_max = 10 reached 4 GiB before MemoryError); with it such a job fails
# with QuadratureError after trying order 2048, about 0.7 s.
GRAM_MAX_ORDER = 1024


@dataclass(frozen=True)
class Job:
    """One benchmark job: a task kind and its parameters as sorted pairs.

    For CLI tasks the pairs are ``--param`` overrides; for ``gram`` they
    are ``model``, the model parameter and ``n_max``.
    """

    task: str
    params: tuple[tuple[str, object], ...]
    everyday: bool = False

    @property
    def settings(self) -> dict:
        return dict(self.params)

    def argv(self, out_dir: str) -> list[str]:
        """Command line of a CLI job writing into ``out_dir``."""
        argv = [self.task]
        for key, val in self.params:
            argv += ["--param", f"{key}={json.dumps(val)}"]
        return argv + ["--out", out_dir]

    @property
    def cutoff(self) -> int:
        return int(self.settings.get("cutoff", 128))


def _job(task: str, **params) -> Job:
    return Job(task, tuple(sorted(params.items())))


def _everyday(jobs: list[Job]) -> list[Job]:
    return [Job(j.task, j.params, everyday=True) for j in jobs]


def _lhs(rng: random.Random, n: int) -> list[float]:
    """n uniform draws on [0, 1), one in each of n equal strata, in random order."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [(k + rng.random()) / n for k in strata]


def _uniform(lo: float, hi: float) -> Callable[[float], float]:
    return lambda u: lo + (hi - lo) * u


def _log_uniform(lo: float, hi: float) -> Callable[[float], float]:
    return lambda u: math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u)


# Acceptance-suite ranges, used by the everyday slice.
DEFAULT_RANGES = {
    "lambda": _uniform(0.6, 50.0),
    "s": _uniform(0.5, 3.0),
    "alpha_abs": _uniform(0.0, 4.0),
    "alpha_phase": _uniform(0.0, 2.0 * math.pi),
}

MODEL_PARAM = {"tpt": "lambda", "pseudoharmonic": "s"}


def _cell(rng: random.Random, task: str, n: int, fixed: dict, ranges: dict,
          with_alpha: bool) -> list[Job]:
    """n jobs sharing ``fixed`` settings, with stratified continuous draws."""
    model_param = MODEL_PARAM.get(fixed.get("model"))
    names = [model_param] if model_param else []
    if with_alpha:
        names += ["alpha_abs", "alpha_phase"]
    columns = {name: [ranges[name](u) for u in _lhs(rng, n)] for name in names}
    jobs = []
    for i in range(n):
        params = dict(fixed)
        for name in names:
            if name not in ("alpha_abs", "alpha_phase"):
                params[name] = columns[name][i]
        if with_alpha:
            r, phi = columns["alpha_abs"][i], columns["alpha_phase"][i]
            params["alpha_re"] = r * math.cos(phi)
            params["alpha_im"] = r * math.sin(phi)
        jobs.append(_job(task, **params))
    return jobs


def _split(total: int, parts: int) -> list[int]:
    return [total // parts + (1 if i < total % parts else 0) for i in range(parts)]


def _task_cells(task: str) -> list[dict]:
    if task == "coherent":
        return [{"method": m, "model": model} for m in METHODS for model in METHOD_MODELS[m]]
    return [{"model": model} if model else {} for model in TASK_MODELS[task]]


def _default_task_jobs(rng: random.Random, task: str, n: int) -> list[Job]:
    """n jobs of one CLI task at the default cutoff and grid, tasks-default draws."""
    with_alpha = task not in ("spectrum", "commutators")
    cells = _task_cells(task)
    jobs: list[Job] = []
    for fixed, count in zip(cells, _split(n, len(cells))):
        jobs += _cell(rng, task, count, fixed, DEFAULT_RANGES, with_alpha)
    rng.shuffle(jobs)
    return jobs


GRAM_RANGES = {"lambda": _uniform(0.6, 50.0), "s": _uniform(0.5, 20.0)}


def _gram_jobs(rng: random.Random) -> list[Job]:
    """GRAM_PER_CELL Gram jobs for each n_max and model."""
    jobs: list[Job] = []
    for n_max in GRAM_N_MAX:
        for model in DEFORMED_MODELS:
            jobs += _cell(rng, GRAM, GRAM_PER_CELL, {"model": model, "n_max": n_max},
                          GRAM_RANGES, with_alpha=False)
    rng.shuffle(jobs)
    return jobs


def _spread(groups: list[list[Job]]) -> list[Job]:
    """Merge the groups so that each is spread evenly over the whole list
    (round-robin when they are the same length).  Every task's samples
    then span the whole pass, not one stretch of it, so a passing slow
    spell of the machine moves all medians a little, not one a lot."""
    keyed = [((k + 0.5) / len(g), i, j) for i, g in enumerate(groups) for k, j in enumerate(g)]
    return [j for _, _, j in sorted(keyed, key=lambda key: key[:2])]


def everyday_slice(rng: random.Random) -> list[Job]:
    """All 7 CLI tasks at cutoff 128 and 256 grid nodes, and the Gram jobs."""
    groups = [_default_task_jobs(rng, t, EVERYDAY_PER_TASK) for t in CLI_TASKS]
    return _everyday(_spread(groups + [_gram_jobs(rng)]))


DENSE_RANGES = {
    "lambda": _uniform(0.6, 50.0),
    "s": _uniform(0.5, 3.0),
    "alpha_abs": _uniform(1.0, 1.5),
    # a phase away from the real axis keeps every product genuinely complex
    "alpha_phase": _uniform(0.25, 2.0 * math.pi - 0.25),
}


def _fock_dense_large(rng: random.Random) -> list[Job]:
    """Dense N^3 work at cutoffs 512 and 1024; never builds a quadrature rule."""
    specs = [
        ("displacement-check", 1024, {"model": "tpt"}),
        ("displacement-check", 1024, {"model": "pseudoharmonic"}),
        ("displacement-check", 512, {"model": rng.choice(DEFORMED_MODELS)}),
        ("commutators", 1024, {"model": "tpt"}),
        ("commutators", 1024, {"model": "pseudoharmonic"}),
        ("commutators", 512, {"model": rng.choice(DEFORMED_MODELS)}),
        ("coherent", 512, {"model": rng.choice(DEFORMED_MODELS), "method": "displacement-direct"}),
        ("coherent", 512, {"model": rng.choice(DEFORMED_MODELS), "method": "displacement-factored"}),
    ]
    jobs = []
    for task, cutoff, fixed in specs:
        with_alpha = task != "commutators"
        jobs += _cell(rng, task, 1, dict(fixed, cutoff=cutoff), DENSE_RANGES, with_alpha)
    rng.shuffle(jobs)
    return _spread([jobs, everyday_slice(rng)])


QUADRATURE_RANGES = {
    "lambda": _uniform(0.6, 50.0),
    "s": _log_uniform(0.5, 200.0),
    "alpha_abs": _uniform(0.0, 4.0),
    "alpha_phase": _uniform(0.0, 2.0 * math.pi),
}


def _position_quadrature(rng: random.Random) -> list[Job]:
    """Quadrature-rule and eigenfunction work: wavefunctions and Gram matrices."""
    wave: list[Job] = []
    for nodes in (256, 1024, 2048):
        for cutoff in (128, 1024):
            for model in DEFORMED_MODELS:
                fixed = {"model": model, "method": "annihilation", "grid_nodes": nodes,
                         "cutoff": cutoff}
                wave += _cell(rng, "wavefunction", WAVEFUNCTION_PER_CELL, fixed,
                              QUADRATURE_RANGES, with_alpha=True)
    rng.shuffle(wave)
    return _spread([_spread([wave, _gram_jobs(rng)]), everyday_slice(rng)])


_BUILDERS = {
    "tasks-default": everyday_slice,
    "fock-dense-large": _fock_dense_large,
    "position-quadrature": _position_quadrature,
}


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one pass of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def warm_up_jobs() -> list[Job]:
    """One job of each task kind at default settings, run untimed before measuring."""
    # the factored method makes the warm-up reach the matrix exponential
    jobs = [_job(t, method="displacement-factored") if t == "coherent" else _job(t)
            for t in CLI_TASKS]
    return jobs + [_job(GRAM, model="tpt", n_max=10, **{"lambda": 2.0})]

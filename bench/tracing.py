"""Per-module spans around defosc's public functions, recorded from outside.

``Tracer.install`` wraps every public module-level function of the layer
modules (``cli``, ``models``, ``fock``, ``coherent``, ``position``) and
puts the wrapper into every ``defosc.*`` namespace that binds the
function, so calls made inside the library (``coherent`` imports
``matrix_exponential`` by name, ``cli`` calls ``cs.annihilation_eigenstate``)
are timed too.  No program file is changed; ``uninstall`` restores the
originals, so traced and untraced runs can alternate in one process.

A span records its name, start, end, parent span and job id, plus a few
attributes read from the call's arguments and result.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("cli", "models", "fock", "coherent", "position")

# The documented rule of fock.matrix_exponential: scale the argument until
# its 1-norm is at most THETA, sum SERIES_TERMS series terms (one matmul
# each), then square once per halving.
EXPM_THETA = 0.5
EXPM_SERIES_TERMS = 18


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "error", "attrs")

    def __init__(self, id: int, name: str, start: float, end: float,
                 parent: Optional[int], job: Optional[int]):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.error: Optional[str] = None
        self.attrs: dict = {}

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "error": self.error,
                "attrs": self.attrs}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = s.duration - covered
    return out


# -- attributes read from calls --------------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _observe_expm(span, args, kwargs, result):
    import numpy as np

    a = args[0].entries
    norm = float(np.linalg.norm(a, 1))
    squarings = math.ceil(math.log2(norm / EXPM_THETA)) if norm > EXPM_THETA else 0
    n = a.shape[0]
    span.attrs["gflop"] = 8.0 * n**3 * (EXPM_SERIES_TERMS + squarings) / 1e9


def _observe_eigenstate(span, args, kwargs, result):
    from defosc import coherent

    cutoff = int(_arg(args, kwargs, 2, "cutoff"))
    limit = _arg(args, kwargs, 4, "max_cutoff")
    if limit is None:
        # the unwrapped function, so the observer records no span of its own
        default_cap = getattr(coherent.max_auto_cutoff, "__wrapped__", coherent.max_auto_cutoff)
        limit = default_cap()
    final = result.state.cutoff if result is not None else 0
    tried, n = [cutoff], cutoff
    while n < (final or math.inf) and 2 * n <= int(limit):
        n *= 2
        tried.append(n)
    span.attrs["final_cutoff"] = final
    span.attrs["tried_cutoff_sum"] = sum(tried)


def _observe_grid(span, args, kwargs, result):
    if span.name.endswith("tpt_grid"):
        span.attrs["order"] = int(_arg(args, kwargs, 1, "order", 256))
    else:
        span.attrs["order"] = int(_arg(args, kwargs, 2, "order", 256))
        span.attrs["rho_max_growths"] = max(0, span.attrs.pop("tail_bound_calls", 0) - 1)


def _observe_eigenfunctions(span, args, kwargs, result):
    if result is not None:
        span.attrs["points"] = int(result.size)


def _observe_gram(span, args, kwargs, result):
    if result is not None:
        span.attrs["order_used"] = int(result[2])


OBSERVERS: dict[str, Callable] = {
    "fock.matrix_exponential": _observe_expm,
    "coherent.annihilation_eigenstate": _observe_eigenstate,
    "position.tpt_grid": _observe_grid,
    "position.radial_grid": _observe_grid,
    "position.tpt_eigenfunctions": _observe_eigenfunctions,
    "position.pseudoharmonic_radials": _observe_eigenfunctions,
    "position.orthonormality_gram": _observe_gram,
}

# Private helpers counted (not timed) on the enclosing span: each call of
# the radial tail bound after the first is one growth of rho_max.
COUNTERS = {"position._radial_tail_bound": "tail_bound_calls"}


def public_functions(module) -> dict[str, Callable]:
    """Module-level functions defined in ``module`` whose names are public."""
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans for calls into defosc while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: Optional[int] = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, Callable, Callable]] = []
        self._next_id = 0

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observer = OBSERVERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(self._next_id, name, time.perf_counter(), 0.0,
                        parent.id if parent else None, self.job)
            self._next_id += 1
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
                if observer is not None:
                    observer(span, args, kwargs, result)

        return wrapper

    def _counter(self, attr: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                stack[-1].attrs[attr] = stack[-1].attrs.get(attr, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _bindings(self, original: Callable, wrapper: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "defosc" or mod_name.startswith("defosc.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original, wrapper))

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            for layer in LAYERS:
                module = importlib.import_module(f"defosc.{layer}")
                for name, fn in public_functions(module).items():
                    self._bindings(fn, self._wrap(f"{layer}.{name}", fn))
            for qualified, attr in COUNTERS.items():
                layer, name = qualified.split(".", 1)
                fn = getattr(importlib.import_module(f"defosc.{layer}"), name, None)
                if fn is not None:
                    self._bindings(fn, self._counter(attr, fn))
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)


# -- per-layer metrics -------------------------------------------------------

GRID = ("position.tpt_grid", "position.radial_grid")
EIGENFUNCTIONS = ("position.tpt_eigenfunctions", "position.pseudoharmonic_radials")

PER_LAYER = (
    "fock.self_s",
    "fock.matrix_exponential.calls",
    "fock.matrix_exponential.self_s",
    "fock.matrix_exponential.gflop",
    "fock.matrix_exponential.gflops",
    "fock.commutator.self_s",
    "fock.ladder_matrices.self_s",
    "fock.apply.self_s",
    "coherent.self_s",
    "coherent.displacement_state_direct.incl_s",
    "coherent.displacement_state_factored.incl_s",
    "coherent.annihilation_eigenstate.calls",
    "coherent.annihilation_eigenstate.basis_useful_ratio",
    "coherent.truncation_errors",
    "position.self_s",
    "position.grid.self_s",
    "position.grid.calls",
    "position.grid.distinct_orders",
    "position.radial_grid.rho_max_growths",
    "position.eigenfunctions.self_s",
    "position.eigenfunctions.points",
    "position.coherent_wavefunction.self_s",
    "position.orthonormality_gram.order_used",
    "position.overlap_quadrature.self_s",
    "cli.self_s",
    "cli.bytes_written",
    "cli.worst_dev_over_tol",
    "models.self_s",
    "trace.overhead_frac",
)

UNITS = {"calls": "count", "gflop": "GFLOP", "gflops": "GFLOP/s", "basis_useful_ratio": "ratio",
         "truncation_errors": "count", "distinct_orders": "count", "rho_max_growths": "count",
         "points": "count", "order_used": "nodes", "bytes_written": "bytes",
         "worst_dev_over_tol": "ratio", "overhead_frac": "ratio"}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    return "s" if last.endswith("_s") else UNITS[last]


def pass_metrics(spans: list[Span], outcomes) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_frac``)."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def named(*names):
        return [s for s in spans if s.name in names]

    def self_sum(items):
        return sum(own[s.id] for s in items)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_sum(s for s in spans if s.module == layer)

    expm = named("fock.matrix_exponential")
    m["fock.matrix_exponential.calls"] = len(expm)
    m["fock.matrix_exponential.self_s"] = self_sum(expm)
    m["fock.matrix_exponential.gflop"] = sum(s.attrs.get("gflop", 0.0) for s in expm)
    t = m["fock.matrix_exponential.self_s"]
    m["fock.matrix_exponential.gflops"] = m["fock.matrix_exponential.gflop"] / t if t > 0 else 0.0
    for name in ("commutator", "ladder_matrices", "apply"):
        m[f"fock.{name}.self_s"] = self_sum(named(f"fock.{name}"))

    for name in ("displacement_state_direct", "displacement_state_factored"):
        m[f"coherent.{name}.incl_s"] = sum(s.duration for s in named(f"coherent.{name}"))
    eig = named("coherent.annihilation_eigenstate")
    m["coherent.annihilation_eigenstate.calls"] = len(eig)
    tried = sum(s.attrs.get("tried_cutoff_sum", 0) for s in eig)
    final = sum(s.attrs.get("final_cutoff", 0) for s in eig)
    m["coherent.annihilation_eigenstate.basis_useful_ratio"] = final / tried if tried else 0.0
    m["coherent.truncation_errors"] = sum(
        1 for s in spans
        if s.module == "coherent" and s.error == "TruncationError"
        and (s.parent is None or by_id[s.parent].module != "coherent")
    )

    grids = named(*GRID)
    m["position.grid.self_s"] = self_sum(grids)
    m["position.grid.calls"] = len(grids)
    m["position.grid.distinct_orders"] = len({s.attrs.get("order") for s in grids})
    m["position.radial_grid.rho_max_growths"] = sum(
        s.attrs.get("rho_max_growths", 0) for s in named("position.radial_grid"))
    eigf = named(*EIGENFUNCTIONS)
    m["position.eigenfunctions.self_s"] = self_sum(eigf)
    m["position.eigenfunctions.points"] = sum(s.attrs.get("points", 0) for s in eigf)
    m["position.coherent_wavefunction.self_s"] = self_sum(named("position.coherent_wavefunction"))
    orders = [s.attrs["order_used"] for s in named("position.orthonormality_gram")
              if "order_used" in s.attrs]
    m["position.orthonormality_gram.order_used"] = statistics.fmean(orders) if orders else 0.0
    m["position.overlap_quadrature.self_s"] = self_sum(named("position.overlap_quadrature"))

    m["cli.bytes_written"] = sum(o.bytes_written for o in outcomes)
    m["cli.worst_dev_over_tol"] = max((o.worst_dev_over_tol for o in outcomes), default=0.0)
    return m

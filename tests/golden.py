"""Output-digest lock: exit code and sha256 of every file a fixed set of CLI runs writes.

``RUNS`` is the default matrix (3 models x 7 tasks, ``coherent`` and
``wavefunction`` once per method: 45 runs) plus edge runs on the cutoff
growth, truncation and quadrature paths.  ``golden.json`` stores, for each
run, its argv, environment, exit code and the sha256 of each output file,
together with the NumPy and SciPy versions that produced them;
``test_golden.py`` replays the runs against it.

Regenerate from the root of a checkout with::

    python tests/golden.py

which rewrites ``tests/golden.json`` and prints every run whose exit code
or digests moved.  A change that moves a run names it, with the reason,
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
MAX_CUTOFF_ENV = "DEFOSC_MAX_CUTOFF"

MODELS = ("tpt", "pseudoharmonic", "harmonic")
TASKS = ("spectrum", "coherent", "compare", "commutators", "displacement-check",
         "wavefunction", "harmonic-limit")
METHODS = ("annihilation", "annihilation-closed-form", "displacement",
           "displacement-direct", "displacement-factored")


def _params(**settings) -> list[str]:
    out = []
    for key, val in settings.items():
        out += ["--param", f"{key}={json.dumps(val)}"]
    return out


def _default_runs() -> list[dict]:
    runs = []
    for model in MODELS:
        for task in TASKS:
            methods = METHODS if task in ("coherent", "wavefunction") else (None,)
            for method in methods:
                settings = {"model": model} if method is None else {"model": model, "method": method}
                name = f"{model}-{task}" + ("" if method is None else f"-{method}")
                runs.append({"name": name, "argv": [task] + _params(**settings), "env": {}})
    return runs


# (name, task, settings, environment)
_EDGE = (
    ("edge-tpt-coherent-displacement-alpha4", "coherent",
     {"method": "displacement", "alpha_re": 4.0}, {}),
    ("edge-tpt-coherent-displacement-alpha6", "coherent",
     {"method": "displacement", "alpha_re": 6.0}, {}),
    ("edge-pseudoharmonic-wavefunction-displacement-alpha1.9", "wavefunction",
     {"model": "pseudoharmonic", "s": 1.0, "alpha_re": 1.9, "method": "displacement"}, {}),
    ("edge-tpt-compare-lambda1e4", "compare", {"lambda": 1e4}, {}),
    ("edge-pseudoharmonic-wavefunction-s150", "wavefunction",
     {"model": "pseudoharmonic", "s": 150.0}, {}),
    ("edge-tpt-coherent-annihilation-alpha100", "coherent",
     {"method": "annihilation", "alpha_re": 100.0}, {}),
    ("edge-tpt-coherent-annihilation-closed-form-alpha100", "coherent",
     {"method": "annihilation-closed-form", "alpha_re": 100.0}, {}),
    ("edge-tpt-wavefunction-annihilation-closed-form-alpha100", "wavefunction",
     {"method": "annihilation-closed-form", "alpha_re": 100.0}, {}),
    ("edge-tpt-coherent-displacement-alpha4-cap256", "coherent",
     {"method": "displacement", "alpha_re": 4.0}, {MAX_CUTOFF_ENV: "256"}),
    ("edge-tpt-coherent-annihilation-alpha100-cap256", "coherent",
     {"method": "annihilation", "alpha_re": 100.0}, {MAX_CUTOFF_ENV: "256"}),
)

RUNS = _default_runs() + [
    {"name": name, "argv": [task] + _params(**settings), "env": dict(env)}
    for name, task, settings, env in _EDGE
]


def versions() -> dict[str, str]:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


@contextlib.contextmanager
def _environment(env: dict[str, str]):
    saved = os.environ.get(MAX_CUTOFF_ENV)
    os.environ.pop(MAX_CUTOFF_ENV, None)
    os.environ.update(env)
    try:
        yield
    finally:
        os.environ.pop(MAX_CUTOFF_ENV, None)
        if saved is not None:
            os.environ[MAX_CUTOFF_ENV] = saved


def execute(run: dict) -> dict:
    """Run one entry of ``RUNS`` in-process; return its exit code and file digests."""
    from defosc.cli import main

    with tempfile.TemporaryDirectory() as tmp, _environment(run["env"]):
        out = os.path.join(tmp, "out")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(run["argv"] + ["--out", out])
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        digests = {name: hashlib.sha256(Path(out, name).read_bytes()).hexdigest() for name in names}
    return {"exit": code, "sha256": digests}


def regenerate() -> list[str]:
    """Rewrite golden.json; return the names of the runs that moved."""
    old = {}
    if GOLDEN.exists():
        old = {r["name"]: r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"]}
    runs, moved = [], []
    for run in RUNS:
        record = {**run, **execute(run)}
        prior = old.get(run["name"])
        if prior is None or (prior["exit"], prior["sha256"]) != (record["exit"], record["sha256"]):
            moved.append(run["name"])
        runs.append(record)
    doc = {**versions(), "runs": runs}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return moved


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    for name in regenerate():
        print(f"moved: {name}")

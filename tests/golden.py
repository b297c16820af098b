"""Output-digest lock: exit code and sha256 of every file a fixed set of CLI runs writes.

``RUNS`` is the default matrix (3 models x 7 tasks, ``coherent`` and
``wavefunction`` once per method: 45 runs) plus edge runs on the cutoff
growth, truncation, quadrature and domain-error paths and on the size caps
of the configuration.  ``golden.json`` stores, for each
run, its argv, environment, exit code and the sha256 of each output file,
together with the NumPy and SciPy versions that produced them;
``test_golden.py`` replays the runs against it.

Regenerate from the root of a checkout with::

    python tests/golden.py [--against REV]

which rewrites ``tests/golden.json`` and prints every run whose exit code
or digests moved.  For each moved run it also replays the run on the
``src/`` of git revision REV (default ``HEAD``, the code before an
uncommitted change) and prints the old and new exit code and, for each
CSV column, the largest absolute change of its values.  A change that
moves a run names it, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
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
    ("edge-tpt-coherent-cutoff2^62", "coherent", {"cutoff": 2 ** 62}, {}),
    ("edge-tpt-wavefunction-grid-nodes2^62", "wavefunction", {"grid_nodes": 2 ** 62}, {}),
    ("edge-pseudoharmonic-displacement-check-direct-weight3e-14", "displacement-check",
     {"model": "pseudoharmonic", "s": 1.441, "alpha_re": 1.149, "alpha_im": 0.556}, {}),
    ("edge-tpt-coherent-displacement-direct-weight5e-22", "coherent",
     {"lambda": 6.8286174187391415, "alpha_re": 2.6204250834813703,
      "alpha_im": 2.221840693025592, "method": "displacement-direct"}, {}),
    ("edge-pseudoharmonic-coherent-displacement-factored-s400", "coherent",
     {"model": "pseudoharmonic", "s": 400.0, "alpha_re": 1.4, "method": "displacement-factored"}, {}),
    ("edge-pseudoharmonic-displacement-check-s200", "displacement-check",
     {"model": "pseudoharmonic", "s": 200.0, "alpha_re": 3.0, "alpha_im": 0.9}, {}),
    ("edge-pseudoharmonic-coherent-displacement-direct-s400", "coherent",
     {"model": "pseudoharmonic", "s": 400.0, "alpha_re": 1.4, "method": "displacement-direct"}, {}),
    ("edge-tpt-displacement-check-cutoff1024", "displacement-check", {"cutoff": 1024}, {}),
    ("edge-tpt-wavefunction-cutoff1024-nodes2048", "wavefunction",
     {"cutoff": 1024, "grid_nodes": 2048}, {}),
    ("edge-pseudoharmonic-wavefunction-cutoff1024-nodes2048", "wavefunction",
     {"model": "pseudoharmonic", "cutoff": 1024, "grid_nodes": 2048}, {}),
    ("edge-tpt-compare-alpha1e300-phase-underflow", "compare",
     {"alpha_re": 1e300, "alpha_im": 1e-300}, {}),
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


def _digests(out: str) -> dict[str, str]:
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    return {name: hashlib.sha256(Path(out, name).read_bytes()).hexdigest() for name in names}


def execute(run: dict, out: str | None = None) -> dict:
    """Run one entry of ``RUNS`` in-process; return its exit code and file digests.

    The output files go to ``out`` when given, else to a temporary directory."""
    from defosc.cli import main

    with tempfile.TemporaryDirectory() as tmp, _environment(run["env"]):
        out = out or os.path.join(tmp, "out")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(run["argv"] + ["--out", out])
        return {"exit": code, "sha256": _digests(out)}


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def column_changes(old: str, new: str) -> dict[str, float]:
    """Largest absolute change of each column between two CSV texts.

    A column of numbers gives its largest |new - old| (inf where one side is
    not finite and the other differs); any other column gives 0 if every
    cell is equal, else inf.  Tables of different headers or row counts give
    ``{"<shape>": inf}``."""
    old_rows, new_rows = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        return {"<shape>": math.inf}
    changes = {}
    for j, column in enumerate(new_rows[0]):
        worst = 0.0
        for a, b in zip(old_rows[1:], new_rows[1:]):
            if a[j] == b[j]:
                continue
            x, y = _number(a[j]), _number(b[j])
            delta = math.inf if x is None or y is None else abs(y - x)
            worst = max(worst, delta if math.isfinite(delta) else math.inf)
        changes[column] = worst
    return changes


def _source_at(rev: str, into: str) -> str:
    """Extract the ``src/`` tree of git revision ``rev`` into ``into``; return its path."""
    archive = subprocess.run(["git", "-C", str(HERE.parent), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return os.path.join(into, "src")


def _replay(run: dict, src: str, out: str) -> int:
    """Run ``run`` in a fresh interpreter on the package in ``src``; return its exit code."""
    env = {k: v for k, v in os.environ.items() if k != MAX_CUTOFF_ENV}
    env.update(run["env"], PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "defosc", *run["argv"], "--out", out],
                          env=env, capture_output=True).returncode


def regenerate(against: str | None = None) -> list[str]:
    """Rewrite golden.json; return one line for each run that moved.

    With ``against`` (a git revision), each line also gives the run's exit
    code at that revision and now, and the largest change of each CSV
    column."""
    old = {}
    if GOLDEN.exists():
        old = {r["name"]: r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"]}
    runs, lines = [], []
    with tempfile.TemporaryDirectory() as tmp:
        src = _source_at(against, os.path.join(tmp, "rev")) if against else None
        for run in RUNS:
            out = os.path.join(tmp, "new", run["name"])
            record = {**run, **execute(run, out)}
            runs.append(record)
            prior = old.get(run["name"])
            if prior is not None and (prior["exit"], prior["sha256"]) == (record["exit"], record["sha256"]):
                continue
            lines.append(f"moved: {run['name']}")
            if src is None:
                continue
            before = os.path.join(tmp, "old", run["name"])
            lines[-1] += f" (exit {_replay(run, src, before)} -> {record['exit']})"
            for name in sorted(record["sha256"]):
                if name.endswith(".csv") and os.path.exists(os.path.join(before, name)):
                    changes = column_changes(Path(before, name).read_text(encoding="utf-8"),
                                             Path(out, name).read_text(encoding="utf-8"))
                    lines.append(f"  {name}: " + ", ".join(f"{k} {v:.2g}" for k, v in changes.items()))
    doc = {**versions(), "runs": runs}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate tests/golden.json.")
    parser.add_argument("--against", default="HEAD", metavar="REV",
                        help="git revision whose src/ the moved runs are replayed on (default HEAD)")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    for line in regenerate(args.against):
        print(line)

"""Every run of ``golden.RUNS`` reproduces the exit code and output digests in golden.json."""

import json
import math

import pytest

import golden

_DOC = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_run():
    assert [r["name"] for r in _DOC["runs"]] == [r["name"] for r in golden.RUNS]
    for stored, run in zip(_DOC["runs"], golden.RUNS):
        assert (stored["argv"], stored["env"]) == (run["argv"], run["env"])


@pytest.mark.parametrize("stored", _DOC["runs"], ids=lambda r: r["name"])
def test_run_matches_golden(stored):
    recorded = {k: _DOC[k] for k in ("numpy", "scipy")}
    if golden.versions() != recorded:
        pytest.skip(f"digests were recorded with {recorded}, this is {golden.versions()}")
    got = golden.execute(stored)
    assert (got["exit"], got["sha256"]) == (stored["exit"], stored["sha256"])


def test_column_changes():
    old = "n,x,id\n0,1.0,a\n1,2.5,b\n"
    assert golden.column_changes(old, old) == {"n": 0.0, "x": 0.0, "id": 0.0}
    got = golden.column_changes(old, "n,x,id\n0,1.25,a\n1,2.0,c\n")
    assert got == {"n": 0.0, "x": 0.5, "id": math.inf}
    assert golden.column_changes(old, "n,x,id\n0,nan,a\n1,2.5,b\n")["x"] == math.inf
    assert golden.column_changes(old, "n,x,id\n0,1.0,a\n") == {"<shape>": math.inf}
    assert golden.column_changes(old, "n,y,id\n0,1.0,a\n1,2.5,b\n") == {"<shape>": math.inf}

"""Every run of ``golden.RUNS`` reproduces the exit code and output digests in golden.json."""

import json

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

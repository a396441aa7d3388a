"""The human report of every command and gkz variant on specs/*.json is
pinned by the sha256 of its stdout, kept in tests/human_reports.json;
perfbench/records.json pins only the --json reports.  ``lg`` runs at its
spec seed.

    PYTHONPATH=src python tests/test_human_reports.py

rewrites the digest file from the current code.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tglab import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "human_reports.json"
VARIANTS = ("plain", "homog", "hat", "star", "qdm")


def human_calls():
    calls = []
    for spec in sorted((ROOT / "specs").glob("*.json")):
        arg = f"--spec specs/{spec.name}"
        calls += [f"{cmd} {arg}" for cmd in ("validate", "construct", "semigroup", "lg", "ifun")]
        calls += [f"gkz {arg} --gkz-variant {v}" for v in VARIANTS]
    return calls


def human_digest(call):
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(call.split())
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


PINNED = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def test_every_call_is_pinned():
    assert sorted(PINNED) == sorted(human_calls())


@pytest.mark.parametrize("call", sorted(PINNED))
def test_human_report_matches_digest(call, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert human_digest(call) == PINNED[call]


if __name__ == "__main__":
    os.chdir(ROOT)
    digests = {call: human_digest(call) for call in human_calls()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")

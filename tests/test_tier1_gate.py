"""The CI gate `.github/tier1_gate.py` on synthetic junit files: it passes
only when test_c05a is the one failure and nothing errored or skipped."""

import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parent.parent / ".github" / "tier1_gate.py"
C05A = ("tests.test_acceptance", "test_c05a_f3_non_normality_witness_as_specified")
OTHER = ("tests.test_cli", "test_missing_file_exit_code")


def case(classname, name, outcome=None, **attrs):
    """One junit testcase, with a failure, error or skipped element, carrying
    ``attrs``, when given."""
    extra = "".join(f' {key}="{value}"' for key, value in attrs.items())
    inner = f'<{outcome} message="boom"{extra}>trace</{outcome}>' if outcome else ""
    return f'<testcase classname="{classname}" name="{name}" time="0.01">{inner}</testcase>'


def junit(*cases):
    return ('<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
            + "".join(cases) + "</testsuite></testsuites>")


@pytest.mark.parametrize("cases, code", [
    ([case(*C05A, "failure"), case(*OTHER)], 0),
    ([case(*C05A), case(*OTHER)], 1),
    ([case(*C05A, "failure"), case(*OTHER, "failure")], 1),
    ([case(*C05A, "failure"), case(*OTHER), case("", "tests.test_broken", "error")], 1),
    ([case(*C05A, "failure"), case(*OTHER, "skipped", type="pytest.skip")], 1),
    ([case(*C05A, "failure"), case(*OTHER, "skipped", type="pytest.xfail")], 1),
    ([], 1),
], ids=["only-c05a-fails", "c05a-passes", "another-fails", "collection-error", "a-skip",
        "an-xfail", "no-cases"])
def test_gate_exit_code(tmp_path, cases, code):
    path = tmp_path / "tier1.xml"
    path.write_text(junit(*cases), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(GATE), str(path)], capture_output=True, text=True)
    assert proc.returncode == code, proc.stdout + proc.stderr

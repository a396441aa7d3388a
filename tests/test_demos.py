"""Every demo runs to the end, with nothing on stderr, and prints what it
printed before: its stdout is pinned by sha256 in tests/demo_outputs.json.
Each demo runs under two hash seeds, so that output which depends on
set or dict order of hashed keys fails too.

    PYTHONPATH=src python tests/test_demos.py

rewrites the digest file from the current code.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DIGESTS = Path(__file__).resolve().parent / "demo_outputs.json"
HASH_SEEDS = ("0", "1")


def run_demo(demo, hash_seed):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)


def stdout_digest(proc):
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


PINNED = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def test_every_demo_is_pinned():
    assert sorted(PINNED) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    for hash_seed in HASH_SEEDS:
        proc = run_demo(demo, hash_seed)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert stdout_digest(proc) == PINNED[demo.name], f"PYTHONHASHSEED={hash_seed}"


if __name__ == "__main__":
    digests = {demo.name: stdout_digest(run_demo(demo, HASH_SEEDS[0])) for demo in DEMOS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")

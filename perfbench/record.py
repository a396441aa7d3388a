#!/usr/bin/env python3
"""Write records.json: the digest of every call's --json report.

    python3 perfbench/record.py

Runs each call template of every workload once at the default seed as
``python -m tglab.cli`` and records the sha256 of its stdout, plus, for
``lg``, the digest of the fields that do not depend on the seed.  Refuses
to write when a call's exit code or ``passed`` verdict disagrees with the
hand-written table in workloads.py, or when it prints a traceback.
"""

import json
import subprocess
import sys

import workloads as wl
from run import ENV, PY, ROOT


def main() -> int:
    records = {"reports": {}, "lg_invariant": {}}
    for template in wl.all_templates():
        done = subprocess.run([PY, "-m", "tglab.cli"] + wl.argv(template, wl.DEFAULT_SEED),
                              cwd=ROOT, env=ENV, capture_output=True, timeout=120)
        report = json.loads(done.stdout)
        got = (done.returncode, report.get("results", report).get("passed"))
        if got != wl.expected_verdict(template) or b"Traceback" in done.stderr:
            print(f"{template}: exit/passed {got}, expected {wl.expected_verdict(template)}",
                  file=sys.stderr)
            return 1
        records["reports"][template] = wl.digest(done.stdout)
        if "{seed}" in template:
            records["lg_invariant"][template] = wl.invariant_digest(report)
        print(f"{got[0]} {template}", flush=True)
    with open(wl.RECORDS_FILE, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pass only when the tier-1 run failed exactly as expected.

    python .github/tier1_gate.py tier1.xml

Reads a pytest junit file.  Exits 0 when the failed tests are exactly
tests/test_acceptance.py::test_c05a_f3_non_normality_witness_as_specified
and nothing errored (collection errors included); exits 1 otherwise, also
when c05a starts to pass (README, "Expected suite state").
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {"tests.test_acceptance::test_c05a_f3_non_normality_witness_as_specified"}


def main(path):
    root = ET.parse(path).getroot()
    failed, errored, ran = set(), set(), 0
    for case in root.iter("testcase"):
        ran += 1
        name = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None:
            failed.add(name)
        if case.find("error") is not None:
            errored.add(name)
    print(f"{ran} tests, {len(failed)} failed, {len(errored)} errored")
    for name in sorted(errored):
        print(f"error: {name}")
    for name in sorted(failed - EXPECTED):
        print(f"unexpected failure: {name}")
    for name in sorted(EXPECTED - failed):
        print(f"expected failure did not happen: {name}")
    return 0 if ran and not errored and failed == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

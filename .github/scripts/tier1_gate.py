"""Tier-1 gate: read a pytest JUnit XML report and pass only when the one
failing test is acceptance criterion 6.

Criterion 6 ("FS-LWB never costs any node more radio time") is kept as
written and cannot hold under slot-granular radio accounting; the README
explains why. Any other failure or error, a collection error included, or
criterion 6 passing, fails the gate.

Usage: python .github/scripts/tier1_gate.py REPORT.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED = "tests.test_acceptance::test_criterion_6_per_node_radio_cost_dominance"


def gate(path: str) -> list[str]:
    """Return the problems with the report at path; empty means pass."""
    failed, skipped, total = [], [], 0
    for case in ET.parse(path).getroot().iter("testcase"):
        total += 1
        name = f"{case.get('classname', '')}::{case.get('name', '')}"
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(name)
        elif case.find("skipped") is not None:
            skipped.append(name)
    print(f"{total} test cases, {len(failed)} failed, {len(skipped)} skipped")
    for name in skipped:
        print(f"skipped: {name}")
    problems = [f"unexpected failure: {name}" for name in failed if name != EXPECTED]
    if EXPECTED not in failed:
        problems.append(f"expected failure did not happen: {EXPECTED}")
    if total == 0:
        problems.append("the report holds no test cases")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python .github/scripts/tier1_gate.py REPORT.xml", file=sys.stderr)
        return 2
    problems = gate(argv[1])
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

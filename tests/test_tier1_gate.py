"""The CI gate script: only acceptance criterion 6 may fail."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "tier1_gate.py"

CRITERION_6 = (
    '<testcase classname="tests.test_acceptance" '
    'name="test_criterion_6_per_node_radio_cost_dominance">'
    '<failure message="AssertionError">criterion 6</failure></testcase>'
)
PASSING = '<testcase classname="tests.test_engine.TestBootstrapAndSync" name="test_joins" />'


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("tier1_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.gate


def _report(tmp_path, *cases):
    path = tmp_path / "tier1.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites>'
        f'<testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>',
        encoding="utf-8",
    )
    return str(path)


def test_only_criterion_6_failing_passes(gate, tmp_path):
    assert gate(_report(tmp_path, PASSING, CRITERION_6)) == []


def test_second_failure_is_a_problem(gate, tmp_path):
    other = (
        '<testcase classname="tests.test_sim.TestDesyncCycle" name="test_guard">'
        '<failure message="assert 1 == 2" /></testcase>'
    )
    assert gate(_report(tmp_path, PASSING, CRITERION_6, other)) == [
        "unexpected failure: tests.test_sim.TestDesyncCycle::test_guard"
    ]


def test_error_element_is_a_problem(gate, tmp_path):
    # pytest reports a module that fails to import as an error, not a failure
    broken = (
        '<testcase classname="" name="tests.test_glossy">'
        '<error message="collection failure">ImportError</error></testcase>'
    )
    assert gate(_report(tmp_path, PASSING, CRITERION_6, broken)) == [
        "unexpected failure: ::tests.test_glossy"
    ]


def test_criterion_6_passing_is_a_problem(gate, tmp_path):
    passing_6 = (
        '<testcase classname="tests.test_acceptance" '
        'name="test_criterion_6_per_node_radio_cost_dominance" />'
    )
    problems = gate(_report(tmp_path, PASSING, passing_6))
    assert problems == [
        "expected failure did not happen: "
        "tests.test_acceptance::test_criterion_6_per_node_radio_cost_dominance"
    ]


def test_empty_report_is_a_problem(gate, tmp_path):
    problems = gate(_report(tmp_path))
    assert "the report holds no test cases" in problems

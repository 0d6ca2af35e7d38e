"""The CI traced-pass check, fed canned benchmark output."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "traced_pass.py"

NONZERO = ["glossy.flood.calls", "engine.execute_round.calls", "metrics.accumulate.calls"]


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("traced_pass", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(absent=("glossy.flood counts",), **values):
    """A traced pass's output: the table head, its absent lines, one metric
    row and the JSON result line."""
    metrics = {
        "glossy.flood.calls": 9076, "engine.execute_round.calls": 136,
        "metrics.accumulate.calls": 136, "sim.rss_render_delta_mb": 4.7, **values,
    }
    lines = ["workload lwb-clean  seed 1  runs_failed 0 / runs_attempted 12"]
    lines += [f"  absent: {name}" for name in absent]
    lines.append("  glossy.flood.calls                     count              9076     0.00    3")
    result = {"correct": True, "attempted": 12, "failed": 0, "metrics": {
        name: {"value": value, "unit": "count"} for name, value in metrics.items()
    }}
    return "\n".join([*lines, json.dumps(result)]) + "\n"


def test_clean_output_passes(script):
    assert script.check(_output(), NONZERO, 5.8) == []
    assert script.check(_output(absent=()), NONZERO) == []
    assert script.check(_output(), NONZERO, 4.7) == []  # a delta at the bound passes


def test_new_absent_line_fails(script):
    problems = script.check(_output(absent=("glossy.flood counts", "core.contend")), NONZERO)
    assert problems == ["a traced-pass hook target is missing: absent: core.contend"]
    # the exception is the whole line, not a prefix
    problems = script.check(_output(absent=("glossy.flood counts x",)), NONZERO)
    assert problems == ["a traced-pass hook target is missing: absent: glossy.flood counts x"]


def test_zero_or_missing_metric_fails(script):
    problems = script.check(_output(**{"metrics.accumulate.calls": 0}), NONZERO)
    assert problems == ["a hooked layer reads 0 in the traced pass: metrics.accumulate.calls"]
    problems = script.check(_output(), [*NONZERO, "forwarding.apply_announce.calls"])
    assert problems == [
        "a hooked layer reads 0 in the traced pass: forwarding.apply_announce.calls"
    ]


def test_render_delta_over_the_bound_fails(script):
    problems = script.check(_output(**{"sim.rss_render_delta_mb": 5.81}), NONZERO, 5.8)
    assert problems == ["rendering raised peak RSS by 5.81 MB, over 5.8 MB"]
    text = _output(**{"sim.rss_render_delta_mb": None})
    assert script.check(text, NONZERO, 5.8) == [
        "rendering raised peak RSS by None MB, over 5.8 MB"
    ]
    # without a bound the delta is not checked
    assert script.check(_output(**{"sim.rss_render_delta_mb": 50}), NONZERO) == []


def test_output_without_a_result_line_fails(script):
    text = _output().rsplit("{", 1)[0]
    assert script.check(text, NONZERO) == [
        "the traced pass printed no JSON result as its last line"
    ]


def test_main_parses_the_ci_arguments(script, monkeypatch, capsys):
    runs = []

    def canned(workload, code=0, text=_output()):
        runs.append(workload)
        return code, text

    monkeypatch.setattr(script, "run_pass", canned)
    argv = ["lwb-clean", "--nonzero", *NONZERO, "--max-render-delta-mb", "5.8"]
    assert script.main(argv) == 0
    assert runs == ["lwb-clean"]
    assert script.main(["lwb-clean", "--nonzero", *NONZERO, "--max-render-delta-mb", "4"]) == 1
    assert "over 4.0 MB" in capsys.readouterr().err
    monkeypatch.setattr(script, "run_pass", lambda workload: (1, _output()))
    assert script.main(["lwb-clean", "--nonzero", *NONZERO]) == 1
    assert "bench/run.py exited with 1" in capsys.readouterr().err

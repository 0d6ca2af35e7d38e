"""Command line behavior: exit codes, file outputs, overrides."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lwbsim
from lwbsim.cli import main

from _support import shortest_path_forwarders
from lwbsim.topology import Topology

LINE4 = "1 2\n2 3\n3 4\n"
DIAMOND_PENDANT = "1 2\n1 3\n2 4\n3 4\n2 5\n"


def cli_env() -> dict[str, str]:
    """Environment for a CLI subprocess: it imports the lwbsim these tests
    import, installed or not."""
    src = str(Path(lwbsim.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.topo"
    path.write_text(LINE4, encoding="utf-8")
    return str(path)


class TestRunCommand:
    def test_run_writes_trace_and_summary(self, tmp_path, line_file, capsys):
        trace = tmp_path / "out.jsonl"
        summary = tmp_path / "out.json"
        code = main(
            [
                "run",
                "--topology",
                line_file,
                "--duration",
                "30s",
                "--trace",
                str(trace),
                "--summary",
                str(summary),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run: mode=lwb seed=1" in out
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines and all(json.loads(l) for l in lines)
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["mode"] == "lwb"
        assert set(doc["nodes"]) == {"1", "2", "3", "4"}

    def test_trace_file_is_byte_stable(self, tmp_path, line_file):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            args = [
                "run",
                "--topology",
                line_file,
                "--duration",
                "30s",
                "--trace",
                str(out),
            ]
            assert main(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_overrides_reach_the_run(self, line_file, capsys):
        code = main(
            [
                "run",
                "--topology",
                line_file,
                "--duration",
                "25s",
                "--seed",
                "42",
                "--forwarder-selection",
                "1",
            ]
        )
        assert code == 0
        assert "mode=fs-lwb seed=42" in capsys.readouterr().out

    def test_config_file_is_honored(self, tmp_path, line_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("SEED = 7\nDURATION = 25s\n", encoding="utf-8")
        code = main(["run", "--topology", line_file, "--config", str(cfg)])
        assert code == 0
        assert "seed=7" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_topology_file(self, tmp_path, capsys):
        code = main(["run", "--topology", str(tmp_path / "nope.topo")])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, line_file, capsys):
        code = main(["run", "--topology", line_file, "--warp-speed"])
        assert code == 1

    def test_missing_required_flag(self, capsys):
        assert main(["run"]) == 1

    def test_bad_duration_literal(self, line_file, capsys):
        code = main(["run", "--topology", line_file, "--duration", "soon"])
        assert code == 1
        assert "bad --duration" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    def test_non_finite_duration_flag_is_input_error(self, line_file, capsys, value):
        code = main(["run", "--topology", line_file, "--duration", value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bad --duration" in err and "not finite" in err

    @pytest.mark.parametrize(
        "line", ["DURATION = inf", "IPI = 1e400", "DRIFT_PPM_RANGE = nan", "DRIFT_PPM_RANGE = nan:nan"]
    )
    def test_non_finite_config_value_is_input_error(self, tmp_path, line_file, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code = main(["run", "--topology", line_file, "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input:")

    def test_invalid_config_content(self, tmp_path, line_file, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("IPI = 1s\n", encoding="utf-8")
        code = main(["run", "--topology", line_file, "--config", str(cfg)])
        assert code == 2
        assert "invalid input" in capsys.readouterr().err

    def test_max_node_number_above_16_bit_is_input_error(self, tmp_path, capsys):
        topo = tmp_path / "two.topo"
        topo.write_text("1 2\n", encoding="utf-8")
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("MAX_NODE_NUMBER = 70000\n", encoding="utf-8")
        code = main(["run", "--topology", str(topo), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input:")
        assert "MAX_NODE_NUMBER" in err and "Traceback" not in err

    def test_invalid_topology_content(self, tmp_path, capsys):
        topo = tmp_path / "bad.topo"
        topo.write_text("1 1\n", encoding="utf-8")
        code = main(["run", "--topology", str(topo)])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--topology", "--config"])
    def test_non_utf8_input_file_is_input_error(self, tmp_path, line_file, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2\xff\n")
        topology = [] if flag == "--topology" else ["--topology", line_file]
        code = main(["run", *topology, flag, str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("invalid input:") and "not UTF-8" in err and str(bad) in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_input_error(self, tmp_path, line_file, capsys, source):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("SEED = -5\n", encoding="utf-8")
        extra = ["--seed", "-5"] if source == "flag" else ["--config", str(cfg)]
        code = main(["run", "--topology", line_file, "--duration", "5s", *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "SEED must not be negative" in err

    def test_repeated_config_key_is_input_error(self, tmp_path, line_file, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("SEED = 1\nSEED = 2\n", encoding="utf-8")
        code = main(["run", "--topology", line_file, "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 2: SEED already set on line 1" in err

    @pytest.mark.parametrize("flag", ["--trace", "--summary"])
    def test_failed_set_up_keeps_existing_output(self, tmp_path, capsys, flag):
        # node 1, the sink, is missing: the run fails before it opens outputs
        topo = tmp_path / "nosink.topo"
        topo.write_text("2 3\n", encoding="utf-8")
        old = tmp_path / "old.out"
        old.write_bytes(b"{\"kind\": \"earlier run\"}\n")
        code = main(["run", "--topology", str(topo), flag, str(old)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sink node 1 missing" in err
        assert old.read_bytes() == b"{\"kind\": \"earlier run\"}\n"

    def test_override_breaking_config_is_input_error(self, line_file, capsys):
        code = main(["run", "--topology", line_file, "--duration", "0s"])
        assert code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("run", "--trace"),
            ("run", "--summary"),
            ("compare", "--out"),
            ("forwarders", "--out"),
        ],
    )
    def test_unwritable_output_path_is_usage_error(
        self, tmp_path, line_file, capsys, monkeypatch, command, flag
    ):
        # the path must be refused before any simulation starts
        def no_run(*args, **kwargs):
            pytest.fail("run_simulation called before the output path was opened")

        monkeypatch.setattr("lwbsim.cli.run_simulation", no_run)
        out = str(tmp_path / "no" / "such" / "dir" / "out")
        duration = [] if command == "forwarders" else ["--duration", "12s"]
        code = main([command, "--topology", line_file, *duration, flag, out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("usage error:") and out in err


class TestCompareCommand:
    def test_pendant_node_saves_energy_with_forwarder_selection(
        self, tmp_path, capsys
    ):
        topo = tmp_path / "dp.topo"
        topo.write_text(DIAMOND_PENDANT, encoding="utf-8")
        out = tmp_path / "cmp.json"
        code = main(
            [
                "compare",
                "--topology",
                str(topo),
                "--duration",
                "120s",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "compare: lwb (a) vs fs-lwb (b)" in text
        doc = json.loads(out.read_text(encoding="utf-8"))
        # node 5 hangs off the shortest paths of every other source, so it
        # sleeps through their data slots only in the second run
        assert doc["nodes"]["5"]["duty_delta"] < 0
        assert doc["nodes"]["5"]["pdr_a"] == 1.0
        assert doc["nodes"]["5"]["pdr_b"] == 1.0


class TestForwardersCommand:
    def test_dumps_oracle_forwarder_sets(self, tmp_path, line_file, capsys):
        out = tmp_path / "fwd.json"
        code = main(
            ["forwarders", "--topology", line_file, "--out", str(out)]
        )
        assert code == 0
        table = json.loads(out.read_text(encoding="utf-8"))
        assert len(table) == 3
        topo = Topology.from_edges([(1, 2), (2, 3), (3, 4)])
        for row in table:
            expected = sorted(shortest_path_forwarders(topo, 1, row["owner"]))
            assert row["forwarders"] == expected
        stdout = capsys.readouterr().out
        assert stdout.count("slot ") == 3

    def test_zero_length_phases_name_the_phase_keys(self, tmp_path, line_file, capsys):
        # forwarders runs for cool-off plus stabilization; with both at zero
        # there is nothing to run, and DURATION was never the user's choice
        cfg = tmp_path / "nophases.cfg"
        cfg.write_text("COOLOFF_PERIOD = 0\nSTABILIZATION_PERIOD = 0\n", encoding="utf-8")
        code = main(["forwarders", "--topology", line_file, "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "COOLOFF_PERIOD" in err and "STABILIZATION_PERIOD" in err
        assert "DURATION" not in err

    @pytest.mark.parametrize("value", ["0s", "3s"])
    def test_duration_flag_is_not_offered(self, line_file, capsys, value):
        # the run length is cool-off plus stabilization, so --duration would
        # either be ignored or fail validation for a run that never uses it
        code = main(["forwarders", "--topology", line_file, "--duration", value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("usage error:") and "--duration" in err


class TestEntryPoints:
    def test_module_invocation(self, line_file):
        proc = subprocess.run(
            [sys.executable, "-m", "lwbsim.cli", "run", "--topology", line_file,
             "--duration", "12s"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert "run: mode=lwb" in proc.stdout

    @pytest.mark.skipif(shutil.which("lwbsim") is None, reason="script not on PATH")
    def test_console_script(self, line_file):
        proc = subprocess.run(
            ["lwbsim", "run", "--topology", line_file, "--duration", "12s"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0

"""Command line behavior: exit codes, file outputs, overrides."""

import importlib.util
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import lwbsim
from lwbsim import cli, sim
from lwbsim.cli import main
from lwbsim.config import SimConfig
from lwbsim.errors import SimulationError
from lwbsim.sim import rounds

from _support import shortest_path_forwarders
from lwbsim.topology import Topology

PEAK_RSS_SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "peak_rss.py"
US_SECOND = 1_000_000
LINE4 = "1 2\n2 3\n3 4\n"
DIAMOND_PENDANT = "1 2\n1 3\n2 4\n3 4\n2 5\n"
# the schema header with the run's config, then the first round's sync
# slot: a freshly written trace
TRACE_START = re.compile(r'\{"kind":"schema","version":5,"config":\{.*\}\}\n\{"kind":"sync",')


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

    @pytest.mark.parametrize("value", ["-1e308:1e308", "2e6"])
    def test_drift_beyond_a_million_ppm_is_input_error(self, tmp_path, line_file, capsys, value):
        # -1e308:1e308 is finite, but a uniform draw across it is not
        cfg = tmp_path / "drift.cfg"
        cfg.write_text(f"DRIFT_PPM_RANGE = {value}\n", encoding="utf-8")
        code = main(["run", "--topology", line_file, "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input:")
        assert "DRIFT_PPM_RANGE" in err

    def test_drift_of_a_million_ppm_runs(self, tmp_path, line_file, capsys):
        cfg = tmp_path / "drift.cfg"
        cfg.write_text("DRIFT_PPM_RANGE = -1e6:1e6\n", encoding="utf-8")
        code = main(["run", "--topology", line_file, "--config", str(cfg)])
        assert code == 0
        assert "run: mode=lwb" in capsys.readouterr().out

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
        # a topology without the sink is invalid input, as documented
        assert code == 2
        err = capsys.readouterr().err
        assert err == "invalid input: sink node 1 missing from topology\n"
        assert old.read_bytes() == b"{\"kind\": \"earlier run\"}\n"

    def test_too_small_payload_limit_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        # packet "3:199" of the last round needs 5 bytes; nothing is simulated
        def no_round(*args, **kwargs):
            pytest.fail("a round ran although MAX_PAYLOAD_LEN was too small")

        monkeypatch.setattr("lwbsim.sim.execute_round", no_round)
        topo = tmp_path / "line.topo"
        topo.write_text("1 2\n2 3\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("MAX_PAYLOAD_LEN = 4\nIPI = 5s\n", encoding="utf-8")
        old = b"{\"kind\": \"earlier run\"}\n"
        trace, summary = tmp_path / "old.jsonl", tmp_path / "old.json"
        trace.write_bytes(old)
        summary.write_bytes(old)
        code = main(
            [
                "run", "--topology", str(topo), "--config", str(cfg),
                "--duration", "1000s", "--trace", str(trace), "--summary", str(summary),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input: MAX_PAYLOAD_LEN 4")
        assert "'3:199'" in err
        assert trace.read_bytes() == old and summary.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "line.topo", "old.json", "old.jsonl", "run.cfg",
        ]

    def test_failed_run_keeps_existing_output(self, tmp_path, line_file, capsys, monkeypatch):
        # the run fails inside the round loop, after rounds reached the
        # trace's temporary file
        written = []

        def failing_rounds(world, metrics):
            for trace in rounds(world, metrics):
                # both outputs are open, each as a temporary file
                temporary = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
                assert len(temporary) == 2
                (partial,) = [p for p in temporary if p.name.startswith(".old.jsonl.")]
                if partial.stat().st_size:
                    written.append((trace.index, partial.read_bytes()))
                    raise SimulationError(f"round {trace.index} overflows its period")
                yield trace

        monkeypatch.setattr("lwbsim.cli.rounds", failing_rounds)
        old = b"{\"kind\": \"earlier run\"}\n"
        trace, summary = tmp_path / "old.jsonl", tmp_path / "old.json"
        trace.write_bytes(old)
        summary.write_bytes(old)
        code = main([
            "run", "--topology", line_file, "--duration", "600s",
            "--trace", str(trace), "--summary", str(summary),
        ])
        assert code == 3
        [(index, partial)] = written  # a whole round record, the first at least
        assert TRACE_START.match(partial.decode()) and b'{"kind":"round","round":0,' in partial
        err = capsys.readouterr().err
        assert err == f"runtime error: round {index} overflows its period\n"
        assert trace.read_bytes() == old and summary.read_bytes() == old
        # no temporary file is left beside them
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "line.topo", "old.json", "old.jsonl",
        ]

    def test_successful_run_replaces_existing_output(self, tmp_path, line_file):
        trace = tmp_path / "old.jsonl"
        trace.write_bytes(b"{\"kind\": \"earlier run\"}\n")
        args = ["run", "--topology", line_file, "--duration", "12s", "--trace", str(trace)]
        assert main(args) == 0
        assert TRACE_START.match(trace.read_text(encoding="utf-8"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["line.topo", "old.jsonl"]

    def test_output_path_that_is_a_directory_is_usage_error(
        self, tmp_path, line_file, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            pytest.fail("a round ran before the output path was checked")

        monkeypatch.setattr("lwbsim.cli.rounds", no_run)
        code = main(["run", "--topology", line_file, "--trace", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"usage error: cannot write {tmp_path}\n"

    def test_symlinked_output_keeps_the_link(self, tmp_path, line_file):
        target = tmp_path / "run-42.jsonl"
        target.write_bytes(b"{\"kind\": \"earlier run\"}\n")
        link = tmp_path / "latest.jsonl"
        link.symlink_to(target.name)
        args = ["run", "--topology", line_file, "--duration", "12s", "--trace", str(link)]
        assert main(args) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert TRACE_START.match(target.read_text(encoding="utf-8"))

    def test_output_that_is_no_regular_file_is_written_in_place(self, tmp_path, line_file):
        link = tmp_path / "null.jsonl"
        link.symlink_to(os.devnull)
        args = ["run", "--topology", line_file, "--duration", "12s", "--trace", str(link)]
        assert main(args) == 0
        assert link.is_symlink() and os.readlink(link) == os.devnull
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["line.topo", "null.jsonl"]

    def test_stale_temporary_file_does_not_block_the_run(self, tmp_path, line_file):
        # a run killed outright leaves its temporary file behind
        stale = tmp_path / f".old.jsonl.{os.getpid()}.tmp"
        stale.write_bytes(b"partial")
        trace = tmp_path / "old.jsonl"
        args = ["run", "--topology", line_file, "--duration", "12s", "--trace", str(trace)]
        assert main(args) == 0
        assert TRACE_START.match(trace.read_text(encoding="utf-8"))
        assert stale.read_bytes() == b"partial"

    def test_replaced_output_keeps_its_mode(self, tmp_path, line_file):
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        old.write_bytes(b"{\"kind\": \"earlier run\"}\n")
        old.chmod(0o640)
        for path in (old, new):
            args = ["run", "--topology", line_file, "--duration", "12s", "--trace", str(path)]
            assert main(args) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask

    def test_directory_that_takes_no_new_file_is_written_in_place(
        self, tmp_path, line_file, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("lwbsim.cli.tempfile.mkstemp", refuse)
        trace = tmp_path / "old.jsonl"
        trace.write_bytes(b"{\"kind\": \"earlier run\"}\n")
        args = ["run", "--topology", line_file, "--duration", "12s", "--trace", str(trace)]
        assert main(args) == 0
        assert TRACE_START.match(trace.read_text(encoding="utf-8"))

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
            pytest.fail("a round ran before the output path was opened")

        monkeypatch.setattr("lwbsim.cli.rounds", no_run)
        out = str(tmp_path / "no" / "such" / "dir" / "out")
        duration = [] if command == "forwarders" else ["--duration", "12s"]
        code = main([command, "--topology", line_file, *duration, flag, out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("usage error:") and out in err

    @pytest.mark.parametrize("problem", ["topology", "output"])
    def test_failure_after_the_ipi_warning_prints_one_line(self, tmp_path, problem):
        # MINIMUM_LWB_ROUND 6s leaves the default 10 s IPI a non-multiple, so
        # the warning is due; a command that then fails prints its error alone
        cfg = tmp_path / "ipi.cfg"
        cfg.write_text("MINIMUM_LWB_ROUND = 6s\n", encoding="utf-8")
        topo = tmp_path / "t.topo"
        topo.write_text("1 2\n2 300\n" if problem == "topology" else "1 2\n", encoding="utf-8")
        args = ["run", "--topology", str(topo), "--config", str(cfg)]
        if problem == "output":
            args += ["--trace", str(tmp_path)]  # a directory
        proc = subprocess.run(
            [sys.executable, "-m", "lwbsim.cli", *args],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert (proc.returncode, proc.stderr) == {
            "topology": (2, "invalid input: line 2: node id 300 outside [1, 150]\n"),
            "output": (1, f"usage error: cannot write {tmp_path}\n"),
        }[problem]


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

    def test_each_input_is_checked_once(self, tmp_path, line_file, monkeypatch):
        validated, checked = [], []
        validate, check = SimConfig.validate, sim.check_topology
        monkeypatch.setattr(SimConfig, "validate", lambda c: validated.append(c) or validate(c))
        for module in (cli, sim):  # sim.build_world checks the topology too
            monkeypatch.setattr(module, "check_topology", lambda *a: checked.append(a) or check(*a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("SEED = 3\n", encoding="utf-8")
        args = ["compare", "--topology", line_file, "--config", str(cfg), "--duration", "12s"]
        assert main(args) == 0
        # the file's config, the same after --duration, and its fs-lwb twin
        assert [(c.duration, c.forwarder_selection) for c in validated] == [
            (60 * US_SECOND, False), (12 * US_SECOND, False), (12 * US_SECOND, True),
        ]
        assert len(checked) == 1

    def test_config_only_plain_lwb_fits_fails_before_any_run(
        self, tmp_path, line_file, capsys, monkeypatch
    ):
        # sync slot plus a request/reply pair fits a one-second round; one
        # more announce slot does not
        def no_run(*args, **kwargs):
            pytest.fail("a round ran although fs-lwb's config is invalid")

        monkeypatch.setattr("lwbsim.cli.rounds", no_run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("SLOT_LENGTH = 300ms\nIPI = 7s\n", encoding="utf-8")
        out = tmp_path / "cmp.json"
        args = ["compare", "--topology", line_file, "--config", str(cfg), "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "invalid input: SLOT_LENGTH too large: one sync slot plus one request group "
            "must fit into a one second round\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["line.topo", "run.cfg"]


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

    def test_runs_every_stabilization_round(self, tmp_path, capsys):
        # 1.5 s phases round up to two one second rounds each, so the
        # stabilization rounds start at 2 s and 3 s. The first one's block of
        # 21 request groups grants 21 of the 30 leaves, the second the rest.
        topo = tmp_path / "star.topo"
        topo.write_text("".join(f"1 {n}\n" for n in range(2, 32)), encoding="utf-8")
        cfg = tmp_path / "phases.cfg"
        cfg.write_text(
            "COOLOFF_PERIOD = 1500ms\nSTABILIZATION_PERIOD = 1500ms\n", encoding="utf-8"
        )
        out = tmp_path / "fwd.json"
        code = main(
            ["forwarders", "--topology", str(topo), "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        table = json.loads(out.read_text(encoding="utf-8"))
        assert sorted(row["owner"] for row in table) == list(range(2, 32))
        assert capsys.readouterr().out.count("slot ") == 30

    def test_zero_length_phases_name_the_phase_keys(self, tmp_path, line_file, capsys):
        # forwarders runs up to the operational start; with both phases at
        # zero there is nothing to run, and DURATION was never the user's choice
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
        # the phase periods fix the run length, so --duration would either
        # be ignored or fail validation for a run that never uses it
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

    def test_import_loads_no_dataclasses_inspect_or_logging(self):
        # -S: no site hook may load a module on the package's behalf
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, lwbsim, lwbsim.sim; "
             "print(sorted({'dataclasses', 'inspect', 'logging'} & sys.modules.keys()))"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_ipi_warning_is_printed_once(self, tmp_path, line_file, command):
        # the config is validated after parsing and again after --duration
        cfg = tmp_path / "ipi.cfg"
        cfg.write_text("IPI = 7s\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "lwbsim.cli", command, "--topology", line_file,
             "--config", str(cfg), "--duration", "20s"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == (
            "IPI 7s is not a multiple of MINIMUM_LWB_ROUND 5s; "
            "effective IPI for data rounds is 5s\n"
        )

    @pytest.mark.skipif(shutil.which("lwbsim") is None, reason="script not on PATH")
    def test_console_script(self, line_file):
        proc = subprocess.run(
            ["lwbsim", "run", "--topology", line_file, "--duration", "12s"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0


class TestBoundedMemory:
    """A CLI run keeps no round, so its peak memory does not grow with the
    simulated duration."""

    @pytest.fixture(scope="class")
    def peak_rss(self):
        spec = importlib.util.spec_from_file_location("peak_rss", PEAK_RSS_SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("command", [["run", "--trace", os.devnull], ["compare"]])
    def test_peak_rss_of_an_eight_times_longer_run(self, peak_rss, tmp_path, command):
        # lwb-clean's seed-1 network, 10 min against 80 min: with every round
        # kept to the end, run --trace read 15.3 and 21.1 MiB, compare 16.5
        # and 30.7 MiB
        inputs = peak_rss.write_inputs("lwb-clean", tmp_path)
        short, long = (
            peak_rss.peak_rss_kib([*command, *inputs, "--duration", duration], cli_env())
            for duration in ("600s", "4800s")
        )
        assert long <= 1.1 * short, (short, long)

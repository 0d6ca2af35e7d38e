"""Command line front end.

Exit codes: 0 success, 1 usage problems (bad flags, missing input files,
unwritable output paths), 2 invalid input content (topology or config),
3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import ExitStack
from pathlib import Path

from .config import SimConfig, parse_config
from .errors import ConfigError, LwbError, TopologyError
from .metrics import compare, render_summary
from .sim import check_topology, forwarder_table, run_simulation, write_trace
from .topology import Topology, load_topology
from .units import parse_duration

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lwbsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, duration=True):
        p.add_argument("--topology", required=True, help="edge list file")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        if duration:
            p.add_argument("--duration", help="override the run length, e.g. 120s")

    p_run = sub.add_parser("run", help="simulate one run")
    common(p_run)
    p_run.add_argument("--trace", help="write the JSONL slot trace here")
    p_run.add_argument("--summary", help="write the JSON summary here")
    p_run.add_argument(
        "--forwarder-selection",
        choices=("0", "1"),
        help="override the config FORWARDER_SELECTION flag",
    )

    p_cmp = sub.add_parser(
        "compare", help="run with forwarder selection off and on, same seed"
    )
    common(p_cmp)
    p_cmp.add_argument("--out", help="write the JSON comparison here")

    p_fwd = sub.add_parser(
        "forwarders",
        help="run to the end of stabilization and dump forwarder sets",
    )
    common(p_fwd, duration=False)
    p_fwd.add_argument("--out", help="write the JSON table here")
    return parser


def _read_file(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"file not found: {path}")
    return p.read_text(encoding="utf-8")


def _create(stack: ExitStack, path: str | None):
    """Open an output file, or give None for no path. Called before the run,
    so an unwritable path fails at once instead of after the simulation."""
    return stack.enter_context(open(path, "w", encoding="utf-8")) if path else None


def _write_json(f, doc) -> None:
    f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_inputs(args) -> tuple[SimConfig, Topology]:
    config = parse_config(_read_file(args.config)) if args.config else SimConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "duration", None) is not None:
        try:
            overrides["duration"] = parse_duration(args.duration)
        except ValueError as exc:
            raise UsageError(f"bad --duration: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"bad --duration: {exc}") from exc
    if getattr(args, "forwarder_selection", None) is not None:
        overrides["forwarder_selection"] = args.forwarder_selection == "1"
    if overrides:
        config = dataclasses.replace(config, **overrides)
        config.validate()
    topology = load_topology(_read_file(args.topology), config.max_node_number)
    # before any output file is created, so a failed set-up keeps old files
    check_topology(config, topology)
    return config, topology


def _cmd_run(args, stack: ExitStack) -> int:
    config, topology = _load_inputs(args)
    trace_f, summary_f = _create(stack, args.trace), _create(stack, args.summary)
    result = run_simulation(config, topology)
    if trace_f:
        write_trace(trace_f, result.traces)
    summary = render_summary(result.metrics, config.mode, config.seed)
    sys.stdout.write(summary)
    if summary_f:
        doc = result.metrics.to_dict()
        doc["mode"] = config.mode
        doc["seed"] = config.seed
        _write_json(summary_f, doc)
    return EXIT_OK


def _cmd_compare(args, stack: ExitStack) -> int:
    config, topology = _load_inputs(args)
    out = _create(stack, args.out)
    run_plain = run_simulation(
        dataclasses.replace(config, forwarder_selection=False), topology
    )
    run_fs = run_simulation(
        dataclasses.replace(config, forwarder_selection=True), topology
    )
    report = compare(run_plain, run_fs)
    sys.stdout.write(report.render())
    if out:
        _write_json(out, report.to_dict())
    return EXIT_OK


def _cmd_forwarders(args, stack: ExitStack) -> int:
    config, topology = _load_inputs(args)
    # Forwarder sets only exist with forwarder selection on; run exactly
    # through cool-off and stabilization so the dump shows the converged
    # assignment state.
    if config.cooloff_period + config.stabilization_period <= 0:
        raise ConfigError("forwarders needs COOLOFF_PERIOD + STABILIZATION_PERIOD > 0")
    config = dataclasses.replace(
        config,
        forwarder_selection=True,
        duration=config.cooloff_period + config.stabilization_period,
    )
    config.validate()
    out = _create(stack, args.out)
    result = run_simulation(config, topology)
    table = forwarder_table(result)
    for row in table:
        sys.stdout.write(
            f"slot {row['slot']}: owner={row['owner']} "
            f"distance={row['distance']} forwarders={row['forwarders']}\n"
        )
    if not table:
        sys.stdout.write("no slots assigned\n")
    if out:
        _write_json(out, table)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "forwarders": _cmd_forwarders,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with ExitStack() as stack:
            return _COMMANDS[args.command](args, stack)
    except (UsageError, OSError) as exc:
        # OSError: an input or output path the file system refuses.
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, TopologyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LwbError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Exit codes: 0 success, 1 usage problems (bad flags, missing input files,
unwritable output paths), 2 invalid input content (topology or config),
3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

from .config import SimConfig, ipi_warning, parse_config
from .core import phase_starts
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


def _read_file(path: str, error: type[LwbError]) -> str:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def _output(path: str):
    """path opened for text writing.

    A name not taken yet, or a writable regular file with one link, is
    written to a fresh temporary file beside it (beside a symlink's
    target), which gets the old file's mode, or the umask's for a new one.
    It replaces the file when the block ends normally and is removed when
    the block raises, so a failed run keeps the old file. Anything else
    (a device, a pipe, /dev/fd/N), and a file whose directory takes no new
    file, is written in place, as open(path, "w") does.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and stat.S_ISDIR(st.st_mode):
        raise UsageError(f"cannot write {path}")
    tmp = None
    if st is None or (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and os.access(path, os.W_OK)
    ):
        target = os.path.realpath(path)
        folder, name = os.path.split(target)
        try:
            fd, tmp = tempfile.mkstemp(dir=folder, prefix=f".{name}.", suffix=".tmp")
        except OSError:
            pass
    if tmp is None:
        with open(path, "w", encoding="utf-8") as f:
            yield f
        return
    f = os.fdopen(fd, "w", encoding="utf-8")
    try:
        with f:
            os.fchmod(fd, stat.S_IMODE(st.st_mode) if st else 0o666 & ~_umask())
            yield f
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(f, doc) -> None:
    f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_inputs(
    args, stack: ExitStack, *paths: str | None
) -> tuple[SimConfig, Topology, list]:
    """The run's config and topology, and an open file per output path (None
    for no path). Outputs are opened after every input check and before the
    run, so an unwritable path fails at once and a failed set-up keeps old
    files. The IPI warning is printed last, so a failure prints one line."""
    config = SimConfig()
    if args.config:
        config = parse_config(_read_file(args.config, ConfigError))
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
    if args.command == "forwarders":
        # Forwarder sets only exist with forwarder selection on; run every
        # cool-off and stabilization round, up to the operational start, so
        # the dump shows the converged assignment state.
        setup = phase_starts(config)[1]
        if setup <= 0:
            raise ConfigError("forwarders needs COOLOFF_PERIOD + STABILIZATION_PERIOD > 0")
        overrides.update(forwarder_selection=True, duration=setup)
    if overrides:
        config = config.replace(**overrides)
        config.validate()
    topology = load_topology(_read_file(args.topology, TopologyError), config.max_node_number)
    check_topology(config, topology)
    files = [stack.enter_context(_output(path)) if path else None for path in paths]
    warning = ipi_warning(config)
    if warning:
        print(warning, file=sys.stderr)
    return config, topology, files


def _cmd_run(args, stack: ExitStack) -> int:
    config, topology, (trace_f, summary_f) = _load_inputs(args, stack, args.trace, args.summary)
    result = run_simulation(config, topology)
    if trace_f:
        write_trace(trace_f, result.traces)
    summary = render_summary(result.metrics, config.mode, config.seed)
    sys.stdout.write(summary)
    if summary_f:
        doc = {**result.metrics.to_dict(), "mode": config.mode, "seed": config.seed}
        _write_json(summary_f, doc)
    return EXIT_OK


def _cmd_compare(args, stack: ExitStack) -> int:
    config, topology, (out,) = _load_inputs(args, stack, args.out)
    report = compare(*[
        run_simulation(config.replace(forwarder_selection=fs), topology)
        for fs in (False, True)
    ])
    sys.stdout.write(report.render())
    if out:
        _write_json(out, report.to_dict())
    return EXIT_OK


def _cmd_forwarders(args, stack: ExitStack) -> int:
    config, topology, (out,) = _load_inputs(args, stack, args.out)
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

"""Bounded-memory check: fail when a streamed CLI run's peak RSS grows with
the simulated duration.

Writes a benchmark workload's seed-1 topology and config (bench/run.py) to
a temporary folder, runs `lwbsim run --trace` on them once per duration,
each in a fresh process, and prints each run's peak RSS. The trace goes to
os.devnull, through the same streaming writer a file gets. Exits 1 when the
last run's peak is over --max-ratio times the first run's.

Usage: python .github/scripts/peak_rss.py WORKLOAD DURATION DURATION...
           [--max-ratio RATIO]
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Runs the command in its arguments and prints the command's peak RSS in
# KiB. A process's ru_maxrss also counts the resident pages of the process
# that started it, so the command is started from this small one: started
# straight from a large process (a test runner), it would read that one's.
LAUNCHER = (
    "import resource, subprocess, sys; "
    "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


def write_inputs(workload: str, folder: Path) -> list[str]:
    """The workload's seed-1 topology and config, written into folder, as
    the CLI's --topology and --config arguments."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench_run  # dataclasses look their module up
    try:
        spec.loader.exec_module(bench_run)
    finally:
        del sys.modules[spec.name]
    (topology,), config = bench_run.make_inputs(bench_run.WORKLOADS[workload], 1)
    (folder / "net.topo").write_text(topology, encoding="utf-8")
    (folder / "run.cfg").write_text(config, encoding="utf-8")
    return ["--topology", str(folder / "net.topo"), "--config", str(folder / "run.cfg")]


def peak_rss_kib(argv: list[str], env: dict[str, str] | None = None) -> int:
    """Peak RSS in KiB of `python -m lwbsim.cli *argv` in a fresh process,
    with this checkout's src/ first on its PYTHONPATH, so it runs the
    checkout's lwbsim whether or not the package is installed. env
    defaults to this process's environment."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    command = [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "lwbsim.cli", *argv]
    return int(subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("durations", nargs="+", help="--duration values, e.g. 1800s")
    parser.add_argument("--max-ratio", type=float, default=1.1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as folder:
        inputs = write_inputs(args.workload, Path(folder))
        peaks = []
        for duration in args.durations:
            command = ["run", "--trace", os.devnull, *inputs, "--duration", duration]
            peaks.append(peak_rss_kib(command))
            print(f"{args.workload} --duration {duration}: peak RSS {peaks[-1] / 1024:.1f} MiB")
    if peaks[-1] > args.max_ratio * peaks[0]:
        print(f"peak RSS grew {peaks[-1] / peaks[0]:.3f}x, over {args.max_ratio}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

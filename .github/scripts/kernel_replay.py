"""Lossy flood kernel check: every lossy flood of a benchmark workload's
seed-1 run against the set-based reference wave loop.

Loads bench/run.py by file path, runs each of the workload's seed-1
networks and records every lossy flood the engine makes. Each is checked as
it happens: from the rng state the flood started with,
tests/_support.reference_flood_hops must give the same hop counts and leave
the rng in the same state as glossy.flood. Then the recorded floods are
replayed once through glossy.flood from one seeded rng, and the replay
time is printed for information only: it is not checked.

Exits 1 when any flood differs from the reference.

Usage: python .github/scripts/kernel_replay.py WORKLOAD
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _support import hops_of, reference_flood_hops  # noqa: E402
from lwbsim import engine  # noqa: E402
from lwbsim.config import parse_config  # noqa: E402
from lwbsim.glossy import flood, ids_of  # noqa: E402
from lwbsim.sim import run_simulation  # noqa: E402
from lwbsim.topology import load_topology  # noqa: E402


def bench_inputs(workload: str) -> tuple[list[str], str]:
    """The workload's seed-1 topology texts and config text."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench_run  # dataclasses look their module up
    try:
        spec.loader.exec_module(bench_run)
    finally:
        del sys.modules[spec.name]
    return bench_run.make_inputs(bench_run.WORKLOADS[workload], 1)


def record(topologies: list[str], config_text: str) -> tuple[list[tuple], list[int]]:
    """Run every network and return its lossy floods as (topology,
    initiator, participants, loss probability) in call order, with the
    indices of those whose hops or rng state differ from the reference."""
    config = parse_config(config_text)
    floods: list[tuple] = []
    differing: list[int] = []

    def checked(topology, initiator, participants, loss_probability=0.0, rng=None):
        if not loss_probability:
            return flood(topology, initiator, participants, loss_probability, rng)
        reference = random.Random()
        reference.setstate(rng.getstate())
        outcome = flood(topology, initiator, participants, loss_probability, rng)
        relays = set(ids_of(participants))
        want = reference_flood_hops(topology, initiator, relays, loss_probability, reference)
        if hops_of(outcome) != want or reference.getstate() != rng.getstate():
            differing.append(len(floods))
        floods.append((topology, initiator, participants, loss_probability))
        return outcome

    engine_flood, engine.flood = engine.flood, checked
    try:
        for text in topologies:
            run_simulation(config, load_topology(text))
    finally:
        engine.flood = engine_flood
    return floods, differing


def replay_s(floods: list[tuple]) -> float:
    """Wall time of flooding every recorded flood again from Random(1)."""
    rng = random.Random(1)
    start = time.perf_counter()
    for topology, initiator, participants, loss_probability in floods:
        flood(topology, initiator, participants, loss_probability, rng)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    args = parser.parse_args(argv)
    floods, differing = record(*bench_inputs(args.workload))
    print(f"{args.workload}: {len(floods)} lossy floods checked, {len(differing)} differ")
    if differing:
        _, initiator, _, loss = floods[differing[0]]
        print(f"first differing flood: #{differing[0]}, initiator {initiator}, loss {loss}")
        return 1
    print(f"kernel replay (information only): {replay_s(floods):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

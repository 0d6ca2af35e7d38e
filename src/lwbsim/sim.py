"""Whole-run driver: builds the world, loops rounds, serializes traces.

A run is fully determined by (topology, config, seed): the same triple
produces byte-identical trace output. All randomness flows through one rng
seeded once; drifts are drawn first (non-sink nodes in id order, only when
the configured range is not empty), then each round consumes draws in slot
order as described in the engine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .config import SimConfig
from .core import (
    PHASE_OPERATIONAL,
    PHASE_STABILIZATION,
    NodeState,
    SinkSchedule,
    advance_phase,
    sink_build_sync,
    update_rr_dynamics,
)
from .engine import RoundTrace, SlotTrace, World, execute_round
from .errors import SimulationError
from .glossy import ClockState
from .metrics import RunMetrics
from .topology import Topology


@dataclass
class RunResult:
    config: SimConfig
    topology: Topology
    traces: list[RoundTrace]
    metrics: RunMetrics
    world: World


def build_world(config: SimConfig, topology: Topology) -> World:
    """Set up initial state: sink synced, everyone else in bootstrap."""
    sink = config.sink_node_id
    if sink not in topology:
        raise SimulationError(f"sink node {sink} missing from topology")
    for node in topology.nodes:
        if not 1 <= node <= config.max_node_number:
            raise SimulationError(
                f"node id {node} outside [1, {config.max_node_number}]"
            )
    rng = random.Random(config.seed)
    lo, hi = config.drift_ppm_range
    nodes: dict[int, NodeState] = {}
    for node in sorted(topology.nodes):
        drift = 0.0
        if node != sink and (lo, hi) != (0.0, 0.0):
            drift = rng.uniform(lo, hi)
        clock = ClockState(drift_ppm=drift, guard=config.glossy_guard_time)
        state = NodeState(node_id=node, clock=clock)
        if node == sink:
            state.bootstrap = False
            state.clock.apply_sync(0)
        nodes[node] = state
    return World(
        topology=topology,
        config=config,
        schedule=SinkSchedule(),
        nodes=nodes,
        rng=rng,
    )


def run_simulation(
    config: SimConfig,
    topology: Topology,
    on_round: Callable[[World, RoundTrace], None] | None = None,
) -> RunResult:
    """Execute rounds until the configured duration is reached.

    on_round, when given, is called after every round with the live world
    and the fresh trace; tests use it to inspect internal state.
    """
    config.validate()
    world = build_world(config, topology)
    metrics = RunMetrics(node_ids=list(topology.nodes), sink=config.sink_node_id)
    traces: list[RoundTrace] = []
    while world.now < config.duration:
        advance_phase(world.schedule, config)
        header = sink_build_sync(world.schedule, config)
        trace = execute_round(world, header)
        if world.schedule.phase == PHASE_STABILIZATION:
            update_rr_dynamics(world.schedule, trace.request_outcomes, config)
        elif world.schedule.phase == PHASE_OPERATIONAL:
            world.schedule.op_round_index += 1
        world.schedule.phase_clock += header.round_period
        metrics.accumulate(trace)
        traces.append(trace)
        if on_round is not None:
            on_round(world, trace)
    return RunResult(config, topology, traces, metrics, world)


def _slot_record(trace: RoundTrace, slot: SlotTrace) -> dict:
    rec: dict = {
        "kind": "slot",
        "round": trace.index,
        "t": slot.t,
        "phase": trace.phase,
        "type": slot.kind,
        "initiator": slot.initiator,
        "awake": slot.awake,
        "received": slot.received,
    }
    if slot.kind == "request":
        rec["contenders"] = slot.contender_count
        rec["winner"] = slot.winner
        rec["delivered"] = slot.delivered
    elif slot.kind == "reply":
        rec["requester"] = slot.requester
        rec["assigned_slot"] = slot.assigned_slot
        rec["new_assignment"] = slot.new_assignment
        rec["delivered"] = slot.delivered
        if slot.capacity_exceeded:
            rec["capacity_exceeded"] = True
    elif slot.kind == "announce":
        rec["source"] = slot.source
        rec["distance"] = slot.announced_distance
        rec["slot_id"] = slot.slot_id
    elif slot.kind == "data":
        rec["slot_id"] = slot.slot_id
        rec["owner"] = slot.owner
        rec["payload_len"] = slot.payload_len
        rec["gen_round"] = slot.gen_round
        rec["delivered"] = slot.delivered
    return rec


def _round_record(trace: RoundTrace) -> dict:
    return {
        "kind": "round",
        "round": trace.index,
        "t": trace.t_start,
        "phase": trace.phase,
        "mode": trace.mode,
        "period": trace.round_period,
        "n_rr": trace.n_rr,
        "n_data": trace.n_data,
        "radio_on": {str(n): us for n, us in sorted(trace.radio_on.items())},
        "new_assignments": [list(pair) for pair in trace.new_assignments],
        "joined": trace.joined,
        "desynced": trace.desynced,
        "bootstrap": trace.bootstrap,
        "generated": [list(pair) for pair in trace.generated],
        "dropped": trace.dropped,
        "capacity_events": trace.capacity_events,
    }


def trace_records(traces: list[RoundTrace]) -> Iterator[dict]:
    """Flat record stream: slot records in time order, then the round
    summary, for each round. A global seq field gives a total order."""
    seq = 0
    for trace in traces:
        for slot in trace.slots:
            rec = _slot_record(trace, slot)
            rec["seq"] = seq
            seq += 1
            yield rec
        rec = _round_record(trace)
        rec["seq"] = seq
        seq += 1
        yield rec


def render_trace(traces: list[RoundTrace]) -> str:
    """Line-delimited JSON, stable byte-for-byte for identical runs."""
    lines = [
        json.dumps(rec, separators=(",", ":"), sort_keys=False)
        for rec in trace_records(traces)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(path: str | Path, traces: list[RoundTrace]) -> None:
    Path(path).write_text(render_trace(traces), encoding="utf-8")


def forwarder_table(result: RunResult) -> list[dict]:
    """Forwarder sets per assigned slot, from the final node states."""
    from .forwarding import data_participants, forwarder_index

    world = result.world
    sink = result.config.sink_node_id
    active = [n for n in world.node_order() if not world.nodes[n].bootstrap]
    forwarders = forwarder_index(active, world.nodes, world.announced_slots)
    table = []
    for slot_id in range(world.schedule.next_free_slot):
        owner = world.schedule.slot_owner[slot_id]
        table.append(
            {
                "slot": slot_id,
                "owner": owner,
                "distance": world.announced_slots.get(slot_id),
                "forwarders": data_participants(
                    active, forwarders, slot_id, owner, sink
                ),
            }
        )
    return table

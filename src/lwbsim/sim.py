"""Whole-run driver: builds the world, loops rounds, serializes traces.

A run is fully determined by (topology, config, seed): the same triple
produces byte-identical trace output. All randomness flows through one rng
seeded once; drifts are drawn first (non-sink nodes in id order, only when
the configured range is not empty), then each round consumes draws in slot
order as described in the engine.

Trace records keep the key order render_trace lists. Slots share awake
and received lists (one per round for the request block and full data
slots, one per zero-loss memo entry for receivers), so trace lists are
read-only: the renderer encodes each distinct list object once.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

from .config import SimConfig
from .core import (
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


def check_topology(config: SimConfig, topology: Topology) -> None:
    """Raise SimulationError unless the topology holds the sink and only
    node ids the config allows."""
    if config.sink_node_id not in topology:
        raise SimulationError(f"sink node {config.sink_node_id} missing from topology")
    for node in topology.nodes:
        if not 1 <= node <= config.max_node_number:
            raise SimulationError(
                f"node id {node} outside [1, {config.max_node_number}]"
            )


def build_world(config: SimConfig, topology: Topology) -> World:
    """Set up initial state: sink synced, everyone else in bootstrap."""
    check_topology(config, topology)
    sink = config.sink_node_id
    rng = random.Random(config.seed)
    lo, hi = config.drift_ppm_range
    nodes: dict[int, NodeState] = {}
    for node in sorted(topology.nodes):
        drift = 0.0
        if node != sink and (lo, hi) != (0.0, 0.0):
            drift = rng.uniform(lo, hi)
        clock = ClockState(drift_ppm=drift, guard=config.glossy_guard_time)
        nodes[node] = NodeState(node_id=node, clock=clock, bootstrap=node != sink)
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
        world.schedule.phase_clock += header.round_period
        metrics.accumulate(trace)
        traces.append(trace)
        if on_round is not None:
            on_round(world, trace)
    return RunResult(config, topology, traces, metrics, world)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _scalar(value):
    """A trace field as JSON: None and bools spelled out, ints unchanged."""
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    return value


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


# Slot kinds are the engine's fixed lowercase names, written unescaped.
_SLOT_HEAD = (
    '{"kind":"slot","round":%s,"t":%s,"phase":%s,"type":"%s","initiator":%s,"awake":'
)


def _slot_tail(slot: SlotTrace, seq: int) -> str:
    """The kind-specific fields of a slot record, its seq and newline."""
    s, kind = _scalar, slot.kind
    if kind == "data":
        return (
            ',"slot_id":%s,"owner":%s,"payload_len":%s,"gen_round":%s,'
            '"delivered":%s,"seq":%d}\n'
        ) % (
            s(slot.slot_id), s(slot.owner), s(slot.payload_len), s(slot.gen_round),
            s(slot.delivered), seq,
        )
    if kind == "request":
        return ',"contenders":%s,"winner":%s,"delivered":%s,"seq":%d}\n' % (
            slot.contender_count, s(slot.winner), s(slot.delivered), seq,
        )
    if kind == "reply":
        capacity = ',"capacity_exceeded":true' if slot.capacity_exceeded else ""
        return (
            ',"requester":%s,"assigned_slot":%s,"new_assignment":%s,'
            '"delivered":%s%s,"seq":%d}\n'
        ) % (
            s(slot.requester), s(slot.assigned_slot), s(slot.new_assignment),
            s(slot.delivered), capacity, seq,
        )
    if kind == "announce":
        return ',"source":%s,"distance":%s,"slot_id":%s,"seq":%d}\n' % (
            s(slot.source), s(slot.announced_distance), s(slot.slot_id), seq,
        )
    return ',"seq":%d}\n' % seq


def _trace_pieces(traces: Iterable[RoundTrace]) -> Iterator[str]:
    """The JSONL text in pieces: five per slot record (head, awake list,
    ',"received":', received list, tail), one per round record.

    Each distinct list object is encoded once per call. The cache pins
    every list it has encoded, so no id is reused while the call lasts,
    even when a generator frees its rounds. The pins sit in a list beside
    the dict, 48 bytes per list less than (list, text) tuples would take.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    cache: dict[int, str] = {}
    pinned: list[list[int]] = []

    def text(items: list[int]) -> str:
        out = cache.get(id(items))
        if out is None:
            out = cache[id(items)] = encode(items)
            pinned.append(items)
        return out

    seq = 0
    for trace in traces:
        phase = encode(trace.phase)
        for slot in trace.slots:
            initiator = _scalar(slot.initiator)
            yield _SLOT_HEAD % (trace.index, slot.t, phase, slot.kind, initiator)
            yield text(slot.awake)
            yield ',"received":'
            yield text(slot.received)
            yield _slot_tail(slot, seq)
            seq += 1
        rec = _round_record(trace)
        rec["seq"] = seq
        seq += 1
        yield encode(rec) + "\n"


def render_trace(traces: Iterable[RoundTrace]) -> str:
    """Line-delimited JSON, stable byte-for-byte for identical runs.

    Each round gives its slot records in time order, then its round record;
    a global seq gives a total order. Key order is fixed: a slot record has
    kind, round, t, phase, type, initiator, awake, received, the fields of
    its type in _slot_tail's order, seq; a round record has the keys of
    _round_record, then seq. Each distinct list object is encoded once per
    call, which relies on trace lists being read-only. traces may be any
    iterable of rounds, a generator included.
    """
    return "".join(_trace_pieces(traces))


def write_trace(file: TextIO, traces: Iterable[RoundTrace]) -> None:
    """Stream render_trace's text into an open text file."""
    file.writelines(_trace_pieces(traces))


def forwarder_table(result: RunResult) -> list[dict]:
    """Forwarder sets per assigned slot, from the final node states."""
    from .forwarding import data_participants, forwarder_index

    world = result.world
    sink = result.config.sink_node_id
    active = [n for n in world.node_order() if not world.nodes[n].bootstrap]
    forwarders = forwarder_index(active, world.nodes, world.announced_slots)
    table = []
    for slot_id, owner in enumerate(world.schedule.slot_owner):
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

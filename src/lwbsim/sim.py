"""Whole-run driver: builds the world, loops rounds, serializes traces.

A run is fully determined by (topology, config, seed): the same triple
produces byte-identical trace output. All randomness flows through one rng
seeded once; drifts are drawn first (non-sink nodes in id order, only when
the configured range is not empty), then each round consumes draws in slot
order as described in the engine.

Trace records keep the key order render_trace lists and are written from
%-templates and node id texts, not through json. A slot stores its awake
and received nodes as masks, and the renderer writes the id list of each
distinct mask value once per call, from per-byte texts: byte i of a mask
holds nodes 8i to 8i+7, so a (byte index, byte value) pair has one text.
"""

from __future__ import annotations

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
from .forwarding import data_participants
from .glossy import ids_of
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
        nodes[node] = NodeState(drift_ppm=drift, bootstrap=node != sink)
    return World(
        topology=topology,
        config=config,
        schedule=SinkSchedule(),
        nodes=nodes,
        node_ids=tuple(nodes),
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
            update_rr_dynamics(world.schedule, trace.slots, config)
        world.schedule.phase_clock += header.round_period
        metrics.accumulate(trace)
        traces.append(trace)
        if on_round is not None:
            on_round(world, trace)
    return RunResult(config, topology, traces, metrics, world)


class _Memo(dict):
    """key -> make(key), made on the first lookup of each key."""

    def __init__(self, make: Callable[[int], str]) -> None:
        self.make = make

    def __missing__(self, key: int) -> str:
        value = self[key] = self.make(key)
        return value


# Slot kinds, phases and modes are the engine's fixed lowercase names,
# written unescaped.
_SLOT_HEAD = (
    '{"kind":"slot","round":%d,"t":%d,"phase":"%s","type":"%s","initiator":%s,"awake":['
)
_ROUND = (
    '{"kind":"round","round":%d,"t":%d,"phase":"%s","mode":"%s","period":%d,'
    '"n_rr":%d,"n_data":%d,"radio_on":{%s},"new_assignments":[%s],"joined":[%s],'
    '"desynced":[%s],"bootstrap":[%s],"generated":[%s],"dropped":[%s],'
    '"capacity_events":%d,"seq":%d}\n'
)
_DATA = '],"slot_id":%d,"owner":%d,"payload_len":%d,"gen_round":%s,"delivered":%s,"seq":%d}\n'
_SILENT_DATA = (
    '],"slot_id":%d,"owner":%d,"payload_len":null,"gen_round":null,'
    '"delivered":false,"seq":%d}\n'
)
_REQUEST = '],"contenders":%d,"winner":%s,"delivered":%s,"seq":%d}\n'
_REPLY = '],"requester":%s,"assigned_slot":%s,"new_assignment":%s,"delivered":%s%s,"seq":%d}\n'
_ANNOUNCE = '],"source":%s,"distance":%s,"slot_id":%s,"seq":%d}\n'


def _json(value: int | None) -> int | str:
    """An int-or-None field for a %s template: None is null."""
    return "null" if value is None else value


def _slot_tail(slot: SlotTrace, seq: int) -> str:
    """A slot record from the ']' closing its received list to its newline.
    Int fields go through %d, int-or-None fields through _json and bool
    fields through a conditional, never a lookup: True == 1 as a key."""
    kind = slot.kind
    if kind == "data":
        if slot.payload_len is None:
            return _SILENT_DATA % (slot.slot_id, slot.owner, seq)
        return _DATA % (
            slot.slot_id, slot.owner, slot.payload_len, _json(slot.gen_round),
            "true" if slot.delivered else "false", seq,
        )
    if kind == "request":
        return _REQUEST % (
            slot.contender_count, _json(slot.winner),
            "true" if slot.delivered else "false", seq,
        )
    if kind == "reply":
        return _REPLY % (
            _json(slot.requester), _json(slot.assigned_slot),
            "true" if slot.new_assignment else "false",
            "true" if slot.delivered else "false",
            ',"capacity_exceeded":true' if slot.capacity_exceeded else "", seq,
        )
    if kind == "announce":
        return _ANNOUNCE % (
            _json(slot.source), _json(slot.announced_distance), _json(slot.slot_id), seq,
        )
    return '],"seq":%d}\n' % seq


def _trace_pieces(traces: Iterable[RoundTrace]) -> Iterator[str]:
    """The JSONL text in pieces: five per slot record (head to the awake
    list's '[', awake ids, '],"received":[', received ids, tail from ']'),
    one per round record.

    Each distinct slot mask value's ids are joined once per call, from the
    texts of its nonzero bytes, and each node id's text is made once. The
    caches hold values, not slots, so a generator may free its rounds as
    they are rendered.
    """
    name = _Memo(str).__getitem__

    def byte_text(key: int) -> str:
        """key is byte index << 8 | byte value: bits 0-7 are the byte."""
        base = key >> 8 << 3
        return ",".join([name(base + bit) for bit in range(8) if key >> bit & 1])

    def mask_text(mask: int) -> str:
        data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        return ",".join([chunk(i << 8 | byte) for i, byte in enumerate(data) if byte])

    chunk = _Memo(byte_text).__getitem__
    text = _Memo(mask_text).__getitem__

    seq = 0
    for trace in traces:
        for slot in trace.slots:
            yield _SLOT_HEAD % (
                trace.index, slot.t, trace.phase, slot.kind, _json(slot.initiator)
            )
            yield text(slot.awake_mask)
            yield '],"received":['
            yield text(slot.received_mask)
            yield _slot_tail(slot, seq)
            seq += 1
        yield _ROUND % (
            trace.index, trace.t_start, trace.phase, trace.mode, trace.round_period,
            trace.n_rr, trace.n_data,
            ",".join(map('"%d":%d'.__mod__, zip(trace.node_ids, trace.radio_totals))),
            ",".join(map("[%d,%d]".__mod__, trace.new_assignments)),
            ",".join(map(name, trace.joined)),
            ",".join(map(name, trace.desynced)),
            ",".join(map(name, trace.bootstrap)),
            ",".join(map("[%d,%d]".__mod__, trace.generated)),
            ",".join(map(name, trace.dropped)), trace.capacity_events, seq,
        )
        seq += 1


def render_trace(traces: Iterable[RoundTrace]) -> str:
    """Line-delimited JSON, stable byte-for-byte for identical runs.

    Each round gives its slot records in time order, then its round record;
    a global seq gives a total order. Key order is fixed: a slot record has
    kind, round, t, phase, type, initiator, awake, received, the fields of
    its type in _slot_tail's order, seq; a round record has _ROUND's keys.
    traces may be any iterable of rounds.
    """
    return "".join(_trace_pieces(traces))


def write_trace(file: TextIO, traces: Iterable[RoundTrace]) -> None:
    """Stream render_trace's text into an open text file."""
    file.writelines(_trace_pieces(traces))


def forwarder_table(result: RunResult) -> list[dict]:
    """Forwarder sets per assigned slot, among the nodes synced at the end."""
    world = result.world
    sink = result.config.sink_node_id
    announced = world.announced_slots
    awake = Topology.mask_of(n for n, state in world.nodes.items() if not state.bootstrap)
    table = []
    for slot_id, owner in enumerate(world.schedule.slot_owner):
        entry = announced.get(slot_id)
        table.append(
            {
                "slot": slot_id,
                "owner": owner,
                "distance": None if entry is None else entry[0],
                "forwarders": ids_of(data_participants(awake, announced, slot_id, owner, sink)),
            }
        )
    return table

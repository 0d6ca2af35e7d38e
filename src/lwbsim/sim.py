"""Whole-run driver: builds the world, loops rounds, serializes traces.

A run is fully determined by (topology, config, seed): the same triple
produces byte-identical trace output. All randomness flows through one rng
seeded once; drifts are drawn first (non-sink nodes in id order, only when
the configured range is not empty), then each round consumes draws in slot
order as described in the engine.

Trace records keep the key order render_trace lists and are written from
%-templates and node id texts, not through json. Slots share awake and
received lists, so trace lists are read-only: the renderer writes each
distinct slot list object once. The sync slot's receivers are the round's
active list, and the sync slot is awake on that same list unless a synced
node missed the sync. The request block and full data slots are awake on
it too, and later slots share one receiver list per zero-loss memo entry.
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


class _Names(dict):
    """Node id -> its decimal text, made on the first lookup of each id."""
    def __missing__(self, node: int) -> str:
        text = self[node] = str(node)
        return text


# Slot kinds, phases and modes are the engine's fixed lowercase names,
# written unescaped.
_SLOT_HEAD = (
    '{"kind":"slot","round":%s,"t":%s,"phase":"%s","type":"%s","initiator":%s,"awake":['
)
_ROUND = (
    '{"kind":"round","round":%d,"t":%d,"phase":"%s","mode":"%s","period":%d,'
    '"n_rr":%d,"n_data":%d,"radio_on":{%s},"new_assignments":[%s],"joined":[%s],'
    '"desynced":[%s],"bootstrap":[%s],"generated":[%s],"dropped":[%s],'
    '"capacity_events":%d,"seq":%d}\n'
)


def _slot_tail(slot: SlotTrace, seq: int) -> str:
    """A slot record from the ']' closing its received list to its newline."""
    s, kind = _scalar, slot.kind
    if kind == "data":
        return (
            '],"slot_id":%s,"owner":%s,"payload_len":%s,"gen_round":%s,'
            '"delivered":%s,"seq":%d}\n'
        ) % (
            s(slot.slot_id), s(slot.owner), s(slot.payload_len), s(slot.gen_round),
            s(slot.delivered), seq,
        )
    if kind == "request":
        return '],"contenders":%s,"winner":%s,"delivered":%s,"seq":%d}\n' % (
            slot.contender_count, s(slot.winner), s(slot.delivered), seq,
        )
    if kind == "reply":
        capacity = ',"capacity_exceeded":true' if slot.capacity_exceeded else ""
        return (
            '],"requester":%s,"assigned_slot":%s,"new_assignment":%s,'
            '"delivered":%s%s,"seq":%d}\n'
        ) % (
            s(slot.requester), s(slot.assigned_slot), s(slot.new_assignment),
            s(slot.delivered), capacity, seq,
        )
    if kind == "announce":
        return '],"source":%s,"distance":%s,"slot_id":%s,"seq":%d}\n' % (
            s(slot.source), s(slot.announced_distance), s(slot.slot_id), seq,
        )
    return '],"seq":%d}\n' % seq


def _trace_pieces(traces: Iterable[RoundTrace]) -> Iterator[str]:
    """The JSONL text in pieces: five per slot record (head to the awake
    list's '[', awake ids, '],"received":[', received ids, tail from ']'),
    one per round record.

    Each distinct slot list object's ids are joined once per call; a
    round's own lists, shared by no slot, are not cached. The cache pins
    every list it holds in a list (48 bytes per list less than (list, text)
    values), so no id is reused even when a generator frees its rounds.
    """
    name = _Names().__getitem__
    cache: dict[int, str] = {}
    pinned: list[list[int]] = []

    def text(items: list[int]) -> str:
        out = cache.get(id(items))
        if out is None:
            out = cache[id(items)] = ",".join(map(name, items))
            pinned.append(items)
        return out

    seq = 0
    for trace in traces:
        for slot in trace.slots:
            initiator = _scalar(slot.initiator)
            yield _SLOT_HEAD % (trace.index, slot.t, trace.phase, slot.kind, initiator)
            yield text(slot.awake)
            yield '],"received":['
            yield text(slot.received)
            yield _slot_tail(slot, seq)
            seq += 1
        yield _ROUND % (
            trace.index, trace.t_start, trace.phase, trace.mode, trace.round_period,
            trace.n_rr, trace.n_data,
            ",".join(map('"%d":%d'.__mod__, sorted(trace.radio_on.items()))),
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
    Each distinct slot list object is written once per call, which relies
    on trace lists being read-only. traces may be any iterable of rounds.
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
    active = [n for n, state in world.nodes.items() if not state.bootstrap]
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

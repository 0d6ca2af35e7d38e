"""Whole-run driver: builds the world, loops rounds, serializes traces.

A run is fully determined by (topology, config, seed): the same triple
produces byte-identical trace output. All randomness flows through one rng
seeded once; drifts are drawn first (non-sink nodes in id order, only when
the configured range is not empty), then each round consumes draws in slot
order as described in the engine.

Traces are written in trace schema 2, in the key order render_trace
lists, from %-templates and node id texts, not through json. A round's
sync slot spells out its awake and received ids; every other slot of the
round writes its awake ids only when they are not the round's active set
(the sync slot's received ids) and, in place of its received ids, the
awake ids that missed the flood, most often none. The id list of each
distinct mask value is made once per call from per-byte texts (byte i of
a mask holds nodes 8i to 8i+7), and so is the radio_on text of each
distinct row, which sync-only rounds repeat many times.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, Iterable, Iterator, TextIO

from .config import SimConfig
from .core import (
    PHASE_STABILIZATION,
    SinkSchedule,
    advance_phase,
    last_round_start,
    sink_build_sync,
    update_rr_dynamics,
)
from .engine import RoundTrace, SlotTrace, World, execute_round
from .errors import ConfigError, SimulationError, TopologyError
from .forwarding import data_participants
from .glossy import ids_of
from .metrics import RunMetrics
from .topology import Topology


class RunResult:
    def __init__(
        self, config: SimConfig, topology: Topology, traces: list[RoundTrace],
        metrics: RunMetrics, world: World,
    ) -> None:
        self.config, self.topology, self.traces = config, topology, traces
        self.metrics, self.world = metrics, world


def check_topology(config: SimConfig, topology: Topology) -> None:
    """Raise TopologyError unless the topology holds the sink and only node
    ids the config allows, and ConfigError when the longest packet text, the
    largest source id's "node:seq" in the last round, exceeds MAX_PAYLOAD_LEN."""
    sink = config.sink_node_id
    if sink not in topology:
        raise TopologyError(f"sink node {sink} missing from topology")
    for node in topology.nodes:
        if not 1 <= node <= config.max_node_number:
            raise TopologyError(f"node id {node} outside [1, {config.max_node_number}]")
    source = max(topology.nodes - {sink}, default=None)
    packet = f"{source}:{last_round_start(config) // config.ipi}"
    if source is not None and len(packet) > config.max_payload_len:
        raise ConfigError(
            f"MAX_PAYLOAD_LEN {config.max_payload_len} is too small for {packet!r}, "
            f"a {len(packet)}-byte packet of the run"
        )


def build_world(config: SimConfig, topology: Topology) -> World:
    """Set up initial state: sink synced, everyone else in bootstrap."""
    check_topology(config, topology)
    sink = config.sink_node_id
    rng = random.Random(config.seed)
    lo, hi = config.drift_ppm_range
    node_ids = tuple(sorted(topology.nodes))
    drifts = {node: rng.uniform(lo, hi) for node in node_ids if (lo or hi) and node != sink}
    return World(topology, config, SinkSchedule(), node_ids, rng, drifts)


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

    def __init__(self, make: Callable[[Hashable], str]) -> None:
        self.make = make

    def __missing__(self, key: Hashable) -> str:
        value = self[key] = self.make(key)
        return value


# Slot kinds, phases and modes are the engine's fixed lowercase names,
# written unescaped. _SLOT_HEAD's last two values are a slot's awake part,
# "" on the round's active set, and its missed ids.
_HEADER = '{"kind":"schema","version":2}\n'
_SYNC = (
    '{"kind":"slot","round":%d,"t":%d,"phase":"%s","type":"sync","initiator":%s,'
    '"awake":[%s],"received":[%s],"seq":%d}\n'
)
_SLOT_HEAD = (
    '{"kind":"slot","round":%d,"t":%d,"phase":"%s","type":"%s","initiator":%s,%s"missed":[%s]'
)
_ROUND_HEAD = (
    '{"kind":"round","round":%d,"t":%d,"phase":"%s","mode":"%s","period":%d,'
    '"n_rr":%d,"n_data":%d,"radio_on":{'
)
_ROUND_TAIL = (
    '},"new_assignments":[%s],"joined":[%s],"desynced":[%s],"bootstrap":[%s],'
    '"generated":[%s],"dropped":[%s],"capacity_events":%d,"seq":%d}\n'
)
_DATA = _SLOT_HEAD + (
    ',"slot_id":%d,"owner":%d,"payload_len":%s,"gen_round":%s,"delivered":%s,"seq":%d}\n'
)
_REQUEST = _SLOT_HEAD + ',"contenders":%d,"winner":%s,"delivered":%s,"seq":%d}\n'
_REPLY = _SLOT_HEAD + (
    ',"requester":%s,"assigned_slot":%s,"new_assignment":%s,"delivered":%s%s,"seq":%d}\n'
)
_ANNOUNCE = _SLOT_HEAD + ',"source":%s,"distance":%s,"slot_id":%s,"seq":%d}\n'


def _json(value: int | None) -> int | str:
    """An int-or-None field for a %s template: None is null."""
    return "null" if value is None else value


def _slot_line(slot: SlotTrace, head: tuple, seq: int) -> str:
    """The record of a slot other than sync, from _SLOT_HEAD's values.
    Int fields go through %d, int-or-None fields through _json and bool
    fields through a conditional, never a lookup: True == 1 as a key."""
    kind = slot.kind
    if kind == "data":
        return _DATA % (
            *head, slot.slot_id, slot.owner, _json(slot.payload_len), _json(slot.gen_round),
            "true" if slot.delivered else "false", seq,
        )
    if kind == "request":
        return _REQUEST % (
            *head, slot.contender_count, _json(slot.winner),
            "true" if slot.delivered else "false", seq,
        )
    if kind == "reply":
        return _REPLY % (
            *head, _json(slot.requester), _json(slot.assigned_slot),
            "true" if slot.new_assignment else "false",
            "true" if slot.delivered else "false",
            ',"capacity_exceeded":true' if slot.capacity_exceeded else "", seq,
        )
    return _ANNOUNCE % (
        *head, _json(slot.source), _json(slot.announced_distance), _json(slot.slot_id), seq,
    )


def _trace_pieces(traces: Iterable[RoundTrace]) -> Iterator[str]:
    """The JSONL text in pieces: the header line, one per slot record,
    three per round record (head to radio_on's '{', the radio_on pairs,
    tail from '}').

    Each distinct slot mask value's ids are joined once per call, from the
    texts of its nonzero bytes, each node id's text is made once, and each
    distinct (node_ids, radio_totals) row's pairs are written once. The
    caches are keyed on values, not objects, so a generator may free its
    rounds as they are rendered.
    """
    name = _Memo(str).__getitem__

    def byte_text(key: int) -> str:
        """key is byte index << 8 | byte value: bits 0-7 are the byte."""
        base = key >> 8 << 3
        return ",".join([name(base + bit) for bit in range(8) if key >> bit & 1])

    def mask_text(mask: int) -> str:
        data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        return ",".join([chunk(i << 8 | byte) for i, byte in enumerate(data) if byte])

    def row_text(row: tuple[tuple[int, ...], tuple[int, ...]]) -> str:
        return ",".join(map('"%d":%d'.__mod__, zip(*row)))

    chunk = _Memo(byte_text).__getitem__
    text = _Memo(mask_text).__getitem__
    radio_text = _Memo(row_text).__getitem__
    awake_part = _Memo(lambda mask: '"awake":[%s],' % text(mask)).__getitem__

    yield _HEADER
    seq = 0
    for trace in traces:
        active = -1  # the sync slot's received mask; no mask equals -1
        for slot in trace.slots:
            awake, received = slot.awake_mask, slot.received_mask
            if slot.kind == "sync":
                active = received
                yield _SYNC % (
                    trace.index, slot.t, trace.phase, _json(slot.initiator),
                    text(awake), text(received), seq,
                )
            else:
                missed = ""
                if received != awake:
                    missed_mask = awake ^ received  # awake & ~received if no stray bit
                    if missed_mask & received:  # a stray receiver schema 2 cannot write
                        raise SimulationError(f"slot at t={slot.t} received off its awake set")
                    missed = text(missed_mask)
                yield _slot_line(slot, (
                    trace.index, slot.t, trace.phase, slot.kind, _json(slot.initiator),
                    "" if awake == active else awake_part(awake), missed,
                ), seq)
            seq += 1
        yield _ROUND_HEAD % (
            trace.index, trace.t_start, trace.phase, trace.mode, trace.round_period,
            trace.n_rr, trace.n_data,
        )
        yield radio_text((trace.node_ids, trace.radio_totals))
        yield _ROUND_TAIL % (
            ",".join(map("[%d,%d]".__mod__, trace.new_assignments)),
            ",".join(map(name, trace.joined)),
            ",".join(map(name, trace.desynced)),
            ",".join(map(name, trace.bootstrap)),
            ",".join(map("[%d,%d]".__mod__, trace.generated)),
            ",".join(map(name, trace.dropped)), trace.capacity_events, seq,
        )
        seq += 1


def render_trace(traces: Iterable[RoundTrace]) -> str:
    """Line-delimited JSON in trace schema 2, stable byte-for-byte for
    identical runs: the header {"kind":"schema","version":2}, then per
    round its slot records in time order and its round record; a global
    seq gives a total order. Key order is fixed. A slot record has kind,
    round, t, phase, type, initiator; then awake and received for the sync
    slot, and for any other slot awake (only when not the round's active
    set, the sync slot's received ids) and missed (its awake ids that did
    not receive); then its type's fields in _slot_line's order, and seq. A
    round record has the keys of _ROUND_HEAD and _ROUND_TAIL. traces may
    be any iterable of rounds. A slot other than sync that received on a
    node it was not awake on cannot be written: SimulationError.
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
    awake = world.all_nodes & ~world.bootstrap
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

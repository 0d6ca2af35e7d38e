"""Whole-run driver: builds the world, loops rounds, serializes traces.

A run is fully determined by (topology, config, seed): the same triple
produces byte-identical trace output. All randomness flows through one rng
seeded once; drifts are drawn first (non-sink nodes in id order, only when
the configured range is not empty), then each round consumes draws in slot
order as described in the engine.

Traces are written in trace schema 5, in the key order render_trace
lists, from %-templates and node id texts; only the header's config goes
through json. A record writes no field its place in the file, its round
record, the header or its own fields already say: not its sequence number,
not a slot's start time (its place in its round and the header's slot
lengths), round or phase, not a round's mode (the header's
FORWARDER_SELECTION), not a request's winner or an announce's source (its
initiator), and not a data slot's initiator when it is the owner. A slot's
kind is its type. Every slot writes, in place of its received ids, the
awake ids that missed its flood, most often none, and writes its awake ids
only when they are not the round's active set (the sync slot's received
ids), so always in the sync slot that opens each round. A round writes its
radio_on row only when the row's values differ from the previous round's;
a reader carries the last row forward. The ids of each distinct slot or
round mask are listed once per call, and so is the radio_on text of each
distinct row.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, TextIO

from .config import SimConfig, config_texts
from .core import (
    PHASE_STABILIZATION,
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
    def __init__(self, traces: list[RoundTrace], metrics: RunMetrics, world: World) -> None:
        self.traces, self.metrics, self.world = traces, metrics, world
        self.config, self.topology = world.config, world.topology


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
    """The run's initial World, once the topology fits the config."""
    check_topology(config, topology)
    return World(topology, config)


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
        advance_phase(world.schedule, config, world.now)
        header = sink_build_sync(world.schedule, config, world.now)
        trace = execute_round(world, header)
        if trace.phase == PHASE_STABILIZATION:
            update_rr_dynamics(world.schedule, trace.slots, config)
        metrics.accumulate(trace)
        traces.append(trace)
        if on_round is not None:
            on_round(world, trace)
    return RunResult(traces, metrics, world)


RENDER_MEMO_CAP = 4096  # entries each memo of one render keeps


class _Memo(dict):
    """key -> make(key), made on the first lookup of each key; past
    RENDER_MEMO_CAP entries the oldest is dropped first."""

    def __init__(self, make: Callable[[Hashable], str]) -> None:
        self.make = make

    def __missing__(self, key: Hashable) -> str:
        if len(self) >= RENDER_MEMO_CAP:
            del self[next(iter(self))]
        value = self[key] = self.make(key)
        return value


# Slot kinds and phases are the engine's fixed lowercase names, written
# unescaped. _SLOT_HEAD's three values are a slot's initiator part (see
# _slot_line), its awake part, "" on the round's active set, and its missed
# ids.
_HEADER = '{"kind":"schema","version":5,"config":%s}\n'
_ROUND_HEAD = '{"kind":"round","round":%d,"t":%d,"phase":"%s","period":%d,"n_rr":%d,"n_data":%d,'
_ROUND_TAIL = (
    '"new_assignments":[%s],"joined":[%s],"desynced":[%s],"bootstrap":[%s],'
    '"generated":[%s],"dropped":[%s],"capacity_events":%d}\n'
)
_SLOT_HEAD = '%s%s"missed":[%s]'
_SYNC = '{"kind":"sync",' + _SLOT_HEAD + '}\n'
_REQUEST = '{"kind":"request",' + _SLOT_HEAD + ',"contenders":%d,"delivered":%s}\n'
_REPLY = '{"kind":"reply",' + _SLOT_HEAD + (
    ',"requester":%s,"assigned_slot":%s,"new_assignment":%s,"delivered":%s%s}\n'
)
_ANNOUNCE = '{"kind":"announce",' + _SLOT_HEAD + ',"distance":%s,"slot_id":%s}\n'
_DATA = '{"kind":"data",' + _SLOT_HEAD + (
    ',"slot_id":%d,"owner":%d,"payload_len":%s,"gen_round":%s,"delivered":%s}\n'
)


def _json(value: int | None) -> int | str:
    """An int-or-None field for a %s template: None is null."""
    return "null" if value is None else value


def _slot_line(slot: SlotTrace, data_index: int, awake: str, missed: str) -> str:
    """The record of a slot, from _SLOT_HEAD's values and its kind's fields;
    data_index is a data slot's slot_id. A data slot writes its initiator
    only when it is not the owner: a silent slot's null, exactly when it
    received on nobody. Int fields go through %d, int-or-None fields
    through _json and bool fields through a conditional, never a lookup:
    True == 1 as a key."""
    kind = slot.kind
    if kind == "data":
        return _DATA % (
            "" if slot.received_mask else '"initiator":null,', awake, missed, data_index,
            slot.owner, _json(slot.payload_len), _json(slot.gen_round),
            "true" if slot.delivered else "false",
        )
    head = '"initiator":%s,' % _json(slot.initiator), awake, missed
    if kind == "request":
        return _REQUEST % (*head, slot.contender_count, "true" if slot.delivered else "false")
    if kind == "reply":
        return _REPLY % (
            *head, _json(slot.requester), _json(slot.assigned_slot),
            "true" if slot.new_assignment else "false",
            "true" if slot.delivered else "false",
            ',"capacity_exceeded":true' if slot.capacity_exceeded else "",
        )
    if kind == "announce":
        return _ANNOUNCE % (*head, _json(slot.announced_distance), _json(slot.slot_id))
    return _SYNC % head


def _trace_pieces(traces: Iterable[RoundTrace]) -> Iterator[str]:
    """The JSONL text in pieces: the header line, one per slot record,
    two or three per round record (head, the radio_on part when the row
    changed, tail). The header's config is the first round's, so the
    first round is taken before the header is written.

    Each distinct mask value's ids, a slot's or a round's, are joined once
    per call, each node id's text is made once, and each distinct
    (node_ids, radio_totals) row's pairs are written once. The caches and
    the repeated-row test compare values, not objects, so a generator may
    free its rounds as they are rendered.
    """
    name = _Memo(str).__getitem__
    text = _Memo(lambda mask: ",".join(map(name, ids_of(mask)))).__getitem__
    radio_part = _Memo(
        lambda row: '"radio_on":{%s},' % ",".join(map('"%d":%d'.__mod__, zip(*row)))
    ).__getitem__
    awake_part = _Memo(lambda mask: '"awake":[%s],' % text(mask)).__getitem__

    rounds = iter(traces)
    first = next(rounds, None)
    config = None if first is None else dict(config_texts(first.config))
    yield _HEADER % json.dumps(config, separators=(",", ":"))
    if first is None:
        return
    mode, last_row = first.config.mode, None  # the header's mode
    for trace in chain((first,), rounds):
        if trace.config.mode != mode:  # a round record does not say its mode
            raise SimulationError(f"round {trace.index} runs {trace.config.mode}, not {mode}")
        active = -1  # the sync slot's received mask; no mask equals -1
        first_data = 1 + trace.n_rr  # the place of data slot 0
        for place, slot in enumerate(trace.slots):
            awake, received = slot.awake_mask, slot.received_mask
            missed = ""
            if received != awake:
                missed_mask = awake ^ received  # awake & ~received if no stray bit
                if missed_mask & received:  # a stray receiver the schema cannot write
                    raise SimulationError(
                        f"round {trace.index} slot {place} received off its awake set"
                    )
                missed = text(missed_mask)
            yield _slot_line(
                slot, place - first_data, "" if awake == active else awake_part(awake), missed
            )
            if slot.kind == "sync":
                active = received
        yield _ROUND_HEAD % (
            trace.index, trace.t_start, trace.phase, trace.round_period, trace.n_rr, trace.n_data,
        )
        row = trace.node_ids, trace.radio_totals
        if row != last_row:  # by value: equal rows are often distinct objects
            yield radio_part(row)
            last_row = row
        made = trace.new_sequences  # generated: made [node,round] pairs per source in turn
        nodes = trace.sources if made < 2 else [n for n in trace.sources for _ in range(made)]
        yield _ROUND_TAIL % (
            ",".join(map("[%d,%d]".__mod__, trace.new_assignments)),
            text(trace.joined), text(trace.desynced), text(trace.bootstrap),
            "[%s,%d]" % ((",%d],[" % trace.index).join(map(name, nodes)), trace.index)
            if made and nodes else "",
            ",".join(map(name, trace.dropped)), trace.capacity_events,
        )


def render_trace(traces: Iterable[RoundTrace]) -> str:
    """Line-delimited JSON in trace schema 5, stable byte-for-byte for
    identical runs: the header {"kind":"schema","version":5,"config":...},
    the first round's config_texts (null for no rounds), then per round its
    slot records in time order and its round record; a record's place in
    the file is its sequence number. Key order is fixed. A slot record has
    kind (its type), initiator (see _slot_line), awake only when not the
    round's active set (the received ids of its sync slot, its first
    slot), missed and its type's fields; its round and phase are the next
    round record's. Its start is its round's t for the round's first slot,
    then each slot starts where the one before it ends: the first after
    the header's SYNC_SLOT_LENGTH, every other after its SLOT_LENGTH. A
    round record has the keys of _ROUND_HEAD, radio_on only when its
    (node_ids, radio_totals) row differs by value from the previous
    round's, then the keys of _ROUND_TAIL; its mode is the header's.
    traces may be any iterable of rounds. A slot that received on a node it
    was not awake on and a round of another mode than the first cannot be
    written: SimulationError.

    The text grows by += in chunks of 64 KiB plus a sixteenth of its length:
    CPython resizes it in place, so the peak is about one text, and where a
    trace or profile function makes each += copy, the copies stay linear.
    """
    text, pending, size = "", [], 0
    for piece in _trace_pieces(traces):
        pending.append(piece)
        size += len(piece)
        if size > (1 << 16) + (len(text) >> 4):
            text += "".join(pending)
            pending, size = [], 0
    text += "".join(pending)
    return text


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

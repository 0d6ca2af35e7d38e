"""Whole-run driver: builds the world, loops rounds, serializes traces.

A run is fully determined by (topology, config, seed): the same triple
produces byte-identical trace output. All randomness flows through one rng
seeded once; drifts are drawn first (non-sink nodes in id order, only when
the configured range is not empty), then each round consumes draws in slot
order as described in the engine.

Traces are written in trace schema 5, a round at a time in its layout's
order (sync slot, request block, data slots) and in the key order
render_trace lists; only the header's config goes through json. A record
writes nothing its place, its round record, the header or its own fields
say: no sequence number, slot start, round, phase or mode, no request
winner or announce source (its initiator), no data slot initiator that is
its owner. A slot's kind is its type. A slot writes the awake ids that
missed its flood in place of its received ids, and its awake ids only when
they are not the round's active set (the sync slot's received ids), so
always in the sync slot. A round writes radio_on only when the row's values
differ from the previous round's; a reader carries the last row forward.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Iterable, Iterator, TextIO

from .config import SimConfig, config_texts
from .core import (
    PHASE_STABILIZATION,
    advance_phase,
    last_round_start,
    sink_build_sync,
    update_rr_dynamics,
)
from .engine import DataSlot, RoundTrace, SlotTrace, SyncSlot, World, execute_round
from .errors import ConfigError, SimulationError, TopologyError
from .forwarding import data_participants
from .glossy import Memo, ids_of
from .metrics import RunMetrics
from .topology import Topology


class RunResult:
    """A run's kept round traces (none when streamed), metrics and final world."""

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


def rounds(world: World, metrics: RunMetrics) -> Iterator[RoundTrace]:
    """Run the world's rounds until the configured duration is reached and
    yield each once it is folded into metrics; between rounds the caller
    may read the live world. Each step is looked up in this module at its
    call, so a wrapper put here sees every round."""
    config, schedule = world.config, world.schedule
    while world.now < config.duration:
        advance_phase(schedule, config, world.now)
        trace = execute_round(world, sink_build_sync(schedule, config, world.now))
        if trace.phase == PHASE_STABILIZATION:
            update_rr_dynamics(schedule, trace.slots, config)
        metrics.accumulate(trace)
        yield trace


def run_simulation(config: SimConfig, topology: Topology) -> RunResult:
    """Run every round of config on topology, keeping each round's trace."""
    config.validate()
    world = build_world(config, topology)
    metrics = RunMetrics(node_ids=list(topology.nodes), sink=config.sink_node_id)
    return RunResult(list(rounds(world, metrics)), metrics, world)


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


def _json(value: int | None) -> int | str:
    """An int-or-None field for a %s template: None is null."""
    return "null" if value is None else value


def _slot_line(slot: SlotTrace, awake: str, missed: str) -> str:
    """The record of a request block slot, or of the sync slot, from
    _SLOT_HEAD's values and its kind's fields. Int fields go through %d,
    int-or-None fields through _json and bool fields through a conditional,
    never a lookup: True == 1 as a key."""
    kind = slot.kind
    head = '"initiator":%s,' % _json(slot.initiator), awake, missed
    if kind == "request":
        return _REQUEST % (*head, slot.contender_count, "true" if slot.delivered else "false")
    if kind == "reply":
        return _REPLY % (
            *head, _json(slot.requester), _json(slot.assigned_slot),
            "true" if slot.new_assignment else "false", "true" if slot.delivered else "false",
            ',"capacity_exceeded":true' if slot.capacity_exceeded else "",
        )
    if kind == "announce":
        return _ANNOUNCE % (*head, _json(slot.announced_distance), _json(slot.slot_id))
    return _SYNC % head


def _trace_pieces(traces: Iterable[RoundTrace]) -> Iterator[str]:
    """The JSONL text in pieces: the header line, then one per round, its
    slot records and round record joined. The header's config is the first
    round's, so the first round is taken before the header is written.

    A round's records follow its layout: the sync slot, which writes awake
    and whose received mask is the round's active set, n_rr request block
    slots, none a sync or data slot, through _slot_line, and n_data data slots, each
    slot_id its place in the data block; else SimulationError.

    Each distinct mask's ids, node id's text, (node_ids, radio_totals)
    row's pairs and (sources, new_sequences)'s source texts are made once
    per call, each in a glossy.Memo. These and the repeated-row test compare
    values, not objects, so a generator may free its rounds as rendered.
    """
    name = Memo(str).__getitem__
    text = Memo(lambda mask: ",".join(map(name, ids_of(mask)))).__getitem__
    radio_part = Memo(
        lambda row: '"radio_on":{%s},' % ",".join(map('"%d":%d'.__mod__, zip(*row)))
    ).__getitem__
    awake_part = Memo(lambda mask: '"awake":[%s],' % text(mask)).__getitem__
    source_texts = Memo(lambda key: [name(n) for n in key[0] for _ in range(key[1])]).__getitem__
    silent = '"initiator":null,'  # a data slot that received on nobody

    def missed(trace: RoundTrace, place: int, awake: int, received: int) -> str:
        """The ids of a slot's awake mask that its received mask lacks."""
        missed_mask = awake ^ received  # awake & ~received if no stray bit
        if missed_mask & received:  # a stray receiver the schema cannot write
            raise SimulationError(f"round {trace.index} slot {place} received off its awake set")
        return text(missed_mask)

    rounds = iter(traces)
    first = next(rounds, None)
    config = None if first is None else dict(config_texts(first.config))
    yield _HEADER % json.dumps(config, separators=(",", ":"))
    if first is None:
        return
    mode, last_row = first.config.mode, None  # the header's mode
    for trace in chain((first,), rounds):
        slots, first_data = trace.slots, 1 + trace.n_rr  # the place of data slot 0
        if trace.config.mode != mode:  # a round record does not say its mode
            raise SimulationError(f"round {trace.index} runs {trace.config.mode}, not {mode}")
        if (len(slots) != first_data + trace.n_data or not isinstance(slots[0], SyncSlot)
                or any(map(isinstance, slots[1:first_data], repeat((SyncSlot, DataSlot))))
                or not all(map(isinstance, slots[first_data:], repeat(DataSlot)))):
            raise SimulationError(f"round {trace.index}'s slots do not follow its header's layout")
        active = slots[0].received_mask  # the sync slot's, which always writes awake
        lines = []
        append = lines.append
        for place, slot in enumerate(slots[:first_data]):
            awake = slot.awake_mask
            append(_slot_line(slot, "" if place and awake == active else awake_part(awake),
                              missed(trace, place, awake, slot.received_mask)))
        for index, slot in enumerate(slots[first_data:]):
            awake, received = slot.awake_mask, slot.received_mask
            payload_len, gen_round = slot.payload_len, slot.gen_round
            append(
                f'{{"kind":"data",{"" if received else silent}'
                f'{"" if awake == active else awake_part(awake)}"missed":['
                f'{"" if received == awake else missed(trace, first_data + index, awake, received)}'
                f'],"slot_id":{index},"owner":{slot.owner},'
                f'"payload_len":{"null" if payload_len is None else payload_len},'
                f'"gen_round":{"null" if gen_round is None else gen_round},'
                f'"delivered":{"true" if slot.delivered else "false"}}}\n'
            )
        append(_ROUND_HEAD % (trace.index, trace.t_start, trace.phase, trace.round_period,
                              trace.n_rr, trace.n_data))
        row = trace.node_ids, trace.radio_totals
        if row != last_row:  # by value: equal rows are often distinct objects
            append(radio_part(row))
            last_row = row
        made = trace.new_sequences  # generated: made [node,round] pairs per source in turn
        append(_ROUND_TAIL % (
            ",".join(map("[%d,%d]".__mod__, trace.new_assignments)),
            text(trace.joined), text(trace.desynced), text(trace.bootstrap),
            "[%s,%d]" % ((",%d],[" % trace.index).join(source_texts((trace.sources, made))),
                         trace.index) if made and trace.sources else "",
            ",".join(map(name, trace.dropped)), trace.capacity_events,
        ))
        yield "".join(lines)


def render_trace(traces: Iterable[RoundTrace]) -> str:
    """Line-delimited JSON in trace schema 5, stable byte-for-byte for
    identical runs: the header {"kind":"schema","version":5,"config":...},
    the first round's config_texts (null for no rounds), then per round its
    slot records in time order and its round record; a record's place in
    the file is its sequence number. Key order is fixed. A slot record has
    kind (its type), initiator (a data slot's only as null, when it received
    on nobody), awake only when not the round's active set (the received
    ids of its sync slot, its first slot), missed and its type's fields;
    its round and phase are the next round record's. Its start is its
    round's t for the first slot; each later slot starts where the one
    before it ends, the first after the header's SYNC_SLOT_LENGTH, every
    other after its SLOT_LENGTH. A round record has the keys of _ROUND_HEAD,
    radio_on only when its (node_ids, radio_totals) row differs by value
    from the previous round's, then the keys of _ROUND_TAIL; its mode is
    the header's. traces may be any iterable of rounds. A slot that
    received on a node it was not awake on, a round of another mode than
    the first and a round whose slots are not laid out as its header says
    cannot be written: SimulationError.

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
    """Stream render_trace's text into an open text file, one round per write."""
    file.writelines(_trace_pieces(traces))


def forwarder_table(world: World) -> list[dict]:
    """Forwarder sets per assigned slot, among the nodes synced now."""
    announced, awake = world.announced_slots, world.all_nodes & ~world.bootstrap
    return [
        {"slot": slot_id, "owner": owner, "distance": announced.get(slot_id, (None,))[0],
         "forwarders": ids_of(data_participants(awake, announced, slot_id))}
        for slot_id, owner in enumerate(world.schedule.slot_owner)
    ]

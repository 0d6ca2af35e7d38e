"""Slot-stepped execution of one bus round.

The engine owns all mutable run state (node states, sink schedule, rng) and
turns one sync header into a RoundTrace describing every slot: who was
awake, who received, what was assigned and what was delivered.

Radio accounting is slot granular. A node awake for a slot pays the full
slot length whether it initiates, relays or just listens; a node that skips
a slot pays nothing. A node in bootstrap keeps its radio on for the whole
round, except in the round where it catches the sync flood, from which
point on it is charged like any synced node. The charge is folded once per
round from the finished slots: slots that wake the same nodes share one
awake list object, charged slot length times the slots it was awake for.

Participant state is computed once per round: the sync flood's mask, one
awake list and mask for the request block and every data slot that wakes
all active nodes, and a slot -> forwarders index for forwarder selection.

Determinism: all iteration over node sets happens in sorted node id order,
and a single rng instance drives first the contention draw of a request
slot (only when two or more nodes contend) and then the loss draws of that
slot's flood (only when the loss probability is nonzero).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .config import SimConfig
from .core import NodeState, SinkSchedule, SyncHeader, contend, sink_assign
from .errors import SimulationError, SlotCapacityError
from .forwarding import apply_announce, build_announce, data_participants
from .forwarding import forwarder_index, refresh_sink_distances
from .glossy import FloodOutcome, flood
from .topology import Topology


@dataclass
class SlotTrace:
    """One slot event. Unused fields stay at their defaults."""

    t: int
    kind: str  # sync | request | reply | announce | data
    awake: list[int]
    received: list[int]
    initiator: int | None = None
    contender_count: int = 0
    winner: int | None = None
    delivered: bool = False
    requester: int | None = None
    assigned_slot: int | None = None
    new_assignment: bool = False
    capacity_exceeded: bool = False
    source: int | None = None
    announced_distance: int | None = None
    slot_id: int | None = None
    owner: int | None = None
    payload_len: int | None = None
    gen_round: int | None = None


@dataclass
class RoundTrace:
    """Everything that happened in one round."""

    index: int
    t_start: int
    phase: str
    mode: str
    round_period: int
    n_rr: int
    n_data: int
    slots: list[SlotTrace]
    radio_on: dict[int, int]
    request_outcomes: list[int | None]
    new_assignments: list[tuple[int, int]]  # (slot, owner)
    joined: list[int]
    desynced: list[int]
    bootstrap: list[int]
    generated: list[tuple[int, int]]  # (node, round generated)
    dropped: list[int]
    capacity_events: int


@dataclass
class World:
    """All mutable state of a run."""

    topology: Topology
    config: SimConfig
    schedule: SinkSchedule
    nodes: dict[int, NodeState]
    rng: random.Random
    now: int = 0
    round_index: int = 0
    announced_slots: dict[int, int] = field(default_factory=dict)  # slot -> distance

    @property
    def sink(self) -> int:
        return self.config.sink_node_id

    def node_order(self) -> list[int]:
        return sorted(self.topology.nodes)


def _generate_packets(world: World, trace_generated, trace_dropped) -> None:
    cfg = world.config
    for node_id in world.node_order():
        if node_id == world.sink:
            continue
        state = world.nodes[node_id]
        while state.next_sequence * cfg.ipi <= world.now:
            payload = f"{node_id}:{state.next_sequence}".encode("ascii")
            if len(payload) > cfg.max_payload_len:
                raise SimulationError(
                    f"generated payload exceeds MAX_PAYLOAD_LEN {cfg.max_payload_len}"
                )
            if len(state.queue) >= cfg.queue_capacity:
                state.queue.popleft()
                trace_dropped.append(node_id)
            state.queue.append((world.round_index, payload))
            trace_generated.append((node_id, world.round_index))
            state.next_sequence += 1


def _radio_on(
    topology: Topology,
    config: SimConfig,
    slots: list[SlotTrace],
    bootstrap: list[int],
    round_period: int,
) -> dict[int, int]:
    """Radio-on time per node for one finished round; slots[0] is sync."""
    sync, *rest = slots
    lists = {id(slot.awake): slot.awake for slot in rest}
    charges = [(sync.awake, config.sync_slot_length), (bootstrap, round_period)]
    for key, count in Counter(id(slot.awake) for slot in rest).items():
        charges.append((lists[key], count * config.slot_length))
    radio = dict.fromkeys(topology.nodes, 0)
    for awake, cost in charges:
        for node_id in awake:
            radio[node_id] += cost
    return radio


def execute_round(world: World, header: SyncHeader) -> RoundTrace:
    """Run one full round and return its trace.

    The caller is responsible for phase bookkeeping (advancing the phase
    clock, the operational round counter and the request block dynamics).
    """
    cfg = world.config
    topo = world.topology
    sched = world.schedule
    nodes = world.nodes
    rng = world.rng
    sink = world.sink
    fs_mode = cfg.forwarder_selection
    group = cfg.rr_group_size
    if header.n_rr % group != 0:
        raise SimulationError(
            f"header announces {header.n_rr} request slots, not a multiple of {group}"
        )
    if header.n_data > len(sched.slot_owner):
        raise SimulationError(f"data slot {len(sched.slot_owner)} has no owner")

    t = world.now
    channel = (cfg.loss_probability, rng, cfg.max_payload_len)
    generated: list[tuple[int, int]] = []
    dropped: list[int] = []
    _generate_packets(world, generated, dropped)

    # Clock guard: a synced node whose accumulated offset left the guard
    # window cannot hit the sync slot any more and falls back to bootstrap.
    desynced: list[int] = []
    for node_id in world.node_order():
        if node_id == sink:
            continue
        state = nodes[node_id]
        if not state.bootstrap and not state.clock.check_guard(t):
            state.bootstrap = True
            desynced.append(node_id)

    slots: list[SlotTrace] = []

    # Sync slot. Synced nodes relay; bootstrap nodes have their radio on
    # anyway, so they receive (without relaying) and join on success.
    synced_ids = [n for n in world.node_order() if not nodes[n].bootstrap or n == sink]
    outcome = flood(topo, sink, b"", topo.mask_of(synced_ids), *channel)
    active: set[int] = {sink}
    joined: list[int] = []
    for node_id in world.node_order():
        if node_id == sink:
            continue
        state = nodes[node_id]
        if not outcome.received(node_id):
            continue
        if state.bootstrap:
            state.bootstrap = False
            joined.append(node_id)
        state.clock.apply_sync(t)
        active.add(node_id)
    sync_awake = sorted(set(synced_ids) | set(joined))
    slots.append(SlotTrace(t, "sync", sync_awake, outcome.received_nodes(), sink))
    t += cfg.sync_slot_length

    def slot(kind: str, awake: list[int], fo: FloodOutcome | None, **info) -> None:
        """Append one slot at t and advance t. A slot that flooded lists
        the flood's awake receivers: a node whose radio is off can sit next
        to a transmitter and still hear nothing, and in every slot after
        sync the flood's participants are exactly the awake nodes."""
        nonlocal t
        if fo is None:
            slots.append(SlotTrace(t, kind, awake, [], **info))
        else:
            slots.append(SlotTrace(t, kind, awake, fo.heard, fo.initiator, **info))
        t += cfg.slot_length

    # Request block. Every active node is awake for every slot of the
    # block: requests and replies are network wide floods and any node may
    # have to relay them. All these slots share one awake list and mask.
    request_outcomes: list[int | None] = []
    new_assignments: list[tuple[int, int]] = []
    capacity_events = 0
    awake = sorted(active)
    awake_mask = topo.mask_of(awake)
    capacity = cfg.data_slot_capacity()
    for _ in range(header.n_rr // group):
        contenders = [
            n for n in awake if n != sink and nodes[n].my_slot is None
        ]
        winner = contend(contenders, cfg.contention_policy, rng)
        fo = None if winner is None else flood(topo, winner, b"", awake_mask, *channel)
        heard = winner if fo is not None and fo.received(sink) else None
        request_outcomes.append(heard)
        slot(
            "request", awake, fo,
            contender_count=len(contenders), winner=winner, delivered=heard is not None,
        )

        # reply slot: the sink grants the heard requester a data slot
        fo, info, announce_source = None, {}, None
        if heard is not None:
            slots_before = len(sched.slot_owner)
            try:
                assigned = sink_assign(sched, heard, capacity)
            except SlotCapacityError:
                capacity_events += 1
                info = dict(requester=heard, capacity_exceeded=True)
            else:
                fo = flood(topo, sink, b"", awake_mask, *channel)
                if fs_mode:
                    refresh_sink_distances(nodes, fo)
                new = len(sched.slot_owner) > slots_before
                if new:
                    new_assignments.append((assigned, heard))
                delivered = fo.received(heard)
                if delivered:
                    nodes[heard].my_slot = assigned
                    if fs_mode:
                        announce_source = heard
                info = dict(
                    requester=heard, assigned_slot=assigned,
                    new_assignment=new, delivered=delivered,
                )
        slot("reply", awake, fo, **info)

        # announce slot (forwarder selection only)
        if fs_mode:
            fo, info, announce = None, {}, None
            if announce_source is not None:
                state = nodes[announce_source]
                announce = build_announce(state, state.my_slot)
            if announce is not None:
                fo = flood(topo, announce_source, b"", awake_mask, *channel)
                for node_id in awake:
                    apply_announce(nodes[node_id], announce, fo.hops.get(node_id))
                world.announced_slots[announce.slot] = announce.distance
                info = dict(
                    source=announce_source,
                    announced_distance=announce.distance,
                    slot_id=announce.slot,
                )
            slot("announce", awake, fo, **info)

    # Data slots. Slot indices are dense and the header check above gave
    # every index below n_data an owner; the owner floods the oldest queued
    # packet, or an empty keepalive when its queue is dry. An absent owner
    # leaves the slot silent but its members still listened.
    forwarders = forwarder_index(awake, nodes, world.announced_slots) if header.n_data else {}
    for slot_id in range(header.n_data):
        owner = sched.slot_owner[slot_id]
        members = data_participants(awake, forwarders, slot_id, owner, sink)
        fo, info = None, {}
        owner_state = nodes[owner]
        if owner in active and owner_state.my_slot == slot_id:
            queue = owner_state.queue
            gen_round, payload = queue.popleft() if queue else (None, b"")
            mask = awake_mask if members is awake else topo.mask_of(members)
            fo = flood(topo, owner, payload, mask, *channel)
            info = dict(
                payload_len=len(payload),
                gen_round=gen_round,
                delivered=fo.received(sink) and gen_round is not None,
            )
        slot("data", members, fo, slot_id=slot_id, owner=owner, **info)

    if t > world.now + header.round_period:
        raise SimulationError(
            f"round {world.round_index} overflows its period: "
            f"{t - world.now} > {header.round_period}"
        )

    # Nodes still in bootstrap at the end of the round listened through the
    # whole round.
    still_bootstrap = [
        n for n in world.node_order() if nodes[n].bootstrap and n != sink
    ]

    sched.assert_injective()
    trace = RoundTrace(
        index=world.round_index,
        t_start=world.now,
        phase=sched.phase,
        mode=cfg.mode,
        round_period=header.round_period,
        n_rr=header.n_rr,
        n_data=header.n_data,
        slots=slots,
        radio_on=_radio_on(topo, cfg, slots, still_bootstrap, header.round_period),
        request_outcomes=request_outcomes,
        new_assignments=new_assignments,
        joined=joined,
        desynced=desynced,
        bootstrap=still_bootstrap,
        generated=generated,
        dropped=dropped,
        capacity_events=capacity_events,
    )
    world.now += header.round_period
    world.round_index += 1
    return trace

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

Participant state comes from two walks over the nodes per round, one
before the sync flood and one after it. The sync slot's receivers are the
round's active list, which is also the awake list (and mask) of the request
block and of every data slot that wakes all active nodes. The sync slot is
awake on that same list unless a synced node missed the sync, and a flood
that reaches every awake node lists the slot's awake list as its receivers.
A slot -> forwarders index serves forwarder selection.

Determinism: all iteration over nodes follows world.nodes, which is in
ascending node id order, and a single rng instance drives first the
contention draw of a request slot (only when two or more nodes contend) and
then the loss draws of that slot's flood (only when the loss probability is
nonzero).
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
    nodes: dict[int, NodeState]  # inserted in ascending node id order
    rng: random.Random
    now: int = 0
    round_index: int = 0
    announced_slots: dict[int, int] = field(default_factory=dict)  # slot -> distance


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
    radio = dict.fromkeys(topology.nodes, 0)
    radio.update(dict.fromkeys(sync.awake, config.sync_slot_length))
    radio.update(dict.fromkeys(bootstrap, round_period))  # disjoint from sync.awake
    totals = {round_period: round_period}  # one int object per distinct total
    for key, count in Counter(id(slot.awake) for slot in rest).items():
        cost = count * config.slot_length
        for node_id in lists[key]:
            on = radio[node_id] + cost
            radio[node_id] = totals.setdefault(on, on)
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
    sink = cfg.sink_node_id
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
    desynced: list[int] = []
    synced: list[int] = []

    # Walk 1, before the sync flood. Every node but the sink generates its
    # due packets, and a synced node whose accumulated offset left the
    # guard window cannot hit the sync slot any more and falls back to
    # bootstrap. The sink is never in bootstrap.
    for node_id, state in nodes.items():
        if node_id != sink:
            while state.next_sequence * cfg.ipi <= t:
                payload = f"{node_id}:{state.next_sequence}".encode("ascii")
                if len(payload) > cfg.max_payload_len:
                    raise SimulationError(
                        f"generated payload exceeds MAX_PAYLOAD_LEN {cfg.max_payload_len}"
                    )
                if len(state.queue) >= cfg.queue_capacity:
                    state.queue.popleft()
                    dropped.append(node_id)
                state.queue.append((world.round_index, payload))
                generated.append((node_id, world.round_index))
                state.next_sequence += 1
            if not state.bootstrap and not state.clock.check_guard(t):
                state.bootstrap = True
                desynced.append(node_id)
        if not state.bootstrap:
            synced.append(node_id)

    # Sync slot. Synced nodes relay; bootstrap nodes have their radio on
    # anyway, so they receive (without relaying) and join on success.
    outcome = flood(topo, sink, b"", topo.mask_of(synced), *channel)

    # Walk 2, after the sync flood. Every receiver, the sink included, is
    # active for the round; a node still in bootstrap listens through the
    # whole round; a synced node that missed the sync sits the round out.
    active: list[int] = []
    joined: list[int] = []
    missed: list[int] = []
    still_bootstrap: list[int] = []
    for node_id, state in nodes.items():
        if outcome.reached >> node_id & 1:
            if state.bootstrap:
                state.bootstrap = False
                joined.append(node_id)
            state.clock.apply_sync(t)
            active.append(node_id)
        elif state.bootstrap:
            still_bootstrap.append(node_id)
        else:
            missed.append(node_id)
    sync_awake = sorted(active + missed) if missed else active
    slots: list[SlotTrace] = [SlotTrace(t, "sync", sync_awake, active, sink)]
    t += cfg.sync_slot_length

    def slot(kind: str, awake: list[int], fo: FloodOutcome | None, **info) -> None:
        """Append one slot at t and advance t. A flooded slot lists the
        flood's receivers among its participants, the awake nodes: heard is
        a subset of awake, so a heard as long as awake is awake itself."""
        nonlocal t
        if fo is None:
            slots.append(SlotTrace(t, kind, awake, [], **info))
        else:
            heard = awake if len(fo.heard) == len(awake) else fo.heard
            slots.append(SlotTrace(t, kind, awake, heard, fo.initiator, **info))
        t += cfg.slot_length

    # Request block. Every active node is awake for every slot of the
    # block: requests and replies are network wide floods and any node may
    # have to relay them. All these slots share the active list, which is
    # also the sync slot's received list, and its mask.
    request_outcomes: list[int | None] = []
    new_assignments: list[tuple[int, int]] = []
    capacity_events = 0
    awake_mask = topo.mask_of(active)
    capacity = cfg.data_slot_capacity()
    for _ in range(header.n_rr // group):
        contenders = [
            n for n in active if n != sink and nodes[n].my_slot is None
        ]
        winner = contend(contenders, cfg.contention_policy, rng)
        fo = None if winner is None else flood(topo, winner, b"", awake_mask, *channel)
        heard = winner if fo is not None and fo.received(sink) else None
        request_outcomes.append(heard)
        slot(
            "request", active, fo,
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
        slot("reply", active, fo, **info)

        # announce slot (forwarder selection only)
        if fs_mode:
            fo, info, announce = None, {}, None
            if announce_source is not None:
                state = nodes[announce_source]
                announce = build_announce(state, state.my_slot)
            if announce is not None:
                fo = flood(topo, announce_source, b"", awake_mask, *channel)
                for node_id in active:
                    apply_announce(nodes[node_id], announce, fo.hops.get(node_id))
                world.announced_slots[announce.slot] = announce.distance
                info = dict(
                    source=announce_source,
                    announced_distance=announce.distance,
                    slot_id=announce.slot,
                )
            slot("announce", active, fo, **info)

    # Data slots. Slot indices are dense and the header check above gave
    # every index below n_data an owner; the owner floods the oldest queued
    # packet, or an empty keepalive when its queue is dry. An absent owner
    # leaves the slot silent but its members still listened.
    forwarders = forwarder_index(active, nodes, world.announced_slots) if header.n_data else {}
    for slot_id in range(header.n_data):
        owner = sched.slot_owner[slot_id]
        members = data_participants(active, forwarders, slot_id, owner, sink)
        fo, info = None, {}
        owner_state = nodes[owner]
        if awake_mask >> owner & 1 and owner_state.my_slot == slot_id:
            queue = owner_state.queue
            gen_round, payload = queue.popleft() if queue else (None, b"")
            mask = awake_mask if members is active else topo.mask_of(members)
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

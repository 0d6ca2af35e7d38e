"""Slot-stepped execution of one bus round.

The engine owns all mutable run state (node states, sink schedule, rng) and
turns one sync header into a RoundTrace describing every slot: who was
awake, who received, what was assigned and what was delivered.

Radio accounting is slot granular. A node awake for a slot pays the full
slot length whether it initiates, relays or just listens; a node that skips
a slot pays nothing. A node in bootstrap keeps its radio on for the whole
round, except in the round where it catches the sync flood, from which
point on it is charged like any synced node. The charge is folded once per
round from the finished slots: slots with equal awake masks are charged
together, slot length times the number of such slots.

A slot stores who was awake and who received as two node masks (bit n =
node n), the ones the floods already compute. Participant state comes from
two walks over the nodes per round. Walk 1, before the sync flood, puts
back in bootstrap every synced node whose worst-case clock offset since its
last sync, (t - last_sync) * |drift_ppm| * 1e-6 microseconds, is strictly
over the config's guard time. Walk 2, after it, sets last_sync to the round
start on every receiver. The sync flood's reached mask is the sync slot's
received mask and the round's active set: the awake mask of the request
block and of every data slot that wakes all active nodes. The sync slot is
also awake on the synced nodes that missed the sync. A flooded slot
receives on the flood's reached mask within its awake mask. Forwarder
selection keeps one forwarder mask per announced slot in
world.announced_slots, written once by the slot's announce flood. A round's
new assignments and capacity events are read from its reply slots. Radio
totals are one tuple per round, aligned with the run's sorted node id
tuple.

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
from .forwarding import apply_announce, data_participants, refresh_sink_distances
from .glossy import FloodOutcome, flood, ids_of
from .topology import Topology


@dataclass(slots=True)
class SlotTrace:
    """One slot event, its node sets as masks. Unused fields stay at their
    defaults."""

    t: int
    kind: str  # sync | request | reply | announce | data
    awake_mask: int
    received_mask: int
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

    @property
    def awake(self) -> list[int]:
        return ids_of(self.awake_mask)

    @property
    def received(self) -> list[int]:
        return ids_of(self.received_mask)


@dataclass(slots=True)
class RoundTrace:
    """Everything that happened in one round. radio_totals[i] is the
    radio-on time of node node_ids[i]."""

    index: int
    t_start: int
    phase: str
    mode: str
    round_period: int
    n_rr: int
    n_data: int
    slots: list[SlotTrace]
    node_ids: tuple[int, ...]
    radio_totals: tuple[int, ...]
    joined: list[int]
    desynced: list[int]
    bootstrap: list[int]
    generated: list[tuple[int, int]]  # (node, round generated)
    dropped: list[int]

    @property
    def radio_on(self) -> dict[int, int]:
        return dict(zip(self.node_ids, self.radio_totals))

    @property
    def new_assignments(self) -> list[tuple[int, int]]:
        """(slot, owner) of every slot the sink granted afresh."""
        return [(s.assigned_slot, s.requester) for s in self.slots if s.new_assignment]

    @property
    def capacity_events(self) -> int:
        return sum(s.capacity_exceeded for s in self.slots)


@dataclass
class World:
    """All mutable state of a run."""

    topology: Topology
    config: SimConfig
    schedule: SinkSchedule
    nodes: dict[int, NodeState]  # inserted in ascending node id order
    node_ids: tuple[int, ...]  # the keys of nodes
    rng: random.Random
    now: int = 0
    round_index: int = 0
    # slot -> (announced distance, forwarder mask)
    announced_slots: dict[int, tuple[int, int]] = field(default_factory=dict)
    radio_rows: dict[tuple, tuple] = field(default_factory=dict)  # shares equal totals


def _radio_totals(
    world: World,
    slots: list[SlotTrace],
    active: list[int],
    missed: list[int],
    bootstrap: list[int],
    round_period: int,
) -> tuple[int, ...]:
    """Radio-on time per node for one finished round, in node_ids order.
    slots[0] is sync, awake on active and missed; its received mask is the
    active mask, so slots awake on it reuse the active list."""
    sync, *rest = slots
    cfg = world.config
    radio = dict.fromkeys(world.node_ids, 0)
    radio.update(dict.fromkeys(active, cfg.sync_slot_length))
    radio.update(dict.fromkeys(missed, cfg.sync_slot_length))
    radio.update(dict.fromkeys(bootstrap, round_period))  # disjoint from both
    totals = {round_period: round_period}  # one int object per distinct total
    for mask, count in Counter(slot.awake_mask for slot in rest).items():
        cost = count * cfg.slot_length
        for node_id in active if mask == sync.received_mask else ids_of(mask):
            on = radio[node_id] + cost
            radio[node_id] = totals.setdefault(on, on)
    row = tuple(radio.values())
    return world.radio_rows.setdefault(row, row)


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
    guard = cfg.glossy_guard_time
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
            if state.drift_ppm and not state.bootstrap and (
                (t - state.last_sync) * abs(state.drift_ppm) * 1e-6 > guard
            ):
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
            state.last_sync = t
            active.append(node_id)
        elif state.bootstrap:
            still_bootstrap.append(node_id)
        else:
            missed.append(node_id)
    awake_mask = outcome.reached  # the active nodes
    sync_awake = awake_mask | topo.mask_of(missed) if missed else awake_mask
    slots: list[SlotTrace] = [SlotTrace(t, "sync", sync_awake, awake_mask, sink)]
    t += cfg.sync_slot_length

    def slot(kind: str, awake: int, fo: FloodOutcome | None, **info) -> None:
        """Append one slot at t and advance t. A flooded slot receives on
        the flood's receivers among the awake nodes, its participants."""
        nonlocal t
        if fo is None:
            slots.append(SlotTrace(t, kind, awake, 0, **info))
        else:
            slots.append(SlotTrace(t, kind, awake, fo.reached & awake, fo.initiator, **info))
        t += cfg.slot_length

    # Request block. Every active node is awake for every slot of the
    # block: requests and replies are network wide floods and any node may
    # have to relay them.
    capacity = cfg.data_slot_capacity()
    for _ in range(header.n_rr // group):
        contenders = [
            n for n in active if n != sink and nodes[n].my_slot is None
        ]
        winner = contend(contenders, cfg.contention_policy, rng)
        fo = None if winner is None else flood(topo, winner, b"", awake_mask, *channel)
        heard = winner if fo is not None and fo.received(sink) else None
        slot(
            "request", awake_mask, fo,
            contender_count=len(contenders), winner=winner, delivered=heard is not None,
        )

        # reply slot: the sink grants the heard requester a data slot
        fo, info, announce_source = None, {}, None
        if heard is not None:
            slots_before = len(sched.slot_owner)
            try:
                assigned = sink_assign(sched, heard, capacity)
            except SlotCapacityError:
                info = dict(requester=heard, capacity_exceeded=True)
            else:
                fo = flood(topo, sink, b"", awake_mask, *channel)
                if fs_mode:
                    refresh_sink_distances(nodes, fo)
                delivered = fo.received(heard)
                if delivered:
                    nodes[heard].my_slot = assigned
                    if fs_mode:
                        announce_source = heard
                info = dict(
                    requester=heard, assigned_slot=assigned,
                    new_assignment=len(sched.slot_owner) > slots_before,
                    delivered=delivered,
                )
        slot("reply", awake_mask, fo, **info)

        # announce slot (forwarder selection only). The delivered reply set
        # the source's sink distance, as the source relayed it. The source
        # now has a slot and never contends again, so each slot is
        # announced at most once.
        if fs_mode:
            fo, info = None, {}
            if announce_source is not None:
                distance = nodes[announce_source].sink_distance
                fo = flood(topo, announce_source, b"", awake_mask, *channel)
                world.announced_slots[assigned] = (
                    distance, apply_announce(nodes, fo, distance)
                )
                info = dict(
                    source=announce_source, announced_distance=distance, slot_id=assigned
                )
            slot("announce", awake_mask, fo, **info)

    # Data slots. Slot indices are dense and the header check above gave
    # every index below n_data an owner; the owner floods the oldest queued
    # packet, or an empty keepalive when its queue is dry. An absent owner
    # leaves the slot silent but its members still listened.
    for slot_id in range(header.n_data):
        owner = sched.slot_owner[slot_id]
        members = data_participants(awake_mask, world.announced_slots, slot_id, owner, sink)
        fo, info = None, {}
        owner_state = nodes[owner]
        if awake_mask >> owner & 1 and owner_state.my_slot == slot_id:
            queue = owner_state.queue
            gen_round, payload = queue.popleft() if queue else (None, b"")
            fo = flood(topo, owner, payload, members, *channel)
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
        node_ids=world.node_ids,
        radio_totals=_radio_totals(
            world, slots, active, missed, still_bootstrap, header.round_period
        ),
        joined=joined,
        desynced=desynced,
        bootstrap=still_bootstrap,
        generated=generated,
        dropped=dropped,
    )
    world.now += header.round_period
    world.round_index += 1
    return trace

"""Slot-stepped execution of one bus round.

The engine owns all mutable run state (node states, sink schedule, rng) and
turns one sync header into a RoundTrace describing every slot: who was
awake, who received, what was assigned and what was delivered.

Radio accounting is slot granular. A node awake for a slot pays the full
slot length whether it initiates, relays or just listens; a node that skips
a slot pays nothing. A node in bootstrap keeps its radio on for the whole
round, except in the round where it catches the sync flood, from which
point on it is charged like any synced node. So a round's charge is a count
of slots per node (_radio_totals): an active node pays the sync slot, the
request block and every data slot that wakes it.

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
selection keeps sink distances as hop masks in world.distances; a slot's
announce flood writes its forwarder mask into world.announced_slots and
counts the slot in world.wake_counts for each node it wakes. A round's
new assignments and capacity events are read from its reply slots. Every
source generates sequence s at s * IPI, so one counter, world.next_sequence,
serves them all. A queued packet is its round and its "node:seq" length.

Determinism: all iteration over nodes follows world.nodes, which is in
ascending node id order, and a single rng instance drives first the
contention draw of a request slot (only when two or more nodes contend) and
then the loss draws of that slot's flood (only when the loss probability is
nonzero).
"""

from __future__ import annotations

import random
from collections import Counter

from .config import SimConfig
from .core import NodeState, SinkSchedule, SyncHeader, contend, sink_assign
from .errors import SimulationError, SlotCapacityError
from .forwarding import apply_announce, data_participants, refresh_sink_distances
from .glossy import MEMO_CAP, FloodOutcome, flood, ids_of
from .topology import Topology


class SlotTrace:
    """One slot event, its node sets as masks. Unused fields stay at their
    defaults. Built for every slot, so __init__ stores one field per
    statement: grouped tuple assignment made it about 4% slower."""

    __slots__ = (
        "t", "kind", "awake_mask", "received_mask", "initiator", "contender_count", "winner",
        "delivered", "requester", "assigned_slot", "new_assignment", "capacity_exceeded",
        "source", "announced_distance", "slot_id", "owner", "payload_len", "gen_round",
    )

    def __init__(
        self, t: int, kind: str, awake_mask: int, received_mask: int,
        initiator: int | None = None, contender_count: int = 0, winner: int | None = None,
        delivered: bool = False, requester: int | None = None, assigned_slot: int | None = None,
        new_assignment: bool = False, capacity_exceeded: bool = False,
        source: int | None = None, announced_distance: int | None = None,
        slot_id: int | None = None, owner: int | None = None, payload_len: int | None = None,
        gen_round: int | None = None,
    ) -> None:
        self.t = t
        self.kind = kind  # sync | request | reply | announce | data
        self.awake_mask = awake_mask
        self.received_mask = received_mask
        self.initiator = initiator
        self.contender_count = contender_count
        self.winner = winner
        self.delivered = delivered
        self.requester = requester
        self.assigned_slot = assigned_slot
        self.new_assignment = new_assignment
        self.capacity_exceeded = capacity_exceeded
        self.source = source
        self.announced_distance = announced_distance
        self.slot_id = slot_id
        self.owner = owner
        self.payload_len = payload_len
        self.gen_round = gen_round

    @property
    def awake(self) -> list[int]:
        return ids_of(self.awake_mask)

    @property
    def received(self) -> list[int]:
        return ids_of(self.received_mask)


class RoundTrace:
    """Everything that happened in one round. radio_totals[i] is the
    radio-on time of node node_ids[i]."""

    __slots__ = (
        "index", "t_start", "phase", "mode", "round_period", "n_rr", "n_data", "slots",
        "node_ids", "radio_totals", "joined", "desynced", "bootstrap", "generated", "dropped",
    )

    def __init__(
        self, index: int, t_start: int, phase: str, mode: str, round_period: int,
        n_rr: int, n_data: int, slots: list[SlotTrace], node_ids: tuple[int, ...],
        radio_totals: tuple[int, ...], joined: list[int], desynced: list[int],
        bootstrap: list[int], generated: list[tuple[int, int]], dropped: list[int],
    ) -> None:
        self.index, self.t_start, self.phase = index, t_start, phase
        self.mode, self.round_period, self.n_rr = mode, round_period, n_rr
        self.n_data, self.slots, self.node_ids = n_data, slots, node_ids
        self.radio_totals, self.joined, self.desynced = radio_totals, joined, desynced
        self.bootstrap, self.dropped = bootstrap, dropped
        self.generated = generated  # (node, round generated)

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


class World:
    """All mutable state of a run."""

    def __init__(
        self, topology: Topology, config: SimConfig, schedule: SinkSchedule,
        nodes: dict[int, NodeState],  # inserted in ascending node id order
        node_ids: tuple[int, ...], rng: random.Random,  # node_ids: the keys of nodes
    ) -> None:
        self.topology, self.config, self.schedule = topology, config, schedule
        self.nodes, self.node_ids, self.rng = nodes, node_ids, rng
        self.now = self.round_index = 0
        self.next_sequence = 0  # every source generates sequence s at s * IPI
        self.announced_slots: dict[int, tuple[int, int]] = {}  # slot -> (distance, forwarders)
        self.wake_counts: Counter = Counter()  # node -> announced slots waking it
        self.distances: list[int] = []  # hop h -> nodes at sink distance h
        self.radio_rows: dict[tuple, tuple] = {}  # round key -> row


def _radio_totals(
    world: World, header: SyncHeader, sync_awake: int, active: int
) -> tuple[int, ...]:
    """Radio-on time per node for one round, in node_ids order, once its
    request block is done. Rounds of one key share one row of
    world.radio_rows (at most MEMO_CAP rows, oldest dropped first). The row
    reads active only with request or data slots, and wake_counts only with
    data slots, so the key leaves them out otherwise."""
    period, n_rr, n_data = header.round_period, header.n_rr, header.n_data
    announced, owners = world.announced_slots, world.schedule.slot_owner
    late = [s for s in range(n_data, len(owners)) if s in announced] if n_data else []
    below = len(announced) - len(late) if n_data else 0  # the others are unannounced
    key = (period, sync_awake, active if n_rr or n_data else 0, n_rr, n_data, below)
    rows = world.radio_rows
    row = rows.get(key)
    if row is not None:
        return row
    cfg = world.config
    wakes = world.wake_counts if n_data else {}
    if late:  # announced after the header fixed n_data: no data slot this round
        masks = (announced[s][1] | 1 << owners[s] | 1 << cfg.sink_node_id for s in late)
        wakes = wakes - Counter(n for mask in masks for n in ids_of(mask))
    sync, slot, base = cfg.sync_slot_length, cfg.slot_length, n_rr + n_data - below
    ons = [
        sync + (base + wakes.get(n, 0)) * slot if active >> n & 1
        else sync if sync_awake >> n & 1 else period
        for n in world.node_ids
    ]
    totals = {period: period}  # one int object per distinct total
    if len(rows) >= MEMO_CAP:
        del rows[next(iter(rows))]
    row = rows[key] = tuple(totals.setdefault(on, on) for on in ons)
    return row


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
    channel = (cfg.loss_probability, rng)
    generated: list[tuple[int, int]] = []
    dropped: list[int] = []
    desynced: list[int] = []
    synced: list[int] = []

    # Walk 1, before the sync flood. Every node but the sink queues the
    # packets due by t as the lengths of their "node:seq" texts, and a synced
    # node whose accumulated offset left the guard window cannot hit the sync
    # slot any more and falls back to bootstrap. The sink is never in bootstrap.
    due = [1 + len(str(s)) for s in range(world.next_sequence, t // cfg.ipi + 1)]
    world.next_sequence += len(due)
    for node_id, state in nodes.items():
        if node_id != sink:
            for tail in due:
                if len(state.queue) >= cfg.queue_capacity:
                    state.queue.popleft()
                    dropped.append(node_id)
                state.queue.append((world.round_index, len(str(node_id)) + tail))
                generated.append((node_id, world.round_index))
            if state.drift_ppm and not state.bootstrap and (
                (t - state.last_sync) * abs(state.drift_ppm) * 1e-6 > guard
            ):
                state.bootstrap = True
                desynced.append(node_id)
        if not state.bootstrap:
            synced.append(node_id)

    # Sync slot. Synced nodes relay; bootstrap nodes have their radio on
    # anyway, so they receive (without relaying) and join on success.
    outcome = flood(topo, sink, topo.mask_of(synced), *channel)

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
        contenders = [n for n in active if n != sink and nodes[n].my_slot is None]
        winner = contend(contenders, cfg.contention_policy, rng)
        fo = None if winner is None else flood(topo, winner, awake_mask, *channel)
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
                fo = flood(topo, sink, awake_mask, *channel)
                if fs_mode:
                    refresh_sink_distances(world.distances, fo)
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
        # announced at most once, and counted once in wake_counts for the
        # nodes data_participants wakes in it when they are active.
        if fs_mode:
            fo, info = None, {}
            if announce_source is not None:
                distance = next(h for h, m in enumerate(world.distances) if m >> heard & 1)
                fo = flood(topo, announce_source, awake_mask, *channel)
                forwarders = apply_announce(world.distances, fo, distance)
                world.announced_slots[assigned] = (distance, forwarders)
                world.wake_counts.update(ids_of(forwarders | 1 << announce_source | 1 << sink))
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
        owner_state = nodes[owner]
        if awake_mask >> owner & 1 and owner_state.my_slot == slot_id:
            queue = owner_state.queue
            gen_round, payload_len = queue.popleft() if queue else (None, 0)
            reached = flood(topo, owner, members, *channel).reached
            slots.append(SlotTrace(
                t, "data", members, reached & members, owner,
                slot_id=slot_id, owner=owner, payload_len=payload_len, gen_round=gen_round,
                delivered=reached >> sink & 1 == 1 and gen_round is not None,
            ))
        else:
            slots.append(SlotTrace(t, "data", members, 0, slot_id=slot_id, owner=owner))
        t += cfg.slot_length

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
        radio_totals=_radio_totals(world, header, sync_awake, awake_mask),
        joined=joined,
        desynced=desynced,
        bootstrap=still_bootstrap,
        generated=generated,
        dropped=dropped,
    )
    world.now += header.round_period
    world.round_index += 1
    return trace

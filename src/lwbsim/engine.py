"""Slot-stepped execution of one bus round.

The engine owns all mutable run state (node masks, sink schedule, rng) and
turns one sync header into a RoundTrace describing every slot: who was
awake, who received, what was assigned and what was delivered.

Radio accounting is slot granular. A node awake for a slot pays the full
slot length whether it initiates, relays or just listens; a node that skips
a slot pays nothing. A node in bootstrap keeps its radio on for the whole
round, except in the round where it catches the sync flood, from which
point on it is charged like any synced node. So a round's charge is a count
of slots per node (_radio_totals): an active node pays the sync slot, the
request block and every data slot that wakes it.

Each slot kind is a SlotTrace subclass storing its own fields besides the
base's four; a field a kind never sets reads its default from the base. A
slot stores who was awake and who received as two node masks, bit n for node
n, the ones the floods already compute. Run state is masks, windows and
counters, so a round never loops over nodes: world.bootstrap holds the nodes
in bootstrap, world.granted those that heard their slot grant. Before the
sync flood, a synced drifting node whose clock offset since its last sync,
gap * |drift_ppm| * 1e-6 us, is strictly over the guard time falls back to
bootstrap. That test is monotone in the gap, so a node fails from its
least_gap on: world.drift_cuts holds those ascending, drift_prefix[i] the
nodes of the first i, and synced_at maps a round start to the synced
drifting nodes last synced then. The synced nodes relay the sync flood. Its
reached mask leaves bootstrap, moves to the round start in synced_at, and is
the sync slot's received mask and the round's active set: the awake mask of
the request block and of every data slot that wakes all active nodes. The
sync slot is awake on the active and the synced nodes. A flooded slot
receives on the flood's reached mask within its awake mask. A capture winner
is the k-th node of a request slot's contender mask. Forwarder selection
keeps sink distances as hop masks in world.distances; an announce flood
writes its slot's forwarder mask into announced_slots and counts the slot in
wake_counts for each node it wakes. Every source makes sequence s at s *
IPI, so a source's queue is the window from queue_start[n] to next_sequence;
gen_rounds holds the rounds of the last QUEUE_CAPACITY sequences. A round's
new assignments and capacity events are read from its reply slots.

Determinism: every node list is in ascending node id order, and a single
rng instance drives first the contention draw of a request slot (only when
two or more nodes contend) and then the loss draws of that slot's flood
(only when the loss probability is nonzero).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter

from .config import SimConfig
from .core import SinkSchedule, SyncHeader, contend, sink_assign
from .errors import SimulationError, SlotCapacityError
from .forwarding import apply_announce, data_participants, refresh_sink_distances
from .glossy import MEMO_CAP, FloodOutcome, flood, ids_of
from .topology import Topology


class SlotTrace:
    """One slot event, its node sets as masks: the base of the slot kinds,
    no kind itself. Each kind takes these four fields, then its own."""

    __slots__ = ("t", "awake_mask", "received_mask", "initiator")
    contender_count = 0
    winner = requester = assigned_slot = source = announced_distance = None
    slot_id = owner = payload_len = gen_round = None
    delivered = new_assignment = capacity_exceeded = False

    @property
    def awake(self) -> list[int]:
        return ids_of(self.awake_mask)

    @property
    def received(self) -> list[int]:
        return ids_of(self.received_mask)


class SyncSlot(SlotTrace):
    __slots__ = ()
    kind = "sync"

    def __init__(self, t: int, awake_mask: int, received_mask: int, initiator: int) -> None:
        self.t, self.awake_mask, self.received_mask = t, awake_mask, received_mask
        self.initiator = initiator


class RequestSlot(SlotTrace):
    __slots__ = ("contender_count", "winner", "delivered")
    kind = "request"

    def __init__(
        self, t: int, awake_mask: int, received_mask: int, initiator: int | None,
        contender_count: int, winner: int | None, delivered: bool,
    ) -> None:
        self.t, self.awake_mask, self.received_mask = t, awake_mask, received_mask
        self.initiator = initiator
        self.contender_count, self.winner, self.delivered = contender_count, winner, delivered


class ReplySlot(SlotTrace):
    __slots__ = (
        "requester", "assigned_slot", "new_assignment", "delivered", "capacity_exceeded"
    )
    kind = "reply"

    def __init__(
        self, t: int, awake_mask: int, received_mask: int, initiator: int | None,
        requester: int | None = None, assigned_slot: int | None = None,
        new_assignment: bool = False, delivered: bool = False, capacity_exceeded: bool = False,
    ) -> None:
        self.t, self.awake_mask, self.received_mask = t, awake_mask, received_mask
        self.initiator, self.requester, self.assigned_slot = initiator, requester, assigned_slot
        self.new_assignment, self.delivered = new_assignment, delivered
        self.capacity_exceeded = capacity_exceeded


class AnnounceSlot(SlotTrace):
    __slots__ = ("source", "announced_distance", "slot_id")
    kind = "announce"

    def __init__(
        self, t: int, awake_mask: int, received_mask: int, initiator: int | None,
        source: int | None = None, announced_distance: int | None = None,
        slot_id: int | None = None,
    ) -> None:
        self.t, self.awake_mask, self.received_mask = t, awake_mask, received_mask
        self.initiator = initiator
        self.source, self.announced_distance, self.slot_id = source, announced_distance, slot_id


class DataSlot(SlotTrace):
    __slots__ = ("slot_id", "owner", "payload_len", "gen_round", "delivered")
    kind = "data"

    def __init__(
        self, t: int, awake_mask: int, received_mask: int, initiator: int | None,
        slot_id: int, owner: int, payload_len: int | None = None,
        gen_round: int | None = None, delivered: bool = False,
    ) -> None:
        self.t = t  # built for every data slot: one field per statement is 4% faster
        self.awake_mask = awake_mask
        self.received_mask = received_mask
        self.initiator = initiator
        self.slot_id = slot_id
        self.owner = owner
        self.payload_len = payload_len
        self.gen_round = gen_round
        self.delivered = delivered


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


def least_gap(drift_ppm: float, guard: int) -> int:
    """The least whole gap with gap * |drift_ppm| * 1e-6 > guard, the clock
    guard's float test, or 2**62 when none below it passes. The test is
    monotone in the gap, so stepping from the real root finds it exactly."""
    rate, never = abs(drift_ppm), 1 << 62
    gap = int(min(guard / rate * 1e6, never))
    while gap and (gap - 1) * rate * 1e-6 > guard:
        gap -= 1
    while gap < never and not gap * rate * 1e-6 > guard:
        gap += 1
    return gap


class World:
    """All mutable state of a run; drifts maps nodes to their drift in ppm."""

    def __init__(
        self, topology: Topology, config: SimConfig, schedule: SinkSchedule,
        node_ids: tuple[int, ...], rng: random.Random, drifts: dict[int, float],
    ) -> None:
        self.topology, self.config, self.schedule = topology, config, schedule
        self.node_ids, self.rng = node_ids, rng
        sink, guard = config.sink_node_id, config.glossy_guard_time
        self.sources = tuple(n for n in node_ids if n != sink)
        cuts = sorted((least_gap(d, guard), n) for n, d in drifts.items() if d)
        self.drift_cuts = [gap for gap, _ in cuts]  # ascending least desyncing gaps
        self.drift_prefix = [0]  # [i]: the drifting nodes of the first i cuts, [-1] all
        for _, n in cuts:
            self.drift_prefix.append(self.drift_prefix[-1] | 1 << n)
        self.synced_at: dict[int, int] = {}  # round start -> drifting nodes synced last then
        self.all_nodes = Topology.mask_of(node_ids)
        self.bootstrap = self.all_nodes & ~(1 << sink)  # nodes in bootstrap, never the sink
        self.granted = 0  # nodes that heard their slot grant
        self.now = self.round_index = 0
        self.next_sequence = 0  # every source generates sequence s at s * IPI
        self.queue_start = dict.fromkeys(self.sources, 0)  # source -> oldest queued sequence
        self.gen_rounds: list[int] = []  # round of each of the last QUEUE_CAPACITY sequences
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
    cfg, topo, sched = world.config, world.topology, world.schedule
    rng, sink = world.rng, cfg.sink_node_id
    fs_mode, group = cfg.forwarder_selection, cfg.rr_group_size
    if header.n_rr % group != 0:
        raise SimulationError(
            f"header announces {header.n_rr} request slots, not a multiple of {group}"
        )
    if header.n_data > len(sched.slot_owner):
        raise SimulationError(f"data slot {len(sched.slot_owner)} has no owner")

    t, loss = world.now, cfg.loss_probability
    generated, dropped = [], []  # (node, round) pairs; node ids

    # Before the sync flood, every node but the sink queues the packets due
    # by t, dropping its oldest on overflow, and a synced node whose
    # accumulated offset left the guard window cannot hit the sync slot any
    # more and falls back to bootstrap (the groups are disjoint: sum is OR).
    due = range(world.next_sequence, t // cfg.ipi + 1)
    if due:
        limit, index, start = cfg.queue_capacity, world.round_index, world.queue_start
        world.next_sequence = due.stop
        world.gen_rounds = (world.gen_rounds + [index] * min(len(due), limit))[-limit:]
        generated = [(node_id, index) for node_id in world.sources for _ in due]
        floor = due.stop - limit  # the oldest sequence a full queue keeps
        if min(start.values(), default=floor) < floor:
            dropped = [n for n, first in start.items() for _ in range(floor - first)]
            world.queue_start = {n: max(first, floor) for n, first in start.items()}
    groups, cuts, prefix = world.synced_at, world.drift_cuts, world.drift_prefix
    lost = sum(g & prefix[bisect_right(cuts, t - since)] for since, g in groups.items())
    bootstrap = world.bootstrap | lost
    synced = world.all_nodes & ~bootstrap

    # Sync slot. Synced nodes relay; bootstrap nodes have their radio on
    # anyway, so they receive (without relaying) and join on success. Every
    # receiver, the sink included, is active for the round; a node still in
    # bootstrap listens through the whole round; a synced node that missed
    # the sync sits the round out.
    awake_mask = flood(topo, sink, synced, loss, rng).reached  # the active nodes
    joined = ids_of(awake_mask & bootstrap)
    world.bootstrap = bootstrap = bootstrap & ~awake_mask
    keep, fresh = ~(awake_mask | lost), awake_mask & world.drift_prefix[-1]
    groups = world.synced_at = {s: rest for s, g in groups.items() if (rest := g & keep)}
    if fresh:
        groups[t] = fresh
    sync_awake = awake_mask | synced
    slots: list[SlotTrace] = [SyncSlot(t, sync_awake, awake_mask, sink)]
    t += cfg.sync_slot_length
    slot_length = cfg.slot_length

    def slot(kind: type[SlotTrace], fo: FloodOutcome | None, *fields) -> None:
        """Append one request block slot at t and advance t. A flooded slot
        receives on the flood's receivers among the active nodes."""
        nonlocal t
        if fo is None:
            slots.append(kind(t, awake_mask, 0, None, *fields))
        else:
            slots.append(kind(t, awake_mask, fo.reached & awake_mask, fo.initiator, *fields))
        t += slot_length

    # Request block. Every active node is awake for every slot of the
    # block: requests and replies are network wide floods and any node may
    # have to relay them.
    for _ in range(header.n_rr // group):
        contenders = awake_mask & ~(world.granted | 1 << sink)
        winner = contend(contenders, cfg.contention_policy, rng)
        fo = None if winner is None else flood(topo, winner, awake_mask, loss, rng)
        heard = winner if fo is not None and fo.received(sink) else None
        slot(RequestSlot, fo, contenders.bit_count(), winner, heard is not None)

        # reply slot: the sink grants the heard requester a data slot
        fo, fields, announce_source = None, (), None
        if heard is not None:
            slots_before = len(sched.slot_owner)
            try:
                assigned = sink_assign(sched, heard, cfg.data_slot_capacity())
            except SlotCapacityError:
                fields = (heard, None, False, False, True)
            else:
                fo = flood(topo, sink, awake_mask, loss, rng)
                if fs_mode:
                    refresh_sink_distances(world.distances, fo)
                delivered = fo.received(heard)
                if delivered:
                    world.granted |= 1 << heard
                    if fs_mode:
                        announce_source = heard
                fields = (heard, assigned, len(sched.slot_owner) > slots_before, delivered)
        slot(ReplySlot, fo, *fields)

        # announce slot (forwarder selection only). The delivered reply set
        # the source's sink distance, as the source relayed it. The source
        # now has a slot and never contends again, so each slot is
        # announced at most once, and counted once in wake_counts for the
        # nodes data_participants wakes in it when they are active.
        if fs_mode:
            fo, fields = None, ()
            if announce_source is not None:
                distance = next(h for h, m in enumerate(world.distances) if m >> heard & 1)
                fo = flood(topo, announce_source, awake_mask, loss, rng)
                forwarders = apply_announce(world.distances, fo, distance)
                world.announced_slots[assigned] = (distance, forwarders)
                world.wake_counts.update(ids_of(forwarders | 1 << announce_source | 1 << sink))
                fields = (announce_source, distance, assigned)
            slot(AnnounceSlot, fo, *fields)

    # Data slots. Slot indices are dense and the header check above gave
    # every index below n_data an owner; the owner floods the oldest queued
    # packet, or an empty keepalive when its queue is dry. An absent owner
    # leaves the slot silent but its members still listened. Without an
    # announced slot every active node is a member of every data slot.
    owners, announced = sched.slot_owner, world.announced_slots
    knowing = awake_mask & world.granted  # active owners that know their slot
    members = awake_mask
    start, stop, gen_rounds = world.queue_start, world.next_sequence, world.gen_rounds
    for slot_id in range(header.n_data):
        owner = owners[slot_id]
        if announced:
            members = data_participants(awake_mask, announced, slot_id, owner, sink)
        if knowing >> owner & 1:
            seq = start[owner]  # its oldest packet, popped when queued
            queued = seq < stop
            start[owner] = seq + queued
            reached = flood(topo, owner, members, loss, rng).reached
            slots.append(DataSlot(
                t, members, reached & members, owner, slot_id, owner,
                len(str(owner)) + 1 + len(str(seq)) if queued else 0,
                gen_rounds[seq - stop] if queued else None, reached >> sink & 1 == 1 and queued,
            ))
        else:
            slots.append(DataSlot(t, members, 0, None, slot_id, owner))
        t += slot_length

    if t > world.now + header.round_period:
        raise SimulationError(
            f"round {world.round_index} overflows its period: "
            f"{t - world.now} > {header.round_period}"
        )

    sched.assert_injective()
    trace = RoundTrace(
        index=world.round_index, t_start=world.now, phase=sched.phase, mode=cfg.mode,
        round_period=header.round_period, n_rr=header.n_rr, n_data=header.n_data,
        slots=slots, node_ids=world.node_ids,
        radio_totals=_radio_totals(world, header, sync_awake, awake_mask),
        joined=joined, desynced=ids_of(lost), bootstrap=ids_of(bootstrap),
        generated=generated, dropped=dropped,
    )
    world.now += header.round_period
    world.round_index += 1
    return trace

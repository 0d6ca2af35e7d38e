"""Slot-stepped execution of one bus round.

The engine owns all mutable run state (node masks, sink schedule, rng),
which World(topology, config) builds, and turns one sync header into a
RoundTrace describing every slot: who was awake, who received, what was
assigned and what was delivered. A heard request that finds the data
slots full gets a reply slot with capacity_exceeded set.

Radio accounting is slot granular. A node awake for a slot pays the full
slot length whether it initiates, relays or just listens; a node that skips
a slot pays nothing. A node in bootstrap keeps its radio on for the whole
round, except in the round where it catches the sync flood, from which
point on it is charged like any synced node. So a round's charge is a count
of slots per node (_radio_totals): an active node pays the sync slot, the
request block and every data slot that wakes it.

Each slot kind is a SlotTrace subclass storing the base's two fields and
its own, no other, and nothing its place in its round says: not its start,
not a data slot's index. A request's capture winner and an announce's
source are its initiator, the node its flood starts from; a data slot's is
its owner when it received. A slot stores who was awake and who received as
two node masks, bit n for node n, the ones the floods already compute, and
a round its joined, desynced and bootstrap nodes as masks too (ids_of lists
them). Run state is masks, windows and counters, so a round never loops
over nodes: world.bootstrap holds the nodes in bootstrap, world.granted
those that heard their slot grant. Before the sync flood, a synced drifting
node whose clock offset since its last sync, gap * |drift_ppm| * 1e-6 us,
is strictly over the guard time falls back to bootstrap. That test is
monotone in the gap, so a node fails from its least_gap on:
world.drift_cuts holds those ascending, drift_prefix[i] the nodes of the
first i, and synced_at maps a round start to the synced drifting nodes last
synced then. The synced nodes relay the sync flood. Its reached mask leaves
bootstrap, moves to the round start in synced_at, and is the sync slot's
received mask and the round's active set: the awake mask of the request
block and of every data slot that wakes all active nodes. The sync slot is
awake on the active and the synced nodes. A flooded slot receives on the
flood's reached mask within its awake mask. A capture winner is the k-th
node of a request slot's contender mask. Forwarder selection keeps sink
distances as hop masks in world.distances; announced_slots stores the
(distance, wake mask) forwarding.apply_announce gives an announced slot,
and wake_counts counts the slot for each node of its wake mask. Every
source makes sequence s at s * IPI, so a source's queue is the window from
queue_start[n] to next_sequence; gen_rounds holds the rounds of the last
QUEUE_CAPACITY sequences. A round stores how many sequences it made, not a
pair per packet; its reply slots, the second of each request group, and its
data slots sit at fixed places in its slot list, so a reader slices them out.

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
from .core import SinkSchedule, SyncHeader, contend, phase_at, sink_assign
from .errors import SimulationError
from .forwarding import apply_announce, data_participants, refresh_sink_distances
from .glossy import FloodOutcome, Memo, flood, ids_of
from .topology import Topology


class SlotTrace:
    """One slot event, its node sets as masks: the base of the slot kinds,
    no kind itself. Each kind takes these two fields, then its own; a slot's
    start and a data slot's index follow from its place in its round."""

    __slots__ = ("awake_mask", "received_mask")

    @property
    def awake(self) -> list[int]:
        return ids_of(self.awake_mask)

    @property
    def received(self) -> list[int]:
        return ids_of(self.received_mask)


class SyncSlot(SlotTrace):
    __slots__ = ("initiator",)
    kind = "sync"

    def __init__(self, awake_mask: int, received_mask: int, initiator: int) -> None:
        self.awake_mask, self.received_mask, self.initiator = awake_mask, received_mask, initiator


class RequestSlot(SlotTrace):
    __slots__ = ("initiator", "contender_count", "delivered")
    kind = "request"

    def __init__(
        self, awake_mask: int, received_mask: int, initiator: int | None,
        contender_count: int, delivered: bool,
    ) -> None:
        self.awake_mask, self.received_mask, self.initiator = awake_mask, received_mask, initiator
        self.contender_count, self.delivered = contender_count, delivered


class ReplySlot(SlotTrace):
    __slots__ = ("initiator", "requester", "assigned_slot", "new_assignment", "delivered",
                 "capacity_exceeded")
    kind = "reply"

    def __init__(
        self, awake_mask: int, received_mask: int, initiator: int | None,
        requester: int | None = None, assigned_slot: int | None = None,
        new_assignment: bool = False, delivered: bool = False, capacity_exceeded: bool = False,
    ) -> None:
        self.awake_mask, self.received_mask, self.initiator = awake_mask, received_mask, initiator
        self.requester, self.assigned_slot = requester, assigned_slot
        self.new_assignment, self.delivered = new_assignment, delivered
        self.capacity_exceeded = capacity_exceeded


class AnnounceSlot(SlotTrace):
    __slots__ = ("initiator", "announced_distance", "slot_id")
    kind = "announce"

    def __init__(
        self, awake_mask: int, received_mask: int, initiator: int | None,
        announced_distance: int | None = None, slot_id: int | None = None,
    ) -> None:
        self.awake_mask, self.received_mask, self.initiator = awake_mask, received_mask, initiator
        self.announced_distance, self.slot_id = announced_distance, slot_id


class DataSlot(SlotTrace):
    __slots__ = ("owner", "payload_len", "gen_round", "delivered")
    kind = "data"

    def __init__(
        self, awake_mask: int, received_mask: int, owner: int, payload_len: int | None = None,
        gen_round: int | None = None, delivered: bool = False,
    ) -> None:
        # built for every data slot: one field per statement is 4% faster
        self.awake_mask = awake_mask
        self.received_mask = received_mask
        self.owner = owner
        self.payload_len = payload_len
        self.gen_round = gen_round
        self.delivered = delivered

    @property
    def initiator(self) -> int | None:
        """The owner when the slot received: in a run a flooded data slot
        always receives on its owner, a silent one on nobody."""
        return self.owner if self.received_mask else None


class RoundTrace:
    """Everything that happened in one round of a run of config. Its slots
    are the sync slot, the n_rr slots of the request block, then the n_data
    data slots. radio_totals[i] is the radio-on time of node node_ids[i];
    each of sources made new_sequences packets. joined, desynced and
    bootstrap are node masks."""

    __slots__ = (
        "index", "t_start", "phase", "config", "round_period", "n_rr", "n_data", "slots",
        "node_ids", "radio_totals", "joined", "desynced", "bootstrap", "sources",
        "new_sequences", "dropped",
    )

    def __init__(
        self, index: int, t_start: int, phase: str, config: SimConfig, round_period: int,
        n_rr: int, n_data: int, slots: list[SlotTrace], node_ids: tuple[int, ...],
        radio_totals: tuple[int, ...], joined: int, desynced: int, bootstrap: int,
        sources: tuple[int, ...], new_sequences: int, dropped: tuple[int, ...],
    ) -> None:
        self.index, self.t_start, self.phase = index, t_start, phase
        self.config, self.round_period, self.n_rr = config, round_period, n_rr
        self.n_data, self.slots, self.node_ids = n_data, slots, node_ids
        self.radio_totals, self.joined, self.desynced = radio_totals, joined, desynced
        self.bootstrap, self.sources, self.new_sequences = bootstrap, sources, new_sequences
        self.dropped = dropped

    @property
    def replies(self) -> list[ReplySlot]:
        """The reply slots: the second slot of each request group."""
        n_rr = self.n_rr  # 0 in most rounds of a long run
        return self.slots[2:1 + n_rr:self.config.rr_group_size] if n_rr else []

    @property
    def new_assignments(self) -> list[tuple[int, int]]:
        """(slot, owner) of every slot the sink granted afresh."""
        if not self.n_rr:  # most rounds have none, and the renderer asks every round
            return []
        return [(s.assigned_slot, s.requester) for s in self.replies if s.new_assignment]

    @property
    def capacity_events(self) -> int:
        return self.n_rr and sum(s.capacity_exceeded for s in self.replies)


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
    """All mutable state of a run, at its start: the sink synced, every
    other node in bootstrap. The seeded rng first draws each non-sink
    node's drift in ppm, in id order, when the drift range is not empty."""

    def __init__(self, topology: Topology, config: SimConfig) -> None:
        self.topology, self.config, self.schedule = topology, config, SinkSchedule()
        self.node_ids = node_ids = tuple(sorted(topology.nodes))
        self.rng = rng = random.Random(config.seed)
        sink, guard = config.sink_node_id, config.glossy_guard_time
        self.sources = tuple(n for n in node_ids if n != sink)
        lo, hi = config.drift_ppm_range
        drifts = [rng.uniform(lo, hi) for _ in self.sources] if lo or hi else []
        cuts = sorted((least_gap(d, guard), n) for n, d in zip(self.sources, drifts) if d)
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
        self.announced_slots: dict[int, tuple[int, int]] = {}  # slot -> (distance, wake mask)
        self.wake_counts: Counter = Counter()  # node -> announced slots waking it
        self.distances: list[int] = []  # hop h -> nodes at sink distance h
        self.radio_rows = Memo()  # round key -> row


def _radio_totals(
    world: World, header: SyncHeader, sync_awake: int, active: int
) -> tuple[int, ...]:
    """Radio-on time per node for one round, in node_ids order, once its
    request block is done. Rounds of one key share one row of
    world.radio_rows, a glossy.Memo. The row reads active only with request
    or data slots, and wake_counts only with data slots, so the key leaves
    them out otherwise."""
    period, n_rr, n_data = header.round_period, header.n_rr, header.n_data
    announced, owned = world.announced_slots, len(world.schedule.slot_owner)
    late = [s for s in range(n_data, owned) if s in announced] if n_data else []
    below = len(announced) - len(late) if n_data else 0  # the others are unannounced
    key = (period, sync_awake, active if n_rr or n_data else 0, n_rr, n_data, below)
    row = world.radio_rows.get(key)
    if row is not None:
        return row
    cfg = world.config
    wakes = world.wake_counts if n_data else {}
    if late:  # announced after the header fixed n_data: no data slot this round
        wakes = wakes - Counter(n for s in late for n in ids_of(announced[s][1]))
    sync, slot, base = cfg.sync_slot_length, cfg.slot_length, n_rr + n_data - below
    ons = [
        sync + (base + wakes.get(n, 0)) * slot if active >> n & 1
        else sync if sync_awake >> n & 1 else period
        for n in world.node_ids
    ]
    totals = {period: period}  # one int object per distinct total
    return world.radio_rows.put(key, tuple(totals.setdefault(on, on) for on in ons))


def execute_round(world: World, header: SyncHeader) -> RoundTrace:
    """Run the round that starts at world.now and return its trace. Its
    phase is read off the timeline; the caller sizes the request block."""
    cfg, topo, sched = world.config, world.topology, world.schedule
    rng, sink = world.rng, cfg.sink_node_id
    fs_mode, group = cfg.forwarder_selection, cfg.rr_group_size
    if header.n_rr % group != 0:
        raise SimulationError(
            f"header announces {header.n_rr} request slots, not a multiple of {group}"
        )
    if header.n_data > (owned := len(sched.slot_owner)):
        raise SimulationError(f"data slot {owned} has no owner")
    span = cfg.sync_slot_length + (header.n_rr + header.n_data) * cfg.slot_length
    if span > header.round_period:
        raise SimulationError(
            f"round {world.round_index} overflows its period: {span} > {header.round_period}"
        )

    t, loss, dropped = world.now, cfg.loss_probability, ()  # dropped: node ids

    # Before the sync flood, every node but the sink queues the packets due
    # by t, dropping its oldest on overflow, and a synced node whose
    # accumulated offset left the guard window cannot hit the sync slot any
    # more and falls back to bootstrap (the groups are disjoint: sum is OR).
    due = range(world.next_sequence, t // cfg.ipi + 1)
    if due:
        limit, index, start = cfg.queue_capacity, world.round_index, world.queue_start
        world.next_sequence = due.stop
        world.gen_rounds = (world.gen_rounds + [index] * min(len(due), limit))[-limit:]
        floor = due.stop - limit  # the oldest sequence a full queue keeps
        if min(start.values(), default=floor) < floor:
            dropped = tuple(n for n, first in start.items() for _ in range(floor - first))
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
    joined = awake_mask & bootstrap
    world.bootstrap = bootstrap = bootstrap & ~awake_mask
    keep, fresh = ~(awake_mask | lost), awake_mask & world.drift_prefix[-1]
    groups = world.synced_at = {s: rest for s, g in groups.items() if (rest := g & keep)}
    if fresh:
        groups[t] = fresh
    sync_awake = awake_mask | synced
    slots: list[SlotTrace] = [SyncSlot(sync_awake, awake_mask, sink)]

    def slot(kind: type[SlotTrace], fo: FloodOutcome | None, *fields) -> None:
        """Append the next request block slot. A flooded slot receives on the
        flood's receivers among the active nodes."""
        if fo is None:
            slots.append(kind(awake_mask, 0, None, *fields))
        else:
            slots.append(kind(awake_mask, fo.reached & awake_mask, fo.initiator, *fields))

    # Request block. Every active node is awake for every slot of the
    # block: requests and replies are network wide floods and any node may
    # have to relay them.
    for _ in range(header.n_rr // group):
        contenders = awake_mask & ~(world.granted | 1 << sink)
        winner = contend(contenders, cfg.contention_policy, rng)
        fo = None if winner is None else flood(topo, winner, awake_mask, loss, rng)
        heard = winner if fo is not None and fo.received(sink) else None
        slot(RequestSlot, fo, contenders.bit_count(), heard is not None)

        # reply slot: the sink grants the heard requester a data slot
        fo, fields, announcing = None, (), False
        if heard is not None:
            slots_before = len(sched.slot_owner)
            assigned = sink_assign(sched, heard, cfg.data_slot_capacity())
            if assigned is None:  # the data slots fill the round
                fields = (heard, None, False, False, True)
            else:
                fo = flood(topo, sink, awake_mask, loss, rng)
                if fs_mode:
                    refresh_sink_distances(world.distances, fo)
                delivered = announcing = fo.received(heard)
                if delivered:
                    world.granted |= 1 << heard
                fields = (heard, assigned, len(sched.slot_owner) > slots_before, delivered)
        slot(ReplySlot, fo, *fields)

        # announce slot (forwarder selection only). The delivered reply set
        # the source's sink distance, as the source relayed it. The source
        # now has a slot and never contends again, so each slot is
        # announced at most once, and counted once in wake_counts for the
        # nodes of its wake mask, which data_participants wakes when active.
        if fs_mode:
            fo, fields = None, ()
            if announcing:
                fo = flood(topo, heard, awake_mask, loss, rng)
                distance, wake = apply_announce(world.distances, fo)
                world.announced_slots[assigned] = distance, wake
                world.wake_counts.update(ids_of(wake))
                fields = (distance, assigned)
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
            members = data_participants(awake_mask, announced, slot_id)
        if knowing >> owner & 1:
            seq = start[owner]  # its oldest packet, popped when queued
            queued = seq < stop
            start[owner] = seq + queued
            received = flood(topo, owner, members, loss, rng).reached & members
            slots.append(DataSlot(
                members, members if received == members else received, owner,
                len(str(owner)) + 1 + len(str(seq)) if queued else 0,
                gen_rounds[seq - stop] if queued else None, received >> sink & 1 == 1 and queued,
            ))
        else:
            slots.append(DataSlot(members, 0, owner))

    if len(sched.slot_owner) > owned:  # sink_assign, the table's one writer, appended
        sched.assert_injective()
    trace = RoundTrace(
        index=world.round_index, t_start=world.now, phase=phase_at(cfg, world.now), config=cfg,
        round_period=header.round_period, n_rr=header.n_rr, n_data=header.n_data,
        slots=slots, node_ids=world.node_ids,
        radio_totals=_radio_totals(world, header, sync_awake, awake_mask),
        joined=joined, desynced=lost, bootstrap=bootstrap,
        sources=world.sources, new_sequences=len(due), dropped=dropped,
    )
    world.now += header.round_period
    world.round_index += 1
    return trace

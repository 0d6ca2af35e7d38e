"""Round execution: joining, radio accounting, slot mechanics."""

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from lwbsim import glossy
from lwbsim.config import SimConfig, parse_config
from lwbsim.core import SyncHeader
from lwbsim import engine
from lwbsim.engine import (
    AnnounceSlot, DataSlot, ReplySlot, RequestSlot, SlotTrace, SyncSlot, _radio_totals,
    execute_round, least_gap,
)
from lwbsim.errors import SimulationError
from lwbsim.glossy import flood, ids_of, waves
from lwbsim.sim import build_world, run_simulation
from lwbsim.topology import Topology, load_topology

from _support import (
    awake_ids, generated_of, last_sync_of, line_topology, queue_of, radio_on_of,
    random_connected_topology, received_ids, checked_traces, stepped_run, sync_node,
)

US_SLOT = 15_000
US_SECOND = 1_000_000


def _sync_only_header():
    return SyncHeader(US_SECOND, 0, 0)


BASE_FIELDS = ("awake_mask", "received_mask")
# kind class -> (kind, its own fields, constructor arguments setting all fields)
SLOT_KINDS = {
    SyncSlot: ("sync", ("initiator",), (3, 2, 1)),
    RequestSlot: ("request", ("initiator", "contender_count", "delivered"), (3, 2, 2, 4, True)),
    ReplySlot: (
        "reply",
        (
            "initiator", "requester", "assigned_slot", "new_assignment", "delivered",
            "capacity_exceeded",
        ),
        (3, 2, 1, 2, 0, True, True, False),
    ),
    AnnounceSlot: ("announce", ("initiator", "announced_distance", "slot_id"), (3, 2, 2, 1, 0)),
    DataSlot: ("data", ("owner", "payload_len", "gen_round", "delivered"), (3, 2, 2, 3, 0, True)),
}
# every kind reads an initiator (a data slot's follows its owner); a
# request's winner and an announce's source are its initiator
KIND_FIELDS = {
    name for _, own, _ in SLOT_KINDS.values() for name in own if name != "initiator"
} | {"winner", "source"}

class TestSlotKinds:
    """One class per slot kind: each stores the base fields and its own,
    and no other kind's field reads on it."""

    def test_base_stores_the_shared_fields_and_is_no_kind(self):
        assert SlotTrace.__slots__ == BASE_FIELDS
        assert not hasattr(SlotTrace, "kind")
        assert not KIND_FIELDS & vars(SlotTrace).keys()
        # no slot stores its start, and a data slot neither its index nor
        # its initiator: its place and its received mask say them
        assert not {"t", "slot_id", "initiator"} & {*BASE_FIELDS, *DataSlot.__slots__}
        with pytest.raises(TypeError):  # the generic constructor is gone
            SlotTrace(0, "sync", 0, 0)

    @pytest.mark.parametrize("cls", list(SLOT_KINDS), ids=lambda cls: cls.__name__)
    def test_kind_class(self, cls):
        kind, own, args = SLOT_KINDS[cls]
        slot = cls(*args)
        assert cls.kind == slot.kind == kind
        assert cls.__bases__ == (SlotTrace,)
        assert cls.__slots__ == own
        assert not hasattr(slot, "__dict__")
        with pytest.raises(AttributeError):
            slot.not_a_field = 1
        # every stored field reads what the constructor was given, in order
        assert tuple(getattr(slot, name) for name in BASE_FIELDS + own) == args
        # the third argument is the initiator, or a data slot's owner, its
        # initiator as it received
        assert slot.initiator == args[2]
        assert (awake_ids(slot), received_ids(slot)) == ([0, 1], [1])
        # the slot reads the base fields, its own, its kind and the two id
        # lists, nothing else; another kind's field raises
        public = {name for name in dir(slot) if not name.startswith("_")}
        assert public == {*BASE_FIELDS, *own, "kind", "awake", "received", "initiator"}
        for name in sorted(KIND_FIELDS - set(own)):
            with pytest.raises(AttributeError):
                getattr(slot, name)

    def test_empty_slots_read_the_defaults(self):
        # the engine builds a silent reply, announce and data slot from the
        # base fields and what it knows; the rest take the kind's defaults
        reply = ReplySlot(1, 0, None)
        assert (reply.requester, reply.assigned_slot) == (None, None)
        assert (reply.new_assignment, reply.delivered, reply.capacity_exceeded) == (False,) * 3
        announce = AnnounceSlot(1, 0, None)
        assert (announce.announced_distance, announce.slot_id) == (None, None)
        silent = DataSlot(1, 0, 2)  # received on nobody: no initiator
        assert (silent.owner, silent.initiator) == (2, None)
        assert (silent.payload_len, silent.gen_round, silent.delivered) == (None, None, False)


class TestBootstrapAndSync:
    def test_first_round_charges_joiners_one_sync_slot(self):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(2))
        trace = execute_round(world, _sync_only_header())
        assert trace.joined == 1 << 2
        assert trace.bootstrap == 0
        assert radio_on_of(trace) == {1: US_SLOT, 2: US_SLOT}

    def test_bootstrap_cascade_one_hop_per_round(self):
        # synced nodes relay the sync flood, bootstrap nodes only listen,
        # so the synced frontier grows by one hop per round along a line
        cfg = SimConfig(duration=6 * US_SECOND)
        result = run_simulation(cfg, line_topology(6))
        joined = [trace.joined for trace in result.traces[:5]]
        assert joined == [1 << n for n in range(2, 7)]

    def test_waiting_bootstrap_node_pays_full_round(self):
        cfg = SimConfig(duration=6 * US_SECOND)
        result = run_simulation(cfg, line_topology(6))
        per_round = [radio_on_of(trace)[6] for trace in result.traces[:5]]
        assert per_round == [US_SECOND] * 4 + [US_SLOT]

    def test_synced_node_missing_sync_sits_out(self):
        # line 1-2-3 with node 2 still in bootstrap: node 3 is synced but
        # the sync flood dies at node 2, so node 3 pays one wasted sync
        # slot and skips the rest of the round
        cfg = SimConfig()
        world = build_world(cfg, line_topology(3))
        world.bootstrap &= ~(1 << 3)
        trace = execute_round(world, SyncHeader(US_SECOND, 2, 0))
        assert trace.joined == 1 << 2
        sync_slot = trace.slots[0]
        assert received_ids(sync_slot) == [1, 2]
        assert radio_on_of(trace)[3] == US_SLOT
        for slot in trace.slots[1:]:
            assert 3 not in awake_ids(slot)
            assert 3 not in received_ids(slot)

    def test_missed_sync_does_not_unsync(self):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(3))
        world.bootstrap &= ~(1 << 3)
        execute_round(world, _sync_only_header())
        assert not world.bootstrap >> 3 & 1


GUARD = SimConfig.glossy_guard_time  # 2 ms


def _synced_pair(drift, guard=GUARD):
    """A 2-node line whose node 2 drifts by drift ppm and last synced at 0."""
    cfg = SimConfig(drift_ppm_range=(drift, drift), glossy_guard_time=guard)
    world = build_world(cfg, line_topology(2))
    sync_node(world, 2)
    return world


# (drift ppm, time of the next sync, guard, desyncs)
GUARD_CASES = [
    # 50 ppm over 5 s accumulates 250 us, well inside the guard
    pytest.param(50.0, 5 * US_SECOND, GUARD, False, id="small_drift_survives_round"),
    # 500 ppm over 5 s accumulates 2.5 ms, over the guard
    pytest.param(500.0, 5 * US_SECOND, GUARD, True, id="large_drift_desyncs"),
    pytest.param(100.0, 10 * US_SECOND, GUARD, False, id="hundred_ppm_10s_keeps_sync"),
    pytest.param(100.0, 30 * US_SECOND, GUARD, True, id="hundred_ppm_30s_desyncs"),
    # 100 ppm over 20 s is exactly 2000 us: not strictly over the guard
    pytest.param(100.0, 20 * US_SECOND, GUARD, False, id="exact_guard_boundary_stays_synced"),
    pytest.param(-500.0, 5 * US_SECOND, GUARD, True, id="negative_drift_uses_magnitude"),
    pytest.param(0.0, 10**12, GUARD, False, id="zero_drift_never_desyncs"),
    pytest.param(0.0, 30 * US_SECOND, 0, False, id="zero_guard_zero_drift_keeps_sync"),
    pytest.param(1.0, 1, 0, True, id="zero_guard_any_offset_desyncs"),
]


class TestClockGuardInRounds:
    @pytest.mark.parametrize("drift, gap, guard, desyncs", GUARD_CASES)
    def test_guard_after_one_sync_gap(self, drift, gap, guard, desyncs):
        world = _synced_pair(drift, guard)
        world.now = gap
        trace = execute_round(world, _sync_only_header())
        assert trace.desynced == (1 << 2 if desyncs else 0)

    def test_drifted_node_desyncs_and_rejoins_same_round(self):
        # 100 ppm over 30 s piles up 3 ms, past the 2 ms guard
        world = _synced_pair(100.0)
        world.now = 30 * US_SECOND
        trace = execute_round(world, _sync_only_header())
        assert trace.desynced == 1 << 2
        assert trace.joined == 1 << 2
        assert not world.bootstrap >> 2 & 1
        assert radio_on_of(trace)[2] == US_SLOT

    def test_offset_at_exact_guard_keeps_node_synced(self):
        # 100 ppm over 20 s is exactly the 2 ms guard: not strictly over it
        assert 20 * US_SECOND * 100.0 * 1e-6 == 2000.0
        world = _synced_pair(100.0)
        world.now = 20 * US_SECOND
        trace = execute_round(world, _sync_only_header())
        assert trace.desynced == 0

    def test_sync_sets_last_sync_to_round_start(self):
        # last sync is kept for synced drifting nodes only; 1 ppm over 7 s
        # is 7 us, far inside the guard
        world = build_world(SimConfig(drift_ppm_range=(1.0, 1.0)), line_topology(3))
        world.now = 7 * US_SECOND
        trace = execute_round(world, _sync_only_header())
        assert trace.joined == 1 << 2
        assert last_sync_of(world, 2) == trace.t_start == 7 * US_SECOND
        # node 3 heard no sync: the flood stopped at bootstrap node 2
        assert last_sync_of(world, 3) is None
        assert world.synced_at == {7 * US_SECOND: 1 << 2}

    def test_rejoin_restores_margin(self):
        world = _synced_pair(100.0)
        world.now = 30 * US_SECOND
        first = execute_round(world, _sync_only_header())
        assert first.desynced == first.joined == 1 << 2
        # 10 s after the rejoin the offset is 1 ms, inside the guard
        world.now = 40 * US_SECOND
        trace = execute_round(world, _sync_only_header())
        assert trace.desynced == 0
        assert not world.bootstrap >> 2 & 1


def _old_guard_fails(gap, drift, guard):
    """The per-node clock guard test the thresholds replaced, verbatim."""
    return gap * abs(drift) * 1e-6 > guard


class TestLeastGap:
    def test_threshold_is_exact_under_the_old_float_test(self):
        rng = random.Random(22)
        drifts = [1e-3, -1e-3, 1e6, -1e6, 1e6 - 1e-9, -(1e6 - 1e-9), 999_999.5, 100.0, -500.0]
        guards = [0, 1, 2000, 1999, 2001, 10**7]
        pairs = [(d, g) for d in drifts for g in guards]
        while len(pairs) < 2000:
            # mostly log-uniform magnitudes from 1e-3 to 1e6 ppm, some uniform
            magnitude = 10 ** rng.uniform(-3, 6) if rng.random() < 0.8 else rng.uniform(0, 1e6)
            drift = rng.choice((-1, 1)) * magnitude
            guard = rng.choice((0, rng.randrange(1, 100), rng.randrange(10**7)))
            pairs.append((drift or 1e-3, guard))
        for drift, guard in pairs:
            gap = least_gap(drift, guard)
            assert _old_guard_fails(gap, drift, guard), (drift, guard, gap)
            assert not _old_guard_fails(gap - 1, drift, guard), (drift, guard, gap)

    @pytest.mark.parametrize("drift, guard", [(1e-300, 2000), (5e-324, 1), (1e-12, 10**7)])
    def test_no_threshold_in_reach_is_two_to_the_62(self, drift, guard):
        assert least_gap(drift, guard) == 1 << 62
        assert not _old_guard_fails((1 << 62) - 1, drift, guard)


class TestRequestBlock:
    def test_slotless_nodes_contend_and_win(self):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(2))
        execute_round(world, _sync_only_header())
        trace = execute_round(world, SyncHeader(US_SECOND, 2, 0))
        request, reply = trace.slots[1], trace.slots[2]
        assert request.kind == "request"
        assert request.contender_count == 1
        assert request.initiator == 2
        assert reply.kind == "reply"
        assert reply.requester == 2
        assert reply.assigned_slot == 0
        assert reply.new_assignment
        assert reply.delivered
        assert world.granted == 1 << 2
        assert world.schedule.slot_owner[0] == 2
        assert trace.new_assignments == [(0, 2)]

    def test_slot_holders_stop_contending(self):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(2))
        execute_round(world, _sync_only_header())
        execute_round(world, SyncHeader(US_SECOND, 2, 0))
        trace = execute_round(world, SyncHeader(US_SECOND, 2, 0))
        assert trace.slots[1].contender_count == 0
        assert [s.delivered for s in trace.slots if s.kind == "request"] == [False]

    def test_regrant_is_not_a_new_assignment(self):
        # the sink granted a slot but the reply flood was lost; the node
        # asks again and gets the same slot back without a fresh table entry
        cfg = SimConfig()
        world = build_world(cfg, line_topology(2))
        execute_round(world, _sync_only_header())
        world.schedule.slot_owner.append(2)
        trace = execute_round(world, SyncHeader(US_SECOND, 2, 0))
        reply = trace.slots[2]
        assert reply.requester == 2
        assert reply.assigned_slot == 0
        assert not reply.new_assignment
        assert trace.new_assignments == []
        assert world.granted == 1 << 2
        assert world.schedule.slot_owner[0] == 2

    def test_header_rr_count_must_match_group(self):
        cfg = SimConfig(forwarder_selection=True)
        world = build_world(cfg, line_topology(2))
        with pytest.raises(SimulationError, match="multiple"):
            execute_round(world, SyncHeader(US_SECOND, 2, 0))


class TestDataSlots:
    def _world_with_slot(self, generate=False):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(2))
        execute_round(world, _sync_only_header())
        execute_round(world, SyncHeader(US_SECOND, 2, 0))
        if not generate:
            # an empty queue, and no packet due before the test ends
            world.queue_start[2] = world.next_sequence = 10**15
        return world

    def test_owner_delivers_queued_packet(self):
        world = self._world_with_slot(generate=True)
        trace = execute_round(world, SyncHeader(5 * US_SECOND, 0, 1))
        data = trace.slots[1]
        assert data.kind == "data"
        assert data.owner == 2
        assert data.gen_round == 0
        assert data.payload_len == len(b"2:0")
        assert data.delivered

    def test_dry_queue_sends_keepalive(self):
        world = self._world_with_slot(generate=False)
        assert queue_of(world, 2) == []
        trace = execute_round(world, SyncHeader(5 * US_SECOND, 0, 1))
        data = trace.slots[1]
        assert data.payload_len == 0
        assert data.gen_round is None
        assert not data.delivered
        assert received_ids(data) == [1, 2]

    def test_unowned_data_slot_is_a_bug(self):
        world = self._world_with_slot()
        with pytest.raises(SimulationError, match="no owner"):
            execute_round(world, SyncHeader(5 * US_SECOND, 0, 2))

    def test_round_overflow_detected(self):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(2))
        with pytest.raises(SimulationError, match="overflows"):
            execute_round(world, SyncHeader(20_000, 2, 0))

    def test_overflowing_header_leaves_the_world_untouched(self):
        # the header's slots are checked against its period before the
        # round floods, draws or queues anything
        cfg = SimConfig(ipi=US_SECOND, loss_probability=0.5, seed=3)
        world = build_world(cfg, line_topology(4))
        execute_round(world, _sync_only_header())

        def state():
            return world.now, world.rng.getstate(), dict(world.queue_start), world.next_sequence

        before = state()
        with pytest.raises(SimulationError, match="round 1 overflows its period: 45000 > 20000"):
            execute_round(world, SyncHeader(20_000, 2, 0))
        assert state() == before


class TestGenerationAndQueue:
    def test_generation_follows_ipi(self):
        cfg = SimConfig(duration=21 * US_SECOND)
        result = run_simulation(cfg, line_topology(2))
        generated = [g for trace in result.traces for g in generated_of(trace)]
        # one packet at t=0, one at 10 s, one at 20 s
        assert [g[0] for g in generated] == [2, 2, 2]
        assert len(generated) == 3

    def test_full_queue_drops_oldest(self):
        cfg = SimConfig(
            ipi=5 * US_SECOND, queue_capacity=1, duration=10 * US_SECOND
        )
        result = run_simulation(cfg, line_topology(2))
        dropped = [d for trace in result.traces for d in trace.dropped]
        assert dropped == [2]
        # the queued packet is the newer one
        assert [g for t in result.traces for g in generated_of(t)] == [(2, 0), (2, 5)]
        assert queue_of(result.world, 2)[0][0] == 5

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_queues_follow_a_packet_by_packet_model(self, capacity):
        # Every source gets a packet each IPI while cool-off carries no
        # data slot, so queues fill up and overflow together. The model
        # queues one packet at a time, dropping the oldest of a full queue,
        # and pops one per data slot whose owner flooded.
        cfg = SimConfig(
            ipi=5 * US_SECOND, cooloff_period=60 * US_SECOND, queue_capacity=capacity,
            duration=100 * US_SECOND,
        )
        topo = random_connected_topology(random.Random(3), 5, max_ecc=3)
        sources = sorted(topo.nodes - {cfg.sink_node_id})
        model = {n: [] for n in sources}
        sequence = [0]
        drops = []

        def check(world, trace):
            due = range(sequence[0], trace.t_start // cfg.ipi + 1)
            sequence[0] = due.stop
            generated, dropped = [], []
            for n in sources:
                for s in due:
                    if len(model[n]) >= capacity:
                        model[n].pop(0)
                        dropped.append(n)
                    model[n].append((trace.index, len(f"{n}:{s}")))
                    generated.append((n, trace.index))
            for slot in trace.slots:
                if slot.kind == "data" and slot.payload_len is not None:
                    queue = model[slot.owner]
                    sent = queue.pop(0) if queue else (None, 0)
                    assert (slot.gen_round, slot.payload_len) == sent
            assert generated_of(trace) == generated
            assert trace.dropped == tuple(dropped)
            assert {n: queue_of(world, n) for n in sources} == model
            drops.extend(dropped)

        world, metrics, run = stepped_run(cfg, topo)
        for trace in run:
            check(world, trace)
        assert len(sources) >= 3
        assert drops and len(set(drops)) == len(sources)
        assert sum(s.delivered for s in metrics.sources.values()) > 0

    @pytest.mark.parametrize("ipi_s", [5, 7])
    def test_round_memory_stays_within_capacity(self, ipi_s):
        # the queues fill up through cool-off and drain in operation
        cfg = SimConfig(
            ipi=ipi_s * US_SECOND, queue_capacity=3, cooloff_period=40 * US_SECOND,
            duration=600 * US_SECOND,
        )
        sizes = []

        def check(world, trace):
            assert len(world.gen_rounds) <= cfg.queue_capacity
            assert all(len(queue_of(world, n)) <= cfg.queue_capacity for n in world.sources)
            sizes.append(len(world.gen_rounds))

        checked_traces(cfg, line_topology(4), check)
        assert max(sizes) == cfg.queue_capacity

    def test_late_round_queues_only_the_newest_packets(self):
        # eleven sequences fall due at once; each queue keeps the last three
        world = build_world(SimConfig(queue_capacity=3), line_topology(3))
        world.now = 100 * US_SECOND
        trace = execute_round(world, _sync_only_header())
        assert trace.sources == world.sources and trace.new_sequences == 11
        assert generated_of(trace) == [(2, 0)] * 11 + [(3, 0)] * 11
        assert trace.dropped == (2,) * 8 + (3,) * 8
        assert queue_of(world, 2) == [(0, len("2:8")), (0, len("2:9")), (0, len("2:10"))]
        assert world.gen_rounds == [0, 0, 0]

    def test_line_totals_at_capacity_one(self):
        # totals of a 3-node line whose queues overflow through cool-off
        cfg = SimConfig(
            ipi=5 * US_SECOND, cooloff_period=60 * US_SECOND, queue_capacity=1,
            duration=100 * US_SECOND,
        )
        aggregate = run_simulation(cfg, line_topology(3)).metrics.to_dict()["aggregate"]
        assert (aggregate["total_drops"], aggregate["total_delivered"]) == (28, 12)


def _awake_time(cfg, trace):
    """Radio time re-derived from a round's slots: each awake slot's
    length, plus the round period for a node that waited in bootstrap."""
    expect = dict.fromkeys(trace.node_ids, 0)
    for slot in trace.slots:
        length = cfg.sync_slot_length if slot.kind == "sync" else cfg.slot_length
        for n in awake_ids(slot):
            expect[n] += length
    for n in ids_of(trace.bootstrap):
        expect[n] += trace.round_period
    return expect


class TestRadioConservation:
    @pytest.mark.parametrize("fs", [False, True])
    def test_radio_equals_awake_slot_time_plus_bootstrap(self, fs):
        rng = random.Random(8080 + fs)
        topo = random_connected_topology(rng, 12)
        cfg = SimConfig(
            forwarder_selection=fs,
            loss_probability=0.2,
            duration=40 * US_SECOND,
            seed=5,
        )
        result = run_simulation(cfg, topo)
        for trace in result.traces:
            assert radio_on_of(trace) == _awake_time(cfg, trace), f"round {trace.index}"

    def test_new_assignments_bounded_by_request_slots(self):
        rng = random.Random(911)
        topo = random_connected_topology(rng, 15)
        cfg = SimConfig(loss_probability=0.1, duration=40 * US_SECOND, seed=3)
        result = run_simulation(cfg, topo)
        for trace in result.traces:
            assert len(trace.new_assignments) <= trace.n_rr // 2


class TestSharedRoundState:
    @staticmethod
    def _lossy_run(fs):
        rng = random.Random(4242 + fs)
        topo = random_connected_topology(rng, 20)
        cfg = SimConfig(
            forwarder_selection=fs,
            loss_probability=0.1,
            drift_ppm_range=(-300.0, 300.0),
            duration=60 * US_SECOND,
            seed=9,
        )
        return run_simulation(cfg, topo)

    @pytest.mark.parametrize("fs", [False, True])
    def test_full_receiver_list_is_the_awake_list(self, fs):
        # received is a subset of awake, so a receiver list as long as awake
        # equals it, and the two masks are equal
        flooded = [
            slot
            for trace in self._lossy_run(fs).traces
            for slot in trace.slots
            if slot.initiator is not None
        ]
        full = [s for s in flooded if len(received_ids(s)) == len(awake_ids(s))]
        partial = [s for s in flooded if len(received_ids(s)) != len(awake_ids(s))]
        assert {s.kind for s in full} >= {"sync", "request", "reply", "data"}
        assert partial
        for slot in full:
            assert slot.received_mask == slot.awake_mask, slot
        for slot in partial:
            assert len(received_ids(slot)) < len(awake_ids(slot))
            assert received_ids(slot) == sorted(set(received_ids(slot)) & set(awake_ids(slot)))

    @pytest.mark.parametrize("fs", [False, True])
    def test_radio_totals_share_one_int_per_value(self, fs):
        traces = self._lossy_run(fs).traces
        assert any(
            len(set(radio_on_of(t).values())) < len(radio_on_of(t)) - 1 for t in traces
        )
        for trace in traces:
            values = radio_on_of(trace).values()
            assert len({id(v) for v in values}) == len(set(values)), trace.index


class TestRadioRowMemo:
    """world.radio_rows holds one radio row per round key: the period, the
    sync slot's awake mask, the active mask (with request or data slots),
    n_rr, n_data and the number of slots announced below n_data (with data
    slots)."""

    def test_period_is_part_of_the_shape(self):
        # nodes 3 and 4 never hear the sink, so they wait in bootstrap
        # through rounds whose slots are awake on the same nodes
        world = build_world(SimConfig(), Topology.from_edges([(1, 2), (3, 4)]))
        short = execute_round(world, SyncHeader(US_SECOND, 0, 0))
        long = execute_round(world, SyncHeader(5 * US_SECOND, 0, 0))
        again = execute_round(world, SyncHeader(US_SECOND, 0, 0))
        assert short.slots[0].awake_mask == long.slots[0].awake_mask
        assert short.radio_totals == (US_SLOT, US_SLOT, US_SECOND, US_SECOND)
        assert long.radio_totals == (US_SLOT, US_SLOT, 5 * US_SECOND, 5 * US_SECOND)
        assert again.radio_totals is short.radio_totals

    def test_bootstrap_ids_are_part_of_the_shape(self):
        # the bootstrap ids are the nodes outside the sync slot's awake
        # mask: equal active masks with another sync awake mask miss
        world = build_world(SimConfig(), line_topology(3))
        active = Topology.mask_of([1, 2])
        header = SyncHeader(US_SECOND, 2, 0)
        waiting = _radio_totals(world, header, active, active)
        missed = _radio_totals(world, header, Topology.mask_of([1, 2, 3]), active)
        assert waiting == (3 * US_SLOT, 3 * US_SLOT, US_SECOND)
        assert missed == (3 * US_SLOT, 3 * US_SLOT, US_SLOT)
        assert _radio_totals(world, header, active, active) is waiting
        # without request or data slots the active mask is left out
        idle = _radio_totals(world, SyncHeader(US_SECOND, 0, 0), active, active)
        assert _radio_totals(world, SyncHeader(US_SECOND, 0, 0), active, 1 << 1) is idle
        assert idle == (US_SLOT, US_SLOT, US_SECOND)

    def test_rounds_of_equal_shape_share_one_row(self):
        result = run_simulation(SimConfig(duration=60 * US_SECOND), line_topology(5))
        rows = {}
        for trace in result.traces:
            sync = trace.slots[0]
            shape = (
                trace.round_period,
                sync.awake_mask,
                sync.received_mask if trace.n_rr or trace.n_data else 0,
                trace.n_rr,
                trace.n_data,
            )
            assert rows.setdefault(shape, trace.radio_totals) is trace.radio_totals
        assert len(rows) < len(result.traces) // 2
        assert len(result.world.radio_rows) == len(rows)

    def test_sync_only_rounds_share_a_row_across_reached_sets(self):
        # a synced node that misses a sync-only round's flood stays in its
        # awake mask and pays the sync slot, as a receiver does
        topo = random_connected_topology(random.Random(77), 12)
        cfg = SimConfig(loss_probability=0.3, duration=200 * US_SECOND, seed=4)
        rows, reached = {}, {}
        for trace in run_simulation(cfg, topo).traces:
            if trace.n_rr == trace.n_data == 0:
                sync = trace.slots[0]
                key = (trace.round_period, sync.awake_mask)
                assert rows.setdefault(key, trace.radio_totals) is trace.radio_totals
                reached.setdefault(key, set()).add(sync.received_mask)
        assert any(len(masks) > 1 for masks in reached.values())

    def test_capped_memo_still_returns_correct_rows(self, monkeypatch):
        topo = random_connected_topology(random.Random(4343), 15)
        cfg = SimConfig(
            loss_probability=0.2,
            drift_ppm_range=(50.0, 300.0),
            duration=120 * US_SECOND,
            seed=3,
        )
        uncapped = run_simulation(cfg, topo)
        monkeypatch.setattr(engine, "MEMO_CAP", 2)
        capped = run_simulation(cfg, topo)
        assert len(capped.world.radio_rows) == 2
        assert len(uncapped.world.radio_rows) > 2
        assert any(t.bootstrap for t in capped.traces)
        for trace, reference in zip(capped.traces, uncapped.traces, strict=True):
            assert trace.radio_totals == reference.radio_totals, trace.index
            assert radio_on_of(trace) == _awake_time(cfg, trace), trace.index


class TestRowsFromWakeCounts:
    """A row counts each node's slots from world.wake_counts instead of
    walking the slot masks; it must still equal the slot re-derivation."""

    @staticmethod
    def _runs():
        # no stabilization phase: sources get their slots in operational
        # data rounds, one request group each, so announces come after the
        # header fixed n_data, for a fresh slot or for one whose reply was
        # lost in an earlier round. In the small networks most rounds have
        # the same active set, so a row memo keyed without the slots
        # announced below n_data would return stale rows.
        families = [(random.Random(3), 8, 25, 5, 0.3), (random.Random(2), 5, 12, 3, 0.1)]
        for (rng, smallest, largest, ecc, loss), seed in itertools.product(families, range(1, 5)):
            topo = random_connected_topology(rng, rng.randint(smallest, largest), max_ecc=ecc)
            cfg = SimConfig(
                forwarder_selection=True,
                loss_probability=loss,
                drift_ppm_range=(50.0, 300.0),
                cooloff_period=2 * US_SECOND,
                stabilization_period=0,
                duration=120 * US_SECOND,
                seed=seed,
            )
            yield cfg, run_simulation(cfg, topo)

    @pytest.mark.parametrize("cap", [None, 2])
    def test_rows_equal_the_awake_slot_time(self, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(engine, "MEMO_CAP", cap)
        fresh = first_below = 0
        for cfg, result in self._runs():
            assert any(t.bootstrap for t in result.traces)
            if cap is not None:
                assert len(result.world.radio_rows) == cap
            for trace in result.traces:
                assert radio_on_of(trace) == _awake_time(cfg, trace), trace.index
                for slot in trace.slots:
                    if slot.kind == "announce" and slot.initiator is not None and trace.n_data:
                        fresh += slot.slot_id >= trace.n_data
                        first_below += slot.slot_id < trace.n_data
        assert fresh and first_below


BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_lossless_floods_share_one_kernel_run_per_relay_component(bench_run, monkeypatch):
    # the benchmark's seed-1 lwb-clean network: every flood of a settled
    # round reaches one relay component, so its 9,076 floods need about one
    # kernel run per distinct participant set, not one per initiator. Each
    # still goes through the engine's flood, which the traced pass hooks:
    # one per sync slot and one per other slot that received on somebody.
    topologies, config_text = bench_run.make_inputs(bench_run.WORKLOADS["lwb-clean"], 1)
    kernel_runs, floods = [], []
    monkeypatch.setattr(glossy, "waves", lambda *a: kernel_runs.append(a) or waves(*a))
    monkeypatch.setattr(engine, "flood", lambda *a: floods.append(a) or flood(*a))
    result = run_simulation(parse_config(config_text), load_topology(topologies[0]))
    assert len(kernel_runs) <= 10
    slots = [slot for trace in result.traces for slot in trace.slots]
    assert len(floods) == sum(s.kind == "sync" or s.received_mask != 0 for s in slots) > 9000

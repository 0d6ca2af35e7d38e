"""Round execution: joining, radio accounting, slot mechanics."""

import random

import pytest

from lwbsim.config import SimConfig
from lwbsim.core import SyncHeader
from lwbsim.engine import execute_round
from lwbsim.errors import SimulationError
from lwbsim.sim import build_world, run_simulation
from lwbsim.topology import Topology

from _support import line_topology, random_connected_topology

US_SLOT = 15_000
US_SECOND = 1_000_000


def _sync_only_header():
    return SyncHeader(US_SECOND, 0, 0)


class TestBootstrapAndSync:
    def test_first_round_charges_joiners_one_sync_slot(self):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(2))
        trace = execute_round(world, _sync_only_header())
        assert trace.joined == [2]
        assert trace.bootstrap == []
        assert trace.radio_on == {1: US_SLOT, 2: US_SLOT}

    def test_bootstrap_cascade_one_hop_per_round(self):
        # synced nodes relay the sync flood, bootstrap nodes only listen,
        # so the synced frontier grows by one hop per round along a line
        cfg = SimConfig(duration=6 * US_SECOND)
        result = run_simulation(cfg, line_topology(6))
        joined = [trace.joined for trace in result.traces[:5]]
        assert joined == [[2], [3], [4], [5], [6]]

    def test_waiting_bootstrap_node_pays_full_round(self):
        cfg = SimConfig(duration=6 * US_SECOND)
        result = run_simulation(cfg, line_topology(6))
        per_round = [trace.radio_on[6] for trace in result.traces[:5]]
        assert per_round == [US_SECOND] * 4 + [US_SLOT]

    def test_synced_node_missing_sync_sits_out(self):
        # line 1-2-3 with node 2 still in bootstrap: node 3 is synced but
        # the sync flood dies at node 2, so node 3 pays one wasted sync
        # slot and skips the rest of the round
        cfg = SimConfig()
        world = build_world(cfg, line_topology(3))
        world.nodes[3].bootstrap = False
        trace = execute_round(world, SyncHeader(US_SECOND, 2, 0))
        assert trace.joined == [2]
        sync_slot = trace.slots[0]
        assert sync_slot.received == [1, 2]
        assert trace.radio_on[3] == US_SLOT
        for slot in trace.slots[1:]:
            assert 3 not in slot.awake
            assert 3 not in slot.received

    def test_missed_sync_does_not_unsync(self):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(3))
        world.nodes[3].bootstrap = False
        execute_round(world, _sync_only_header())
        assert not world.nodes[3].bootstrap


GUARD = SimConfig.glossy_guard_time  # 2 ms


def _synced_pair(drift, guard=GUARD):
    """A 2-node line whose node 2 drifts by drift ppm and last synced at 0."""
    cfg = SimConfig(drift_ppm_range=(drift, drift), glossy_guard_time=guard)
    world = build_world(cfg, line_topology(2))
    world.nodes[2].bootstrap = False
    world.nodes[2].last_sync = 0
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
        assert trace.desynced == ([2] if desyncs else [])

    def test_drifted_node_desyncs_and_rejoins_same_round(self):
        # 100 ppm over 30 s piles up 3 ms, past the 2 ms guard
        world = _synced_pair(100.0)
        world.now = 30 * US_SECOND
        trace = execute_round(world, _sync_only_header())
        assert trace.desynced == [2]
        assert trace.joined == [2]
        assert not world.nodes[2].bootstrap
        assert trace.radio_on[2] == US_SLOT

    def test_offset_at_exact_guard_keeps_node_synced(self):
        # 100 ppm over 20 s is exactly the 2 ms guard: not strictly over it
        assert 20 * US_SECOND * 100.0 * 1e-6 == 2000.0
        world = _synced_pair(100.0)
        world.now = 20 * US_SECOND
        trace = execute_round(world, _sync_only_header())
        assert trace.desynced == []

    def test_sync_sets_last_sync_to_round_start(self):
        world = build_world(SimConfig(), line_topology(3))
        world.now = 7 * US_SECOND
        trace = execute_round(world, _sync_only_header())
        assert trace.joined == [2]
        assert world.nodes[2].last_sync == trace.t_start == 7 * US_SECOND
        # node 3 heard no sync: the flood stopped at bootstrap node 2
        assert world.nodes[3].last_sync == 0

    def test_rejoin_restores_margin(self):
        world = _synced_pair(100.0)
        world.now = 30 * US_SECOND
        first = execute_round(world, _sync_only_header())
        assert first.desynced == first.joined == [2]
        # 10 s after the rejoin the offset is 1 ms, inside the guard
        world.now = 40 * US_SECOND
        trace = execute_round(world, _sync_only_header())
        assert trace.desynced == []
        assert not world.nodes[2].bootstrap


class TestRequestBlock:
    def test_slotless_nodes_contend_and_win(self):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(2))
        execute_round(world, _sync_only_header())
        trace = execute_round(world, SyncHeader(US_SECOND, 2, 0))
        request, reply = trace.slots[1], trace.slots[2]
        assert request.kind == "request"
        assert request.contender_count == 1
        assert request.winner == 2
        assert reply.kind == "reply"
        assert reply.requester == 2
        assert reply.assigned_slot == 0
        assert reply.new_assignment
        assert reply.delivered
        assert world.nodes[2].my_slot == 0
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
        assert world.nodes[2].my_slot == 0

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
            world.nodes[2].queue.clear()
            world.nodes[2].next_sequence = 10**15
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
        trace = execute_round(world, SyncHeader(5 * US_SECOND, 0, 1))
        data = trace.slots[1]
        assert data.payload_len == 0
        assert data.gen_round is None
        assert not data.delivered
        assert data.received == [1, 2]

    def test_unowned_data_slot_is_a_bug(self):
        world = self._world_with_slot()
        with pytest.raises(SimulationError, match="no owner"):
            execute_round(world, SyncHeader(5 * US_SECOND, 0, 2))

    def test_round_overflow_detected(self):
        cfg = SimConfig()
        world = build_world(cfg, line_topology(2))
        with pytest.raises(SimulationError, match="overflows"):
            execute_round(world, SyncHeader(20_000, 2, 0))


class TestGenerationAndQueue:
    def test_generation_follows_ipi(self):
        cfg = SimConfig(duration=21 * US_SECOND)
        result = run_simulation(cfg, line_topology(2))
        generated = [g for trace in result.traces for g in trace.generated]
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
        assert [g for t in result.traces for g in t.generated] == [(2, 0), (2, 5)]
        assert list(result.world.nodes[2].queue)[0][0] == 5


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
            expect = {n: 0 for n in topo.nodes}
            for slot in trace.slots:
                length = (
                    cfg.sync_slot_length if slot.kind == "sync" else cfg.slot_length
                )
                for n in slot.awake:
                    expect[n] += length
            for n in trace.bootstrap:
                expect[n] += trace.round_period
            assert trace.radio_on == expect, f"round {trace.index}"

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
        full = [s for s in flooded if len(s.received) == len(s.awake)]
        partial = [s for s in flooded if len(s.received) != len(s.awake)]
        assert {s.kind for s in full} >= {"sync", "request", "reply", "data"}
        assert partial
        for slot in full:
            assert slot.received_mask == slot.awake_mask, slot
        for slot in partial:
            assert len(slot.received) < len(slot.awake)
            assert slot.received == sorted(set(slot.received) & set(slot.awake))

    @pytest.mark.parametrize("fs", [False, True])
    def test_radio_totals_share_one_int_per_value(self, fs):
        traces = self._lossy_run(fs).traces
        assert any(
            len(set(t.radio_on.values())) < len(t.radio_on) - 1 for t in traces
        )
        for trace in traces:
            values = trace.radio_on.values()
            assert len({id(v) for v in values}) == len(set(values)), trace.index

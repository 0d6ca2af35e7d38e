"""Sink schedule logic: phases, headers, contention, slot grants."""

import random

import pytest

from lwbsim.config import SimConfig
from lwbsim.core import (
    PHASE_COOLOFF,
    PHASE_OPERATIONAL,
    PHASE_STABILIZATION,
    SinkSchedule,
    SyncHeader,
    advance_phase,
    contend,
    data_round_cadence,
    sink_assign,
    sink_build_sync,
    update_rr_dynamics,
)
from lwbsim.engine import SlotTrace
from lwbsim.errors import SimulationError, SlotCapacityError


class TestAdvancePhase:
    def test_cooloff_runs_ten_one_second_rounds(self):
        cfg = SimConfig()
        sched = SinkSchedule()
        seen = []
        for _ in range(25):
            advance_phase(sched, cfg)
            header = sink_build_sync(sched, cfg)
            seen.append(sched.phase)
            sched.phase_clock += header.round_period
        assert seen[:10] == [PHASE_COOLOFF] * 10
        assert seen[10:20] == [PHASE_STABILIZATION] * 10
        assert seen[20:] == [PHASE_OPERATIONAL] * 5

    def test_entering_stabilization_sets_rr_block(self):
        cfg = SimConfig()
        sched = SinkSchedule(phase_clock=10_000_000)
        advance_phase(sched, cfg)
        assert sched.phase == PHASE_STABILIZATION
        assert sched.rr_current == 64

    def test_zero_length_phases_chain(self):
        cfg = SimConfig(cooloff_period=0, stabilization_period=0)
        sched = SinkSchedule()
        advance_phase(sched, cfg)
        assert sched.phase == PHASE_OPERATIONAL

    def test_phase_does_not_regress(self):
        cfg = SimConfig()
        sched = SinkSchedule(phase=PHASE_OPERATIONAL, phase_clock=0)
        advance_phase(sched, cfg)
        assert sched.phase == PHASE_OPERATIONAL


class TestSinkBuildSync:
    def test_cooloff_header(self):
        assert sink_build_sync(SinkSchedule(), SimConfig()) == SyncHeader(
            1_000_000, 0, 0
        )

    def test_stabilization_header_uses_current_block(self):
        sched = SinkSchedule(phase=PHASE_STABILIZATION, rr_current=64)
        assert sink_build_sync(sched, SimConfig()) == SyncHeader(1_000_000, 64, 0)

    def test_operational_data_round_header(self):
        sched = SinkSchedule(phase=PHASE_OPERATIONAL, slot_owner=[2, 3, 4, 5, 6, 7, 8])
        assert sink_build_sync(sched, SimConfig()) == SyncHeader(5_000_000, 2, 7)

    def test_operational_sync_only_header(self):
        sched = SinkSchedule(phase=PHASE_OPERATIONAL, phase_clock=5_000_000)
        assert sink_build_sync(sched, SimConfig()) == SyncHeader(5_000_000, 0, 0)

    def test_unknown_phase_rejected(self):
        with pytest.raises(SimulationError):
            sink_build_sync(SinkSchedule(phase="limbo"), SimConfig())


class TestDataRoundCadence:
    def test_default_every_other_round(self):
        cfg = SimConfig()  # ipi 10 s, round 5 s
        pattern = [data_round_cadence(cfg, i) for i in range(6)]
        assert pattern == [True, False, True, False, True, False]

    def test_ipi_equals_round_every_round(self):
        cfg = SimConfig(ipi=5_000_000)
        assert all(data_round_cadence(cfg, i) for i in range(5))

    def test_non_multiple_ipi_floors(self):
        cfg = SimConfig(ipi=12_000_000)  # floor(12/5) = 2
        pattern = [data_round_cadence(cfg, i) for i in range(4)]
        assert pattern == [True, False, True, False]


class TestContend:
    def test_empty_slot(self):
        assert contend([], "capture", random.Random(0)) is None

    def test_single_contender_needs_no_draw(self):
        class Boom(random.Random):
            def randrange(self, *a):
                raise AssertionError("drew for a solo contender")

        assert contend([5], "capture", Boom()) == 5

    def test_capture_picks_uniform_winner(self):
        rng = random.Random(11)
        wins = {3: 0, 7: 0, 9: 0}
        for _ in range(3000):
            wins[contend({9, 3, 7}, "capture", rng)] += 1
        for count in wins.values():
            assert 850 <= count <= 1150

    def test_capture_is_order_independent(self):
        a = contend([9, 3, 7], "capture", random.Random(6))
        b = contend([3, 7, 9], "capture", random.Random(6))
        assert a == b

    def test_collision_destroys_multiple(self):
        assert contend([3, 7], "collision", random.Random(0)) is None

    def test_collision_lets_single_through(self):
        assert contend([3], "collision", random.Random(0)) == 3

    def test_unknown_policy(self):
        with pytest.raises(SimulationError):
            contend([1, 2], "shove", random.Random(0))


class TestSinkAssign:
    def test_dense_assignment(self):
        sched = SinkSchedule()
        assert sink_assign(sched, 4) == 0
        assert sink_assign(sched, 2) == 1
        assert sink_assign(sched, 9) == 2
        assert sched.slot_owner == [4, 2, 9]
        sched.assert_injective()

    def test_duplicate_request_returns_existing_slot(self):
        sched = SinkSchedule()
        sink_assign(sched, 4)
        sink_assign(sched, 2)
        again = sink_assign(sched, 4)
        assert again == 0
        assert sched.slot_owner == [4, 2]
        sched.assert_injective()

    def test_capacity_exhaustion(self):
        sched = SinkSchedule()
        sink_assign(sched, 4, capacity=1)
        with pytest.raises(SlotCapacityError):
            sink_assign(sched, 5, capacity=1)
        # the holder can still re-request at capacity
        assert sink_assign(sched, 4, capacity=1) == 0

    def test_injectivity_check_catches_corruption(self):
        sched = SinkSchedule()
        sink_assign(sched, 4)
        sink_assign(sched, 5)
        sched.slot_owner[0] = 5
        with pytest.raises(SimulationError):
            sched.assert_injective()


def _requests(outcomes):
    """One request slot per outcome: the requester the sink heard, or None."""
    return [SlotTrace(0, "request", 0, 0, winner=o, delivered=o is not None) for o in outcomes]


class TestUpdateRrDynamics:
    def _schedule(self):
        return SinkSchedule(phase=PHASE_STABILIZATION, rr_current=64)

    def test_single_empty_slot_is_not_enough(self):
        cfg = SimConfig()
        sched = self._schedule()
        update_rr_dynamics(sched, _requests([None, 4, None]), cfg)
        assert sched.empty_streak == 1
        assert sched.rr_current == 64

    def test_two_consecutive_empty_slots_reduce(self):
        cfg = SimConfig()
        sched = self._schedule()
        update_rr_dynamics(sched, _requests([4, 7, None, None, 9]), cfg)
        assert sched.rr_current == 2

    def test_streak_spans_round_boundary(self):
        cfg = SimConfig()
        sched = self._schedule()
        update_rr_dynamics(sched, _requests([4, None]), cfg)
        assert sched.rr_current == 64
        update_rr_dynamics(sched, _requests([None, 3]), cfg)
        assert sched.rr_current == 2

    def test_reduction_is_permanent(self):
        cfg = SimConfig()
        sched = self._schedule()
        update_rr_dynamics(sched, _requests([None, None]), cfg)
        update_rr_dynamics(sched, _requests([5, 6]), cfg)
        assert sched.rr_current == 2

    def test_fs_reduces_to_three(self):
        cfg = SimConfig(forwarder_selection=True)
        sched = SinkSchedule(phase=PHASE_STABILIZATION, rr_current=63)
        update_rr_dynamics(sched, _requests([None, None]), cfg)
        assert sched.rr_current == 3

    def test_rounds_trigger_needs_two_empty_rounds(self):
        cfg = SimConfig(rr_reduction_trigger="rounds")
        sched = self._schedule()
        update_rr_dynamics(sched, _requests([None, None, None]), cfg)
        assert sched.rr_current == 64
        update_rr_dynamics(sched, _requests([None, None, None]), cfg)
        assert sched.rr_current == 2

    def test_rounds_trigger_resets_on_any_request(self):
        cfg = SimConfig(rr_reduction_trigger="rounds")
        sched = self._schedule()
        update_rr_dynamics(sched, _requests([None, None]), cfg)
        update_rr_dynamics(sched, _requests([None, 8]), cfg)
        assert sched.empty_streak == 0
        update_rr_dynamics(sched, _requests([None, None]), cfg)
        assert sched.rr_current == 64

    def test_no_request_slots_leaves_state_alone(self):
        cfg = SimConfig(rr_reduction_trigger="rounds")
        sched = self._schedule()
        sched.empty_streak = 1
        update_rr_dynamics(sched, _requests([]), cfg)
        assert sched.empty_streak == 1
        assert sched.rr_current == 64

    def test_only_request_slots_count(self):
        # the other slots of a round deliver nothing to the sink's request
        # count, empty or not
        cfg = SimConfig(forwarder_selection=True)
        sched = SinkSchedule(phase=PHASE_STABILIZATION, rr_current=63)
        others = [SlotTrace(0, kind, 0, 0) for kind in ("sync", "reply", "announce", "data")]
        update_rr_dynamics(sched, others + _requests([None]) + others, cfg)
        assert sched.empty_streak == 1
        assert sched.rr_current == 63

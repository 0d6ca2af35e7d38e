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
    phase_at,
    phase_starts,
    sink_assign,
    sink_build_sync,
    update_rr_dynamics,
)
from lwbsim.engine import AnnounceSlot, DataSlot, ReplySlot, RequestSlot, SyncSlot
from lwbsim.errors import SimulationError
from lwbsim.topology import Topology

PHASES = [PHASE_COOLOFF, PHASE_STABILIZATION, PHASE_OPERATIONAL]


def _schedule(rr_current=0, slot_owner=()):
    sched = SinkSchedule()
    sched.rr_current, sched.slot_owner = rr_current, list(slot_owner)
    return sched


class TestAdvancePhase:
    def test_cooloff_runs_ten_one_second_rounds(self):
        cfg = SimConfig()
        sched = SinkSchedule()
        seen, now = [], 0
        for _ in range(25):
            advance_phase(sched, cfg, now)
            header = sink_build_sync(sched, cfg, now)
            seen.append(phase_at(cfg, now))
            now += header.round_period
        assert seen[:10] == [PHASE_COOLOFF] * 10
        assert seen[10:20] == [PHASE_STABILIZATION] * 10
        assert seen[20:] == [PHASE_OPERATIONAL] * 5

    def test_entering_stabilization_sets_rr_block(self):
        cfg = SimConfig()
        sched = SinkSchedule()
        advance_phase(sched, cfg, 9_000_000)
        assert sched.rr_current == 0
        advance_phase(sched, cfg, 10_000_000)
        assert phase_at(cfg, 10_000_000) == PHASE_STABILIZATION
        assert sched.rr_current == 64

    def test_reduced_block_is_not_reopened(self):
        cfg = SimConfig()
        sched = _schedule(rr_current=2)
        advance_phase(sched, cfg, 11_000_000)
        assert sched.rr_current == 2

    def test_zero_length_phases_chain(self):
        cfg = SimConfig(cooloff_period=0, stabilization_period=0)
        assert phase_at(cfg, 0) == PHASE_OPERATIONAL
        assert sink_build_sync(SinkSchedule(), cfg, 0) == SyncHeader(5_000_000, 2, 0)

    @pytest.mark.parametrize(
        "cooloff, stabilization, starts",
        [
            (10_000_000, 10_000_000, (10_000_000, 20_000_000)),
            (0, 0, (0, 0)),
            (0, 3_000_000, (0, 3_000_000)),
            (2_000_000, 0, (2_000_000, 2_000_000)),
            (1_500_001, 2_250_000, (2_000_000, 5_000_000)),
            (1, 999_999, (1_000_000, 2_000_000)),
        ],
    )
    def test_phase_changes_only_at_the_phase_starts(self, cooloff, stabilization, starts):
        # on a 250 ms grid with each start and the microsecond before it, the
        # phase moves forward, and only at the starts that end a phase
        cfg = SimConfig(cooloff_period=cooloff, stabilization_period=stabilization)
        assert phase_starts(cfg) == starts
        grid = {*range(0, starts[1] + 3_000_000, 250_000), *starts, *(s - 1 for s in starts)}
        grid = sorted(grid - {-1})
        phases = [phase_at(cfg, now) for now in grid]
        assert [PHASES.index(p) for p in phases] == sorted(PHASES.index(p) for p in phases)
        steps = zip(grid[1:], phases, phases[1:])
        changes = [now for now, before, after in steps if before != after]
        assert changes == sorted({s for s in starts if s})
        assert phases[0] == PHASES[sum(s == 0 for s in starts)]
        assert phases[-1] == PHASE_OPERATIONAL


class TestSinkBuildSync:
    def test_cooloff_header(self):
        assert sink_build_sync(SinkSchedule(), SimConfig(), 0) == SyncHeader(
            1_000_000, 0, 0
        )

    def test_stabilization_header_uses_current_block(self):
        sched = _schedule(rr_current=64)
        assert sink_build_sync(sched, SimConfig(), 10_000_000) == SyncHeader(1_000_000, 64, 0)

    def test_operational_data_round_header(self):
        # the default operational phase starts at 20 s
        sched = _schedule(slot_owner=[2, 3, 4, 5, 6, 7, 8])
        assert sink_build_sync(sched, SimConfig(), 20_000_000) == SyncHeader(5_000_000, 2, 7)

    def test_operational_sync_only_header(self):
        sched = SinkSchedule()
        assert sink_build_sync(sched, SimConfig(), 25_000_000) == SyncHeader(5_000_000, 0, 0)


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


_mask = Topology.mask_of


def _old_contend(ids, policy, rng):
    """The list-based contention the mask version replaced."""
    pool = sorted(set(ids))
    if not pool:
        return None
    if len(pool) == 1:
        return pool[0]
    if policy == "capture":
        return pool[rng.randrange(len(pool))]
    return None


class TestContend:
    def test_empty_slot(self):
        assert contend(_mask([]), "capture", random.Random(0)) is None

    def test_single_contender_needs_no_draw(self):
        class Boom(random.Random):
            def randrange(self, *a):
                raise AssertionError("drew for a solo contender")

        assert contend(_mask([5]), "capture", Boom()) == 5

    def test_capture_picks_uniform_winner(self):
        rng = random.Random(11)
        wins = {3: 0, 7: 0, 9: 0}
        for _ in range(3000):
            wins[contend(_mask({9, 3, 7}), "capture", rng)] += 1
        for count in wins.values():
            assert 850 <= count <= 1150

    def test_capture_is_order_independent(self):
        a = contend(_mask([9, 3, 7]), "capture", random.Random(6))
        b = contend(_mask([3, 7, 9]), "capture", random.Random(6))
        assert a == b

    def test_collision_destroys_multiple(self):
        assert contend(_mask([3, 7]), "collision", random.Random(0)) is None

    def test_collision_lets_single_through(self):
        assert contend(_mask([3]), "collision", random.Random(0)) == 3

    def test_unknown_policy(self):
        with pytest.raises(SimulationError):
            contend(_mask([1, 2]), "shove", random.Random(0))

    @pytest.mark.parametrize("policy", ["capture", "collision"])
    def test_mask_matches_the_sorted_id_list(self, policy):
        # same winner and same rng state after the call: one draw only for
        # capture among two or more contenders
        pick = random.Random(9)
        id_sets = [[], [1], [65535], [4, 2], [3, 150, 77], list(range(2, 151))]
        id_sets += [pick.sample(range(1, 65536), k) for k in (2, 3, 5, 40, 300) for _ in range(4)]
        for ids in id_sets:
            for seed in range(25):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert contend(_mask(ids), policy, ours) == _old_contend(ids, policy, theirs)
                assert ours.getstate() == theirs.getstate()


class TestSinkAssign:
    def test_dense_assignment(self):
        sched = SinkSchedule()
        assert sink_assign(sched, 4, 3) == 0
        assert sink_assign(sched, 2, 3) == 1
        assert sink_assign(sched, 9, 3) == 2
        assert sched.slot_owner == [4, 2, 9]
        sched.assert_injective()

    def test_duplicate_request_returns_existing_slot(self):
        sched = SinkSchedule()
        sink_assign(sched, 4, 2)
        sink_assign(sched, 2, 2)
        again = sink_assign(sched, 4, 2)
        assert again == 0
        assert sched.slot_owner == [4, 2]
        sched.assert_injective()

    def test_capacity_exhaustion(self):
        sched = SinkSchedule()
        assert sink_assign(sched, 5, capacity=0) is None
        assert sched.slot_owner == []
        sink_assign(sched, 4, capacity=1)
        assert sink_assign(sched, 5, capacity=1) is None
        assert sched.slot_owner == [4]
        # the holder can still re-request at capacity
        assert sink_assign(sched, 4, capacity=1) == 0
        assert sched.slot_owner == [4]

    def test_injectivity_check_catches_corruption(self):
        sched = SinkSchedule()
        sink_assign(sched, 4, 2)
        sink_assign(sched, 5, 2)
        sched.slot_owner[0] = 5
        with pytest.raises(SimulationError):
            sched.assert_injective()


def _requests(outcomes):
    """One request slot per outcome: the requester the sink heard, or None."""
    return [RequestSlot(0, 0, o, 0, o is not None) for o in outcomes]


class TestUpdateRrDynamics:
    def _schedule(self):
        return _schedule(rr_current=64)

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
        sched = _schedule(rr_current=63)
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
        sched = _schedule(rr_current=63)
        others = [
            SyncSlot(0, 0, None), ReplySlot(0, 0, None), AnnounceSlot(0, 0, None),
            DataSlot(0, 0, None),
        ]
        update_rr_dynamics(sched, others + _requests([None]) + others, cfg)
        assert sched.empty_streak == 1
        assert sched.rr_current == 63

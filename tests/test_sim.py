"""Whole-run behavior: phase schedule, determinism, trace output."""

import copy
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from lwbsim.config import SimConfig
from lwbsim.engine import RoundTrace, SlotTrace
from lwbsim.errors import ConfigError, SimulationError
from lwbsim.glossy import ids_of
from lwbsim.sim import (
    build_world,
    forwarder_table,
    render_trace,
    run_simulation,
    write_trace,
)
from lwbsim.topology import Topology

from _support import (
    diamond_pendant,
    line_topology,
    random_connected_topology,
    reference_render_trace,
    shortest_path_forwarders,
)

US_SECOND = 1_000_000
DATA_DIR = Path(__file__).parent / "data"


class TestPhaseSchedule:
    def test_default_line_run_walks_all_phases(self):
        cfg = SimConfig(duration=60 * US_SECOND)
        result = run_simulation(cfg, line_topology(5))
        phases = [t.phase for t in result.traces]
        assert phases[:10] == ["cool-off"] * 10
        assert phases[10:20] == ["stabilization"] * 10
        assert phases[20:] == ["operational"] * 8
        assert [t.round_period for t in result.traces[:20]] == [US_SECOND] * 20
        assert [t.round_period for t in result.traces[20:]] == [5 * US_SECOND] * 8

    def test_cooloff_rounds_carry_only_sync(self):
        cfg = SimConfig(duration=60 * US_SECOND)
        result = run_simulation(cfg, line_topology(5))
        for trace in result.traces[:10]:
            assert trace.n_rr == 0 and trace.n_data == 0
            assert [s.kind for s in trace.slots] == ["sync"]

    def test_first_stabilization_round_opens_full_block(self):
        cfg = SimConfig(duration=60 * US_SECOND)
        result = run_simulation(cfg, line_topology(5))
        assert result.traces[10].n_rr == 64
        # four sources acquire immediately, the rest of the block is empty,
        # so the block drops to one group from the next round on
        assert all(t.n_rr == 2 for t in result.traces[11:20])

    def test_all_sources_acquire_in_first_stabilization_round(self):
        cfg = SimConfig(duration=60 * US_SECOND)
        result = run_simulation(cfg, line_topology(5))
        for n in (2, 3, 4, 5):
            assert result.metrics.sources[n].acquisition_round == 10
        assert len(result.world.schedule.slot_owner) == 4

    def test_operational_rounds_alternate_data_and_sync_only(self):
        cfg = SimConfig(duration=60 * US_SECOND)
        result = run_simulation(cfg, line_topology(5))
        op = result.traces[20:]
        assert [t.n_data for t in op] == [4, 0, 4, 0, 4, 0, 4, 0]
        assert [t.n_rr for t in op] == [2, 0, 2, 0, 2, 0, 2, 0]

    def test_every_round_starts_with_a_sink_sync_slot(self):
        cfg = SimConfig(duration=40 * US_SECOND)
        result = run_simulation(cfg, line_topology(4))
        for trace in result.traces:
            first = trace.slots[0]
            assert first.kind == "sync"
            assert first.initiator == 1
            assert first.t == trace.t_start

    def test_slot_count_matches_header(self):
        cfg = SimConfig(duration=60 * US_SECOND, forwarder_selection=True)
        result = run_simulation(cfg, line_topology(5))
        for trace in result.traces:
            assert len(trace.slots) == 1 + trace.n_rr + trace.n_data


class TestDeterminism:
    def _scenario(self, seed):
        rng = random.Random(402)
        topo = random_connected_topology(rng, 12)
        cfg = SimConfig(
            duration=30 * US_SECOND,
            loss_probability=0.3,
            drift_ppm_range=(50.0, 150.0),
            forwarder_selection=True,
            seed=seed,
        )
        return run_simulation(cfg, topo)

    def test_same_seed_is_byte_identical(self):
        a = render_trace(self._scenario(9).traces)
        b = render_trace(self._scenario(9).traces)
        assert a == b

    def test_different_seed_differs(self):
        a = render_trace(self._scenario(9).traces)
        b = render_trace(self._scenario(10).traces)
        assert a != b

    def test_drift_draws_only_when_range_nonempty(self):
        # with a zero drift range the rng must not be consumed before the
        # first round, so both runs see identical contention draws
        cfg = SimConfig(duration=30 * US_SECOND, seed=4)
        topo = line_topology(4)
        plain = run_simulation(cfg, topo)
        world = build_world(cfg, topo)
        assert all(n.drift_ppm == 0.0 for n in world.nodes.values())
        assert render_trace(plain.traces) == render_trace(
            run_simulation(cfg, topo).traces
        )

    def test_drift_draws_in_node_id_order(self):
        cfg = SimConfig(drift_ppm_range=(10.0, 20.0), seed=6)
        world = build_world(cfg, line_topology(4))
        rng = random.Random(6)
        expected = [rng.uniform(10.0, 20.0) for _ in range(3)]
        assert [world.nodes[n].drift_ppm for n in (2, 3, 4)] == expected
        assert world.nodes[1].drift_ppm == 0.0


class TestTraceOutput:
    def test_records_are_json_lines_with_dense_seq(self):
        cfg = SimConfig(duration=25 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        lines = render_trace(result.traces).splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == list(range(len(records)))
        kinds = {r["kind"] for r in records}
        assert kinds == {"slot", "round"}

    def test_each_round_closes_with_a_summary_record(self):
        cfg = SimConfig(duration=25 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        records = [json.loads(l) for l in render_trace(result.traces).splitlines()]
        per_round: dict[int, list[str]] = {}
        for rec in records:
            per_round.setdefault(rec["round"], []).append(rec["kind"])
        for kinds in per_round.values():
            assert kinds[-1] == "round"
            assert kinds.count("round") == 1

    def test_slot_times_increase_within_a_round(self):
        cfg = SimConfig(duration=25 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        for trace in result.traces:
            times = [s.t for s in trace.slots]
            assert times == sorted(times)
            assert all(
                trace.t_start <= t < trace.t_start + trace.round_period for t in times
            )

    def test_write_trace_round_trips(self, tmp_path):
        cfg = SimConfig(duration=12 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        out = tmp_path / "trace.jsonl"
        with open(out, "w", encoding="utf-8") as f:
            write_trace(f, result.traces)
        assert out.read_text(encoding="utf-8") == render_trace(result.traces)

    def test_empty_trace_renders_empty_string(self):
        assert render_trace([]) == ""


def _hand_built_round(index, slots, radio_on, **lists):
    empty = dict.fromkeys(("joined", "desynced", "bootstrap", "generated", "dropped"), [])
    return RoundTrace(
        index=index, t_start=index * US_SECOND, phase="cool-off", mode="lwb",
        round_period=US_SECOND, n_rr=0, n_data=0, slots=slots,
        node_ids=tuple(radio_on), radio_totals=tuple(radio_on.values()),
        **{**empty, **lists},
    )


class TestRenderOracle:
    """render_trace against the dict-per-record reference renderer."""

    @staticmethod
    def _run(seed, fs):
        # 125 ms rounds hold 5 data slots (4 with forwarder selection), too
        # few for most of these graphs, so replies overflow the capacity
        rng = random.Random(seed)
        topo = random_connected_topology(rng, rng.randint(8, 40), max_ecc=6)
        cfg = SimConfig(
            minimum_lwb_round=125_000,
            ipi=2 * US_SECOND,
            duration=60 * US_SECOND,
            forwarder_selection=fs,
            loss_probability=0.1,
            drift_ppm_range=(200.0, 2000.0),
            seed=seed,
        )
        return run_simulation(cfg, topo)

    SEEDS = [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("fs", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference_renderer(self, seed, fs):
        result = self._run(seed, fs)
        slots = [s for t in result.traces for s in t.slots]
        kinds = {"sync", "request", "reply", "data"} | ({"announce"} if fs else set())
        assert {s.kind for s in slots} == kinds
        assert any(s.capacity_exceeded for s in slots)
        # the round record's lists are compared filled, not only empty
        for field in ("joined", "new_assignments", "generated", "dropped"):
            assert any(getattr(t, field) for t in result.traces), field
        assert render_trace(result.traces) == reference_render_trace(result.traces)

    @pytest.mark.parametrize("fs", [False, True])
    def test_compared_runs_hold_desyncs(self, fs):
        # not every seed desyncs a node, but the seeds compared above do
        assert any(t.desynced for seed in self.SEEDS for t in self._run(seed, fs).traces)

    def test_hand_built_rounds_with_unseen_ids(self):
        # ids the first round never mentions, ids past MAX_NODE_NUMBER,
        # empty masks and one mask shared by two slots
        mask = Topology.mask_of
        shared = mask([3, 250])
        traces = [
            _hand_built_round(
                0, [SlotTrace(0, "sync", mask([1, 2]), mask([2]), 1)], {1: 10, 2: 10}
            ),
            _hand_built_round(
                1,
                [
                    SlotTrace(US_SECOND, "sync", mask([1, 9]), 0, 1),
                    SlotTrace(US_SECOND + 10, "request", shared, shared, None),
                    SlotTrace(US_SECOND + 15, "reply", shared, shared, 1, requester=3,
                              assigned_slot=0, new_assignment=True, delivered=True),
                    SlotTrace(US_SECOND + 20, "data", 0, shared, 3, slot_id=0,
                              owner=3, payload_len=8, gen_round=1, delivered=True),
                ],
                {1: 30, 3: 20, 9: 10, 250: 20},
                joined=[3, 250], desynced=[9],
                bootstrap=[40, 1000], generated=[(3, 1), (77, 0)], dropped=[77],
            ),
        ]
        assert render_trace(traces) == reference_render_trace(traces)

    def test_hand_built_slots_with_fields_zero_and_one(self):
        # True == 1 and False == 0: an int field must never print as a
        # JSON bool, and a bool field never as a number
        both = Topology.mask_of([1, 2])
        slots = [
            SlotTrace(0, "sync", both, both, 1),
            SlotTrace(1, "request", both, both, 1, contender_count=1, winner=1, delivered=True),
            SlotTrace(2, "request", both, 0, None, contender_count=0),
            SlotTrace(3, "reply", both, both, 1, requester=1, assigned_slot=0,
                      new_assignment=True, delivered=False),
            SlotTrace(4, "reply", both, 0, None, requester=1, capacity_exceeded=True),
            SlotTrace(5, "announce", both, both, 1, source=1, announced_distance=0, slot_id=0),
            SlotTrace(6, "announce", both, 0, None),
            SlotTrace(7, "data", both, both, 1, slot_id=0, owner=1, payload_len=0,
                      gen_round=1, delivered=True),
            SlotTrace(8, "data", both, both, 1, slot_id=1, owner=1, payload_len=1,
                      gen_round=0, delivered=False),
            SlotTrace(9, "data", both, both, 1, slot_id=0, owner=1, payload_len=0),
            SlotTrace(10, "data", both, 0, None, slot_id=0, owner=1),
        ]
        traces = [_hand_built_round(0, slots, {1: 0, 2: 1})]
        text = render_trace(traces)
        assert text == reference_render_trace(traces)
        assert '"winner":1,' in text and '"payload_len":0,"gen_round":1,' in text

    @pytest.mark.parametrize("fs", [False, True])
    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_ids_at_mask_byte_edges(self, loss, fs):
        # ids on both sides of byte boundaries, past 256 and up to the
        # 16-bit limit: mask texts are built per (byte index, byte value)
        edges = [(1, 7), (1, 8), (1, 9), (8, 255), (9, 256), (255, 257),
                 (256, 300), (7, 300), (300, 4096), (257, 65535), (4096, 65535)]
        topo = Topology.from_edges(edges)
        cfg = SimConfig(
            max_node_number=65535,
            duration=60 * US_SECOND,
            ipi=5 * US_SECOND,
            forwarder_selection=fs,
            loss_probability=loss,
            seed=3,
        )
        result = run_simulation(cfg, topo)
        slots = [s for t in result.traces for s in t.slots]
        assert {s.kind for s in slots} >= {"sync", "request", "reply", "data"}
        assert set().union(*(s.received for s in slots)) == topo.nodes
        for slot in slots:
            assert slot.awake == sorted(slot.awake)
            assert slot.received == sorted(slot.received)
            assert set(slot.received) <= set(slot.awake)
        assert render_trace(result.traces) == reference_render_trace(result.traces)

    def test_cache_survives_rounds_freed_by_a_generator(self):
        # each copy is dropped once rendered, so its lists' ids come free
        # for the next copy's lists unless the cache keeps them alive
        result = self._run(3, True)
        copies = (copy.deepcopy(t) for t in result.traces)
        assert render_trace(copies) == render_trace(result.traces)


class TestWorldConstruction:
    def test_sink_must_be_in_topology(self):
        topo = Topology.from_edges([(2, 3)])
        with pytest.raises(SimulationError, match="sink node 1"):
            build_world(SimConfig(), topo)

    def test_node_ids_bounded_by_config(self):
        topo = Topology.from_edges([(1, 200)])
        with pytest.raises(SimulationError, match="outside"):
            build_world(SimConfig(), topo)

    def test_run_validates_config(self):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(ipi=1 * US_SECOND), line_topology(2))

    def test_isolated_node_never_joins(self):
        topo = Topology.from_edges([(1, 2)], isolated=[3])
        cfg = SimConfig(duration=30 * US_SECOND)
        result = run_simulation(cfg, topo)
        assert result.metrics.duty_cycle(3) == 1.0
        assert result.metrics.sources[3].acquisition_round is None
        assert all(3 in t.bootstrap for t in result.traces)


class TestCapacityPressure:
    def test_overflowing_requests_raise_capacity_events(self):
        # 105 ms rounds hold 4 data slots; 6 sources want one each
        cfg = SimConfig(
            minimum_lwb_round=105_000,
            ipi=10 * US_SECOND,
            duration=22 * US_SECOND,
        )
        assert cfg.data_slot_capacity() == 4
        result = run_simulation(cfg, line_topology(7))
        assert len(result.world.schedule.slot_owner) == 4
        events = sum(t.capacity_events for t in result.traces)
        assert events > 0
        flagged = [
            s
            for t in result.traces
            for s in t.slots
            if s.kind == "reply" and s.capacity_exceeded
        ]
        assert len(flagged) == events
        holders = sum(
            1 for n in (2, 3, 4, 5, 6, 7) if result.metrics.sources[n].slot is not None
        )
        assert holders == 4


class TestDesyncCycle:
    def test_thirty_second_rounds_desync_adjacent_node_every_round(self):
        cfg = SimConfig(
            minimum_lwb_round=30 * US_SECOND,
            ipi=30 * US_SECOND,
            drift_ppm_range=(100.0, 100.0),
            duration=110 * US_SECOND,
        )
        result = run_simulation(cfg, line_topology(2))
        short_rounds = result.traces[:20]
        assert all(t.desynced == [] for t in short_rounds)
        op = [t for t in result.traces if t.phase == "operational"]
        assert len(op) == 3
        # the first operational round starts one second after the last
        # stabilization sync; only the 30 s gaps after it break the guard
        assert op[0].desynced == []
        for trace in op[1:]:
            assert trace.desynced == [2]
            assert trace.joined == [2]
        # the node keeps its slot across the hiccups, so data still flows
        assert result.metrics.sources[2].pdr == 1.0
        assert result.metrics.sources[2].delivered > 0

    def test_twenty_second_rounds_sit_exactly_on_the_guard(self):
        cfg = SimConfig(
            minimum_lwb_round=20 * US_SECOND,
            ipi=20 * US_SECOND,
            drift_ppm_range=(100.0, 100.0),
            duration=120 * US_SECOND,
        )
        result = run_simulation(cfg, line_topology(2))
        assert all(t.desynced == [] for t in result.traces)


class TestForwarderTable:
    def test_table_matches_two_distance_rule(self):
        cfg = SimConfig(forwarder_selection=True, duration=20 * US_SECOND)
        topo = diamond_pendant()
        result = run_simulation(cfg, topo)
        table = forwarder_table(result)
        assert len(table) == 4
        for row in table:
            assert row["distance"] is not None
            expected = shortest_path_forwarders(topo, 1, row["owner"])
            assert row["forwarders"] == sorted(expected)

    def test_plain_mode_table_lists_everyone(self):
        cfg = SimConfig(duration=20 * US_SECOND)
        result = run_simulation(cfg, line_topology(4))
        for row in forwarder_table(result):
            assert row["forwarders"] == [1, 2, 3, 4]
            assert row["distance"] is None


def _radio_rounds(text, slot_length, sync_slot_length):
    """Per round, (radio_on as rendered, radio_on re-derived from the slot
    and round records alone): every awake slot costs slot_length, a sync
    slot sync_slot_length, and bootstrap costs the whole round period."""
    rounds = []
    expected = Counter()
    for line in text.splitlines():
        rec = json.loads(line)
        if rec["kind"] == "slot":
            cost = sync_slot_length if rec["type"] == "sync" else slot_length
            for n in rec["awake"]:
                expected[n] += cost
            continue
        for n in rec["bootstrap"]:
            expected[n] += rec["period"]
        got = {int(n): us for n, us in rec["radio_on"].items()}
        assert set(expected) <= set(got)
        rounds.append((got, {n: expected[n] for n in got}))
        expected = Counter()
    return rounds


class TestRadioAccounting:
    @pytest.mark.parametrize("name", ["golden_lwb.jsonl", "golden_fs.jsonl"])
    def test_golden_radio_on_matches_awake_slots(self, name):
        cfg = SimConfig()
        text = (DATA_DIR / name).read_text(encoding="utf-8")
        rounds = _radio_rounds(text, cfg.slot_length, cfg.sync_slot_length)
        assert rounds
        for index, (got, want) in enumerate(rounds):
            assert got == want, f"round {index}"

    def test_lossy_drifting_run_radio_on_matches_awake_slots(self):
        # distinct sync and data slot lengths keep the two terms apart
        cfg = SimConfig(
            duration=120 * US_SECOND,
            forwarder_selection=True,
            loss_probability=0.2,
            drift_ppm_range=(50.0, 300.0),
            slot_length=10_000,
            sync_slot_length=20_000,
            seed=5,
        )
        topo = random_connected_topology(random.Random(77), 15, max_ecc=4)
        result = run_simulation(cfg, topo)
        assert any(t.desynced for t in result.traces)
        assert any(t.bootstrap for t in result.traces)
        text = render_trace(result.traces)
        rounds = _radio_rounds(text, cfg.slot_length, cfg.sync_slot_length)
        assert len(rounds) == len(result.traces)
        for index, (got, want) in enumerate(rounds):
            assert got == want, f"round {index}"


class TestSharedRoundLists:
    """The engine walks world.nodes in dict order and hands the sync flood's
    receivers, as one mask, to the sync slot and the request block."""

    def test_world_nodes_are_in_ascending_id_order(self):
        topo = Topology.from_edges([(100, 1), (1, 40), (40, 9), (9, 33), (33, 64)])
        world = build_world(SimConfig(), topo)
        assert list(world.nodes) == sorted(topo.nodes)

    def test_lossless_sync_and_request_block_share_one_list(self):
        cfg = SimConfig(duration=40 * US_SECOND)
        result = run_simulation(cfg, line_topology(5))
        checked = 0
        for trace in result.traces:
            if trace.index < 4 or not trace.n_rr:
                continue  # the line joins one hop per round
            sync, request = trace.slots[0], trace.slots[1]
            assert sync.awake_mask == sync.received_mask
            assert request.awake_mask == sync.received_mask
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("guard", [0, SimConfig.glossy_guard_time])
    def test_lossy_drifting_run_shares_receivers_and_keeps_the_sink_active(self, guard):
        cfg = SimConfig(
            duration=120 * US_SECOND,
            forwarder_selection=True,
            loss_probability=0.2,
            drift_ppm_range=(50.0, 300.0),
            glossy_guard_time=guard,
            seed=5,
        )
        topo = random_connected_topology(random.Random(77), 15, max_ecc=4)
        result = run_simulation(cfg, topo)
        sink = cfg.sink_node_id
        missed = 0
        for trace in result.traces:
            sync = trace.slots[0]
            if trace.n_rr:
                assert sync.received_mask == trace.slots[1].awake_mask
            missed += sync.awake_mask != sync.received_mask
            for slot in trace.slots:
                assert set(slot.received) <= set(slot.awake)
                assert sink in slot.awake
            assert sink not in trace.desynced + trace.joined + trace.bootstrap
        # with no guard every synced node desyncs at each round start, so
        # only the sink relays the sync and no synced node can miss it
        assert any(t.desynced for t in result.traces)
        assert (missed == 0) == (guard == 0)


class TestDataSlotMembership:
    @pytest.mark.parametrize("fs", [True, False])
    def test_awake_lists_match_membership_oracle(self, fs):
        rng = random.Random(903)
        selected = 0
        for run in range(4):
            topo = random_connected_topology(rng, rng.randint(8, 25), max_ecc=5)
            cfg = SimConfig(
                duration=90 * US_SECOND,
                forwarder_selection=fs,
                loss_probability=0.1,
                seed=run,
            )
            sink = cfg.sink_node_id

            def check(world, trace):
                nonlocal selected
                active = set(trace.slots[0].received)
                requests = [s for s in trace.slots if s.kind == "request"]
                for slot in requests:
                    assert slot.awake == sorted(active)
                    assert slot.awake_mask == requests[0].awake_mask
                for slot in trace.slots:
                    if slot.kind != "data":
                        continue
                    if fs and slot.slot_id in world.announced_slots:
                        _, forwarders = world.announced_slots[slot.slot_id]
                        want = set(ids_of(forwarders)) & active
                        want |= {slot.owner} & active
                        want.add(sink)
                        assert slot.awake == sorted(want)
                        selected += slot.awake_mask != requests[0].awake_mask
                    else:
                        assert slot.awake_mask == requests[0].awake_mask

            run_simulation(cfg, topo, on_round=check)
        assert (selected > 0) == fs


class TestSlotTableAgreement:
    @pytest.mark.parametrize("fs", [False, True])
    def test_owners_distinct_and_every_held_slot_owned(self, fs):
        # the sink's dense slot list is the one slot table: owners never
        # repeat, and a node that believes it holds a slot owns that index,
        # through lost replies, desyncs and rejoins
        cfg = SimConfig(
            duration=160 * US_SECOND,
            forwarder_selection=fs,
            loss_probability=0.2,
            drift_ppm_range=(50.0, 300.0),
            seed=7,
        )
        topo = random_connected_topology(random.Random(313), 16, max_ecc=4)
        held = []

        def check(world, trace):
            owners = world.schedule.slot_owner
            assert len(set(owners)) == len(owners)
            holders = [n for n, s in world.nodes.items() if s.my_slot is not None]
            for n in holders:
                assert owners[world.nodes[n].my_slot] == n
            held.append(len(holders))

        result = run_simulation(cfg, topo, on_round=check)
        assert len(held) == len(result.traces) and max(held) > 0
        assert any(t.desynced for t in result.traces)
        replies = [s for t in result.traces for s in t.slots if s.kind == "reply"]
        assert any(s.assigned_slot is not None and not s.delivered for s in replies)

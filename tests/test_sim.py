"""Whole-run behavior: phase schedule, determinism, trace output."""

import copy
import hashlib
import json
import os
import random
from collections import Counter
from pathlib import Path

import pytest

from lwbsim.config import SimConfig
from lwbsim.core import last_round_start
from lwbsim.engine import (
    AnnounceSlot, DataSlot, ReplySlot, RequestSlot, RoundTrace, SyncSlot, least_gap,
)
from lwbsim.errors import ConfigError, SimulationError, TopologyError
from lwbsim.glossy import ids_of
from lwbsim.sim import (
    build_world,
    check_topology,
    forwarder_table,
    render_trace,
    run_simulation,
    write_trace,
)
from lwbsim.topology import Topology

from _support import (
    SCHEMA_HEADER,
    desync_gap_of,
    diamond_pendant,
    line_topology,
    random_connected_topology,
    read_trace,
    reference_render_trace,
    schema1_text,
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
        assert world.drift_cuts == [] and world.drift_prefix == [0]
        assert render_trace(plain.traces) == render_trace(
            run_simulation(cfg, topo).traces
        )

    def test_drift_draws_in_node_id_order(self):
        cfg = SimConfig(drift_ppm_range=(10.0, 20.0), seed=6)
        world = build_world(cfg, line_topology(4))
        rng = random.Random(6)
        expected = [rng.uniform(10.0, 20.0) for _ in range(3)]
        gaps = [least_gap(drift, cfg.glossy_guard_time) for drift in expected]
        assert [desync_gap_of(world, n) for n in (2, 3, 4)] == gaps
        assert len(set(gaps)) == 3  # so the gaps tell the draws apart
        assert desync_gap_of(world, 1) is None


class TestTraceOutput:
    def test_records_are_json_lines_with_dense_seq(self):
        cfg = SimConfig(duration=25 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        header, *lines = render_trace(result.traces).splitlines()
        assert json.loads(header) == SCHEMA_HEADER
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == list(range(len(records)))
        kinds = {r["kind"] for r in records}
        assert kinds == {"slot", "round"}

    def test_each_round_closes_with_a_summary_record(self):
        cfg = SimConfig(duration=25 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        records = [json.loads(l) for l in render_trace(result.traces).splitlines()[1:]]
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

    def test_empty_trace_renders_the_header_alone(self):
        assert render_trace([]) == '{"kind":"schema","version":2}\n'


def _hand_built_round(index, slots, radio_on, **lists):
    empty = dict.fromkeys(("joined", "desynced", "bootstrap", "generated", "dropped"), [])
    return RoundTrace(
        index=index, t_start=index * US_SECOND, phase="cool-off", mode="lwb",
        round_period=US_SECOND, n_rr=0, n_data=0, slots=slots,
        node_ids=tuple(radio_on), radio_totals=tuple(radio_on.values()),
        **{**empty, **lists},
    )


class TestRenderOracle:
    """render_trace, read back into schema-1 records, against the
    dict-per-record schema-1 renderer."""

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
        assert schema1_text(render_trace(result.traces)) == reference_render_trace(result.traces)

    @pytest.mark.parametrize("fs", [False, True])
    def test_compared_runs_hold_desyncs(self, fs):
        # not every seed desyncs a node, but the seeds compared above do
        assert any(t.desynced for seed in self.SEEDS for t in self._run(seed, fs).traces)

    def test_hand_built_rounds_with_unseen_ids(self):
        # ids the first round never mentions, ids past MAX_NODE_NUMBER,
        # empty masks, one mask shared by three slots and a slot that
        # missed all of its awake nodes
        mask = Topology.mask_of
        shared = mask([3, 250])
        traces = [
            _hand_built_round(
                0, [SyncSlot(0, mask([1, 2]), mask([2]), 1)], {1: 10, 2: 10}
            ),
            _hand_built_round(
                1,
                [
                    SyncSlot(US_SECOND, mask([1, 9]), 0, 1),
                    RequestSlot(US_SECOND + 10, shared, shared, None, 0, None, False),
                    ReplySlot(US_SECOND + 15, shared, shared, 1, requester=3,
                              assigned_slot=0, new_assignment=True, delivered=True),
                    DataSlot(US_SECOND + 20, shared, 0, 3, slot_id=0,
                             owner=3, payload_len=8, gen_round=1, delivered=True),
                ],
                {1: 30, 3: 20, 9: 10, 250: 20},
                joined=[3, 250], desynced=[9],
                bootstrap=[40, 1000], generated=[(3, 1), (77, 0)], dropped=[77],
            ),
        ]
        assert schema1_text(render_trace(traces)) == reference_render_trace(traces)

    def test_radio_rows_are_keyed_by_value(self, tmp_path):
        # equal totals in distinct tuple objects, and equal totals under
        # other node ids; streamed rounds are made one at a time and
        # dropped once rendered, so a freed row's id() can come back
        rows = [
            {1: 10, 2: 20, 300: 30},
            {1: 10, 2: 20, 300: 30},
            {1: 10, 3: 20, 300: 30},
            {1: 10, 2: 20, 301: 30},
            {1: 30, 2: 20, 300: 10},
            {1: 10, 2: 20, 300: 30},
        ]

        def rounds():
            for index, radio_on in enumerate(rows):
                t = index * US_SECOND
                sync = SyncSlot(t, Topology.mask_of(radio_on), 0, 1)
                yield _hand_built_round(index, [sync], dict(radio_on))

        traces = list(rounds())
        assert traces[0].radio_totals == traces[1].radio_totals
        assert traces[0].radio_totals is not traces[1].radio_totals
        assert traces[0].radio_totals == traces[2].radio_totals
        assert traces[0].node_ids != traces[2].node_ids
        want = reference_render_trace(traces)
        assert schema1_text(render_trace(traces)) == want
        out = tmp_path / "trace.jsonl"
        with open(out, "w", encoding="utf-8") as f:
            write_trace(f, rounds())
        assert schema1_text(out.read_text(encoding="utf-8")) == want

    def test_hand_built_slots_with_fields_zero_and_one(self):
        # True == 1 and False == 0: an int field must never print as a
        # JSON bool, and a bool field never as a number
        both = Topology.mask_of([1, 2])
        slots = [
            SyncSlot(0, both, both, 1),
            RequestSlot(1, both, both, 1, contender_count=1, winner=1, delivered=True),
            RequestSlot(2, both, 0, None, contender_count=0, winner=None, delivered=False),
            ReplySlot(3, both, both, 1, requester=1, assigned_slot=0,
                      new_assignment=True, delivered=False),
            ReplySlot(4, both, 0, None, requester=1, capacity_exceeded=True),
            AnnounceSlot(5, both, both, 1, source=1, announced_distance=0, slot_id=0),
            AnnounceSlot(6, both, 0, None),
            DataSlot(7, both, both, 1, slot_id=0, owner=1, payload_len=0,
                     gen_round=1, delivered=True),
            DataSlot(8, both, both, 1, slot_id=1, owner=1, payload_len=1,
                     gen_round=0, delivered=False),
            DataSlot(9, both, both, 1, slot_id=0, owner=1, payload_len=0),
            DataSlot(10, both, 0, None, slot_id=0, owner=1),
        ]
        traces = [_hand_built_round(0, slots, {1: 0, 2: 1})]
        text = render_trace(traces)
        assert schema1_text(text) == reference_render_trace(traces)
        assert '"winner":1,' in text and '"payload_len":0,"gen_round":1,' in text

    @pytest.mark.parametrize("awake_ids", [[1, 2], [1]])
    def test_receiver_outside_the_awake_set_is_refused(self, awake_ids):
        # schema 2 writes only the awake ids that missed, so a receiver
        # outside the awake set has no place in the text and must not be
        # dropped without a word
        both, awake = Topology.mask_of([1, 2]), Topology.mask_of(awake_ids)
        stray = Topology.mask_of([1, 3])
        for slot in (
            DataSlot(1, awake, stray, 1, slot_id=0, owner=1),
            RequestSlot(1, awake, stray, 1, contender_count=1, winner=1, delivered=True),
        ):
            traces = [_hand_built_round(0, [SyncSlot(0, both, both, 1), slot], {1: 0, 2: 1})]
            with pytest.raises(SimulationError, match="t=1 received off its awake set"):
                render_trace(traces)
        # receiving on all or part of the awake set is fine
        for received in (awake, 1 << 1):
            slot = DataSlot(1, awake, received, 1, slot_id=0, owner=1)
            traces = [_hand_built_round(0, [SyncSlot(0, both, both, 1), slot], {1: 0, 2: 1})]
            assert schema1_text(render_trace(traces)) == reference_render_trace(traces)

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
        assert schema1_text(render_trace(result.traces)) == reference_render_trace(result.traces)

    def test_cache_survives_rounds_freed_by_a_generator(self):
        # each copy is dropped once rendered, so its lists' ids come free
        # for the next copy's lists unless the cache keeps them alive
        result = self._run(3, True)
        copies = (copy.deepcopy(t) for t in result.traces)
        assert render_trace(copies) == render_trace(result.traces)


GOLDENS = ["golden_lwb.jsonl", "golden_fs.jsonl", "golden_fs_lossy.jsonl"]


def _golden_traces(name):
    """The rounds of the run each golden file was rendered from."""
    from test_acceptance import _golden_run

    if name == "golden_fs_lossy.jsonl":
        return _lossy_drifting_run().traces
    return _golden_run(name == "golden_fs.jsonl").traces


def _golden_slots(name):
    """(raw slot record, the round's active ids) for every slot of a
    golden file, read straight from its JSON lines."""
    active = None
    for line in (DATA_DIR / name).read_text(encoding="utf-8").splitlines()[1:]:
        rec = json.loads(line)
        if rec["kind"] == "slot":
            if rec["type"] == "sync":
                active = rec["received"]
            yield rec, active


class TestTraceSchema:
    """Schema 2: the header line, the sync slot's two lists, awake only off
    the active set, missed in place of received, and a lossless reader."""

    def test_first_line_is_the_header(self):
        result = run_simulation(SimConfig(duration=12 * US_SECOND), line_topology(3))
        first, *rest = render_trace(result.traces).splitlines()
        assert first == '{"kind":"schema","version":2}'
        assert rest and {json.loads(line)["kind"] for line in rest} == {"slot", "round"}

    @pytest.mark.parametrize("name", GOLDENS)
    def test_golden_reads_back_to_the_schema1_oracle(self, name):
        text = (DATA_DIR / name).read_text(encoding="utf-8")
        assert schema1_text(text) == reference_render_trace(_golden_traces(name))

    @pytest.mark.parametrize("case", range(20))
    def test_random_run_reads_back_to_the_schema1_oracle(self, case):
        # cases 0-11 cover both modes x loss 0, 0.1, 0.5 x drift off and on
        rng = random.Random(4000 + case)
        topo = random_connected_topology(rng, rng.randint(5, 14), max_ecc=4)
        cfg = SimConfig(
            minimum_lwb_round=500_000,
            ipi=US_SECOND,
            duration=36 * US_SECOND,
            forwarder_selection=bool(case % 2),
            loss_probability=(0.0, 0.1, 0.5)[case // 2 % 3],
            drift_ppm_range=(200.0, 2000.0) if case // 6 % 2 else (0.0, 0.0),
            seed=case,
        )
        traces = run_simulation(cfg, topo).traces
        assert schema1_text(render_trace(traces)) == reference_render_trace(traces)

    def test_lwb_slots_on_the_active_set_omit_awake(self):
        # at loss 0 a flooded slot misses no one, a silent one everyone
        kinds = Counter()
        for rec, active in _golden_slots("golden_lwb.jsonl"):
            if rec["type"] != "sync":
                assert "awake" not in rec and "received" not in rec
                assert rec["missed"] == ([] if rec["initiator"] else active)
                kinds[rec["type"], rec["initiator"] is None] += 1
        assert {kind for kind, _ in kinds} == {"request", "reply", "data"}
        assert {silent for _, silent in kinds} == {False, True}

    def test_trimmed_fs_data_slot_keeps_awake(self):
        records = [rec for rec, _ in _golden_slots("golden_fs.jsonl")]
        slots = [slot for trace in _golden_traces("golden_fs.jsonl") for slot in trace.slots]
        assert len(records) == len(slots)
        trimmed = 0
        for rec, slot in zip(records, slots):
            if slot.kind == "sync":
                active = slot.received_mask
            elif slot.awake_mask != active:
                assert rec["awake"] == slot.awake
                trimmed += slot.kind == "data"
            else:
                assert "awake" not in rec
        assert trimmed > 0

    @pytest.mark.parametrize("name", GOLDENS)
    def test_sync_slot_keeps_awake_and_received(self, name):
        syncs = [rec for rec, _ in _golden_slots(name) if rec["type"] == "sync"]
        assert syncs
        for rec in syncs:
            assert list(rec)[5:8] == ["initiator", "awake", "received"]
            assert "missed" not in rec

    @pytest.mark.parametrize("name", GOLDENS)
    def test_missed_within_awake(self, name):
        lost = 0  # flooded slots that missed someone: only under loss
        for rec, active in _golden_slots(name):
            if rec["type"] != "sync":
                awake = rec.get("awake", active)
                assert rec["missed"] == sorted(rec["missed"])
                assert set(rec["missed"]) <= set(awake)
                lost += rec["initiator"] is not None and rec["missed"] != []
        assert (lost > 0) == (name == "golden_fs_lossy.jsonl")


class TestWorldConstruction:
    def test_sink_must_be_in_topology(self):
        topo = Topology.from_edges([(2, 3)])
        with pytest.raises(TopologyError, match="sink node 1"):
            build_world(SimConfig(), topo)

    def test_node_ids_bounded_by_config(self):
        topo = Topology.from_edges([(1, 200)])
        with pytest.raises(TopologyError, match="outside"):
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


class TestPayloadLimit:
    """MAX_PAYLOAD_LEN is checked once, before the run, against the longest
    packet text "node:seq" the run will generate."""

    @pytest.mark.parametrize("cooloff", [0, 1_500_000, 10 * US_SECOND])
    @pytest.mark.parametrize("stabilization", [0, 10 * US_SECOND])
    def test_rejected_up_front_exactly_when_a_packet_is_too_long(
        self, cooloff, stabilization
    ):
        limits = range(3, 8)
        for ipi in (5, 7, 10):
            for seconds in (1, 50, 100, 500, 1000):
                for extra in (0, 1, US_SECOND + 1, 2 * US_SECOND + 1):
                    cfg = SimConfig(
                        ipi=ipi * US_SECOND,
                        cooloff_period=cooloff,
                        stabilization_period=stabilization,
                        duration=seconds * US_SECOND + extra,
                        max_payload_len=10**6,
                    )
                    # the real schedule's last round, from an unlimited run
                    last = run_simulation(cfg, line_topology(2)).traces[-1]
                    assert last_round_start(cfg) == last.t_start
                    for source in (9, 10, 99, 100):
                        topo = Topology.from_edges([(1, source)])
                        longest = len(f"{source}:{last.t_start // cfg.ipi}")
                        for limit in limits:
                            limited = cfg.replace(max_payload_len=limit)
                            if longest > limit:
                                with pytest.raises(ConfigError, match="MAX_PAYLOAD_LEN"):
                                    check_topology(limited, topo)
                            else:
                                check_topology(limited, topo)

    def test_run_fails_before_its_first_round(self):
        cfg = SimConfig(max_payload_len=4, ipi=5 * US_SECOND, duration=1000 * US_SECOND)

        def no_round(world, trace):
            pytest.fail("a round ran although MAX_PAYLOAD_LEN was too small")

        with pytest.raises(ConfigError, match="too small for '3:199', a 5-byte packet"):
            run_simulation(cfg, line_topology(3), on_round=no_round)

    def test_queued_lengths_are_the_packet_texts(self):
        cfg = SimConfig(ipi=5 * US_SECOND, duration=120 * US_SECOND)
        result = run_simulation(cfg, Topology.from_edges([(1, 9), (9, 10), (10, 100)]))
        sent = [
            (s.owner, s.gen_round, s.payload_len)
            for t in result.traces for s in t.slots if s.gen_round is not None
        ]
        start = {t.index: t.t_start for t in result.traces}
        assert {n for n, _, _ in sent} == {9, 10, 100}
        for owner, gen_round, length in sent:
            assert length == len(f"{owner}:{start[gen_round] // cfg.ipi}")
        # the sink sends nothing, so a topology of the sink alone has no limit
        check_topology(cfg.replace(max_payload_len=0), Topology.from_edges([], [1]))


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
    and round records that read_trace rebuilds from the text alone): every
    awake slot costs slot_length, a sync slot sync_slot_length, and
    bootstrap costs the whole round period."""
    rounds = []
    expected = Counter()
    for rec in read_trace(text):
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


def _lossy_drifting_run(on_round=None):
    """A forwarder-selection run with loss, drift, desyncs and rejoins;
    distinct sync and data slot lengths keep the two radio terms apart."""
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
    return run_simulation(cfg, topo, on_round)


class TestLossyGolden:
    def test_lossy_drifting_run_matches_golden_bytes(self):
        # the other goldens are loss-0 runs; this one pins the rng stream,
        # the guard check and the per-node radio rows of a lossy run.
        # Regenerate after an intended change with LWBSIM_REGEN_GOLDEN=1.
        rendered = render_trace(_lossy_drifting_run().traces).encode("utf-8")
        path = DATA_DIR / "golden_fs_lossy.jsonl"
        if os.environ.get("LWBSIM_REGEN_GOLDEN") == "1":
            path.write_bytes(rendered)
        assert path.read_bytes() == rendered


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
        result = _lossy_drifting_run()
        cfg = result.config
        assert any(t.desynced for t in result.traces)
        assert any(t.bootstrap for t in result.traces)
        text = render_trace(result.traces)
        rounds = _radio_rounds(text, cfg.slot_length, cfg.sync_slot_length)
        assert len(rounds) == len(result.traces)
        for index, (got, want) in enumerate(rounds):
            assert got == want, f"round {index}"


class TestSharedRoundLists:
    """The world lists its nodes in ascending id order and the engine hands
    the sync flood's receivers, as one mask, to the sync slot and the
    request block."""

    def test_world_nodes_are_in_ascending_id_order(self):
        topo = Topology.from_edges([(100, 1), (1, 40), (40, 9), (9, 33), (33, 64)])
        world = build_world(SimConfig(), topo)
        assert list(world.node_ids) == sorted(topo.nodes)

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
            holders = ids_of(world.granted)
            for n in holders:
                assert n in owners
            held.append(len(holders))

        result = run_simulation(cfg, topo, on_round=check)
        assert len(held) == len(result.traces) and max(held) > 0
        assert any(t.desynced for t in result.traces)
        replies = [s for t in result.traces for s in t.slots if s.kind == "reply"]
        assert any(s.assigned_slot is not None and not s.delivered for s in replies)


def _random_drifting_fs_run(on_round=None):
    """A 40-node forwarder-selection run at loss 0.3 with DRIFT_PPM_RANGE =
    500, so nodes desync, miss syncs and rejoin in many rounds."""
    cfg = SimConfig(
        duration=150 * US_SECOND,
        forwarder_selection=True,
        loss_probability=0.3,
        drift_ppm_range=(-500.0, 500.0),
        seed=11,
    )
    topo = random_connected_topology(random.Random(4040), 40, extra_edge_prob=0.1, max_ecc=6)
    return run_simulation(cfg, topo, on_round)


class TestRoundState:
    @pytest.mark.parametrize("run", [_random_drifting_fs_run, _lossy_drifting_run])
    def test_bootstrap_joined_and_desynced_agree_with_world(self, run):
        # world.bootstrap and the trace's bootstrap, joined and desynced
        # lists tell one story in every round
        ends = []  # world.bootstrap at the end of every round

        def check(world, trace):
            sink = world.config.sink_node_id
            sync = trace.slots[0]
            previous = ends[-1] if ends else Topology.mask_of(set(world.node_ids) - {sink})
            outside = [n for n in world.node_ids if not sync.awake_mask >> n & 1]
            assert trace.bootstrap == outside
            assert world.bootstrap == Topology.mask_of(trace.bootstrap)
            assert set(trace.joined) <= set(sync.received)
            for n in trace.joined:
                assert previous >> n & 1 or n in trace.desynced
            for n in trace.desynced:  # synced drifting nodes only
                assert world.drift_prefix[-1] >> n & 1
                assert not previous >> n & 1
            for ids in (trace.bootstrap, trace.joined, trace.desynced):
                assert sink not in ids
            ends.append(world.bootstrap)

        result = run(check)
        traces = result.traces
        assert len(ends) == len(traces)
        assert any(t.desynced for t in traces)
        assert any(t.joined for t in traces[1:])
        assert any(t.bootstrap for t in traces)
        assert any(set(t.joined) & set(t.desynced) for t in traces)
        # some synced node missed a sync: awake in the sync slot, not active
        assert any(t.slots[0].awake_mask != t.slots[0].received_mask for t in traces)


class TestMetricsFold:
    def test_source_stats_follow_from_the_records(self):
        # every per-source total RunMetrics folds, re-derived from the
        # records read back from the rendered text of a lossy, drifting
        # forwarder-selection run
        result = _random_drifting_fs_run()
        derived = {n: dict(generated=0, dropped=0, delivered=0, lost=0, latencies=Counter(),
                           acquisition_round=None, slot=None)
                   for n in result.metrics.sources}
        for rec in read_trace(render_trace(result.traces)):
            if rec["kind"] == "round":
                for node, _ in rec["generated"]:
                    derived[node]["generated"] += 1
                for node in rec["dropped"]:
                    derived[node]["dropped"] += 1
            elif rec["type"] == "data" and rec["gen_round"] is not None:
                stats = derived[rec["owner"]]
                if rec["delivered"]:
                    stats["delivered"] += 1
                    stats["latencies"][rec["round"] - rec["gen_round"]] += 1
                else:
                    stats["lost"] += 1
            elif rec["type"] == "reply" and rec["delivered"] and rec["requester"] is not None:
                stats = derived[rec["requester"]]
                if stats["acquisition_round"] is None:
                    stats["acquisition_round"] = rec["round"]
                    stats["slot"] = rec["assigned_slot"]
        folded = {
            n: {name: getattr(s, name) for name in derived[n]}
            for n, s in result.metrics.sources.items()
        }
        assert folded == derived
        assert sum(s["lost"] for s in derived.values()) > 0
        assert sum(s["delivered"] for s in derived.values()) > 0
        assert all(s["acquisition_round"] is not None for s in derived.values())


class TestHeldOutScale:
    """Render digests of runs on the benchmark's graph recipe (random
    attachment tree, extra edges with probability 4/n, every node within 8
    hops of the sink) at seed 7: the benchmark's own fingerprints pin only
    seed 1. The two 150-node digests were recorded before the slot kinds
    became classes, the drifting 100-node one before the drift guard,
    queues and contenders became masks. The digests are of schema-1 text,
    which read_trace rebuilds from the schema-2 render, so they pin every
    simulated value across the schema change."""

    @pytest.mark.parametrize(
        "nodes, settings, digest",
        [
            (
                150, dict(ipi=10 * US_SECOND, duration=600 * US_SECOND),
                "7db314489e68025d43aac3bb4d5b907ecff42041b5c0ef8b1237595abe8bfd64",
            ),
            (
                150, dict(
                    forwarder_selection=True, loss_probability=0.1, ipi=10 * US_SECOND,
                    duration=450 * US_SECOND,
                ),
                "602b6829cba6597b074a9d9c883af638d9fe69037e396489133d98d47c307873",
            ),
            (
                100, dict(
                    loss_probability=0.1, drift_ppm_range=(-300.0, 300.0), ipi=60 * US_SECOND,
                    duration=1800 * US_SECOND,
                ),
                "4ed1fc2d486e6d98143ed098eea93f8888f0068719aa329eb97c6fc57fb7aadc",
            ),
        ],
        ids=["lwb-loss0", "fs-lwb-loss0.1", "lwb-drift"],
    )
    def test_render_digest(self, nodes, settings, digest):
        topo = random_connected_topology(
            random.Random(7), nodes, extra_edge_prob=4 / nodes, max_ecc=8
        )
        cfg = SimConfig(seed=7, **settings)
        text = schema1_text(render_trace(run_simulation(cfg, topo).traces))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

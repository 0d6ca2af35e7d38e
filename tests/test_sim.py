"""Whole-run behavior: phase schedule, determinism, trace output."""

import copy
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from lwbsim import cli, glossy, sim
from lwbsim.config import SimConfig, config_texts, parse_config
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
    awake_ids,
    desync_gap_of,
    diamond_pendant,
    generated_of,
    line_topology,
    random_connected_topology,
    read_trace,
    received_ids,
    reference_render_trace,
    schema1_text,
    config_document,
    shortest_path_forwarders,
    slot_starts,
    checked_traces,
)

US_SECOND = 1_000_000
DATA_DIR = Path(__file__).parent / "data"
GOLDENS = ["golden_lwb.jsonl", "golden_fs.jsonl", "golden_fs_lossy.jsonl"]


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

    def test_slot_count_matches_header(self):
        cfg = SimConfig(duration=60 * US_SECOND, forwarder_selection=True)
        result = run_simulation(cfg, line_topology(5))
        for trace in result.traces:
            assert len(trace.slots) == 1 + trace.n_rr + trace.n_data

    @pytest.mark.parametrize("fs", [False, True])
    def test_replies_and_data_slots_sit_where_the_header_puts_them(self, fs):
        # the sync slot, request groups of request, reply (and announce),
        # then the data slots: RoundTrace.replies and RunMetrics read them
        # by position
        cfg = SimConfig(
            duration=40 * US_SECOND, minimum_lwb_round=125_000, ipi=US_SECOND,
            forwarder_selection=fs, loss_probability=0.2, seed=3,
        )
        traces = run_simulation(cfg, random_connected_topology(random.Random(3), 12)).traces
        group = ["request", "reply", "announce"][:cfg.rr_group_size]
        for trace in traces:
            kinds = [slot.kind for slot in trace.slots]
            assert kinds == ["sync", *group * (trace.n_rr // len(group)), *["data"] * trace.n_data]
            assert trace.replies == [slot for slot in trace.slots if slot.kind == "reply"]
        assert any(trace.capacity_events for trace in traces)
        assert any(len(trace.replies) > 1 for trace in traces)


def _timeline_oracle(cfg, leaves):
    """(t_start, phase, round_period, n_rr, n_data) of every round of a
    loss-0 run on a star of `leaves` leaves around sink 1, from the config
    alone. Cool-off and stabilization run whole one second rounds, as many as
    their periods need; operational rounds follow every MINIMUM_LWB_ROUND,
    and one in floor(IPI / round) carries the request group and the data
    slots. Every leaf joins in round 0, so the first stabilization round's
    full block grants every leaf and its empty groups shrink the block to one
    group for good; with no stabilization round, each data round grants one
    more leaf than the one before it had."""
    second, period = US_SECOND, cfg.minimum_lwb_round
    group = 3 if cfg.forwarder_selection else 2
    full_block = {2: 64, 3: 63}[group]  # 65 slots of 15 ms after the sync slot
    cooloff_rounds = math.ceil(cfg.cooloff_period / second)
    stabilization_rounds = math.ceil(cfg.stabilization_period / second)
    operational = (cooloff_rounds + stabilization_rounds) * second
    ratio = max(1, cfg.ipi // period)
    rounds = []
    for k in range(cooloff_rounds + stabilization_rounds):
        if k < cooloff_rounds:
            rounds.append((k * second, "cool-off", second, 0, 0))
        else:
            n_rr = full_block if k == cooloff_rounds else group
            rounds.append((k * second, "stabilization", second, n_rr, 0))
    for j in range(-(-(cfg.duration - operational) // period)):
        if j % ratio:
            rounds.append((operational + j * period, "operational", period, 0, 0))
        else:
            granted = leaves if stabilization_rounds else min(j // ratio, leaves)
            rounds.append((operational + j * period, "operational", period, group, granted))
    return [r for r in rounds if r[0] < cfg.duration]


class TestTimelineOracle:
    @pytest.mark.parametrize("mode", ["lwb", "fs-lwb"])
    @pytest.mark.parametrize("cooloff", [0, 1_500_000, 10 * US_SECOND])
    @pytest.mark.parametrize("stabilization", [0, 1_500_000, 10 * US_SECOND])
    def test_rounds_follow_the_closed_form(self, mode, cooloff, stabilization):
        star = Topology.from_edges([(1, 2), (1, 3), (1, 4)])
        for seconds in (2, 3, 4, 5):
            period = seconds * US_SECOND
            # multiples of the round, and not: floor(IPI / round) is 1 or 2
            for ipi in (period, period + 300_000, 2 * period, 2 * period + 700_000):
                cfg = SimConfig(
                    forwarder_selection=mode == "fs-lwb", cooloff_period=cooloff,
                    stabilization_period=stabilization, minimum_lwb_round=period,
                    ipi=ipi, duration=41_500_000,
                )
                traces = run_simulation(cfg, star).traces
                got = [(t.t_start, t.phase, t.round_period, t.n_rr, t.n_data) for t in traces]
                assert got == _timeline_oracle(cfg, 3), (seconds, ipi)
                assert last_round_start(cfg) == got[-1][0]


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
        assert json.loads(header) == {**SCHEMA_HEADER, "config": dict(config_texts(cfg))}
        records = [json.loads(line) for line in lines]
        # a record's seq is its line's index less one: one line per record
        assert len(records) == sum(1 + len(t.slots) for t in result.traces)
        kinds = {r["kind"] for r in records}
        assert kinds == {"sync", "request", "reply", "data", "round"}

    def test_each_round_closes_with_a_summary_record(self):
        cfg = SimConfig(duration=25 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        records = [json.loads(l) for l in render_trace(result.traces).splitlines()[1:]]
        rounds = [rec["round"] for rec in records if rec["kind"] == "round"]
        assert rounds == list(range(len(result.traces)))
        # a slot record names no round: each round's slot records, the sync
        # slot first, run up to the round record that closes them
        kinds = "".join(
            "r" if rec["kind"] == "round" else "s" if rec["kind"] == "sync" else "o"
            for rec in records
        )
        assert re.fullmatch("(so*r)+", kinds)

    @pytest.mark.parametrize("run", [*GOLDENS, *range(20)])
    def test_slots_start_where_the_round_layout_puts_them(self, run):
        # neither the trace nor a slot object holds a slot's start: the
        # oracle states the layout with its own closed form, read_trace
        # takes a start from the slot's place in its round, and the two
        # must agree. The random configs run both modes, loss and sync
        # slots longer and shorter than the other slots.
        if run in GOLDENS:
            result = _golden_result(run)
        else:
            rng = random.Random(run)
            topology = random_connected_topology(rng, rng.randint(6, 12), max_ecc=4)
            result = run_simulation(_rerun_config(run), topology)
        cfg, traces = result.config, result.traces
        _, records = read_trace(render_trace(traces))
        read_starts = iter(rec["t"] for rec in records if rec["kind"] == "slot")
        for trace in traces:
            n = 1 + trace.n_rr + trace.n_data
            assert len(trace.slots) == n
            starts = slot_starts(trace)
            assert starts == [next(read_starts) for _ in range(n)], trace.index
            end = starts[-1] + (cfg.slot_length if n > 1 else cfg.sync_slot_length)
            assert end <= trace.t_start + trace.round_period  # where the last slot ends
        assert any(trace.n_rr for trace in traces)
        assert schema1_text(render_trace(traces)) == reference_render_trace(traces)

    def test_write_trace_round_trips(self, tmp_path):
        cfg = SimConfig(duration=12 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        out = tmp_path / "trace.jsonl"
        with open(out, "w", encoding="utf-8") as f:
            write_trace(f, result.traces)
        assert out.read_text(encoding="utf-8") == render_trace(result.traces)

    def test_empty_trace_renders_the_header_alone(self):
        assert render_trace([]) == '{"kind":"schema","version":5,"config":null}\n'

    def test_write_trace_streams_one_round_per_write(self):
        # the header, then one piece per round ending in its round record:
        # a streamed write never holds more than one round's text
        traces = _lossy_drifting_run().traces

        class Recorder:
            def writelines(self, pieces):
                self.pieces = list(pieces)

        out = Recorder()
        write_trace(out, traces)
        assert len(out.pieces) == 1 + len(traces)
        assert out.pieces[0].startswith('{"kind":"schema","version":5,')
        for trace, piece in zip(traces, out.pieces[1:]):
            *slot_lines, last = map(json.loads, piece.splitlines())
            assert len(slot_lines) == len(trace.slots)
            assert last["kind"] == "round" and last["round"] == trace.index
            assert piece.endswith("}\n")
        assert "".join(out.pieces) == render_trace(traces)


def _hand_built_round(index, slots, radio_on, config=SimConfig(), **sets):
    """A round of the given slots, laid out as the engine lays one out: the
    sync slot, the request block, then the data slots."""
    empty = {"joined": 0, "desynced": 0, "bootstrap": 0, "dropped": ()}
    n_data = sum(slot.kind == "data" for slot in slots)
    return RoundTrace(
        index=index, t_start=index * US_SECOND, phase="cool-off", config=config,
        round_period=US_SECOND, n_rr=len(slots) - 1 - n_data, n_data=n_data, slots=slots,
        node_ids=tuple(radio_on), radio_totals=tuple(radio_on.values()),
        **{**empty, "sources": (), "new_sequences": 0, **sets},
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
        assert any(s.kind == "reply" and s.capacity_exceeded for s in slots)
        # the round record's lists are compared filled, not only empty
        for field in ("joined", "new_assignments", "dropped"):
            assert any(getattr(t, field) for t in result.traces), field
        assert any(generated_of(t) for t in result.traces)
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
                0, [SyncSlot(mask([1, 2]), mask([2]), 1)], {1: 10, 2: 10}
            ),
            _hand_built_round(
                1,
                [
                    SyncSlot(mask([1, 9]), 0, 1),
                    RequestSlot(shared, shared, None, 0, False),
                    ReplySlot(shared, shared, 1, requester=3, assigned_slot=0,
                              new_assignment=True, delivered=True),
                    DataSlot(shared, 0, owner=3, payload_len=8, gen_round=1, delivered=True),
                ],
                {1: 30, 3: 20, 9: 10, 250: 20},
                joined=mask([3, 250]), desynced=mask([9]),
                bootstrap=mask([40, 1000]), sources=(3, 77), new_sequences=2, dropped=(77,),
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
                sync = SyncSlot(Topology.mask_of(radio_on), 0, 1)
                yield _hand_built_round(index, [sync], dict(radio_on))

        traces = list(rounds())
        assert traces[0].radio_totals == traces[1].radio_totals
        assert traces[0].radio_totals is not traces[1].radio_totals
        assert traces[0].radio_totals == traces[2].radio_totals
        assert traces[0].node_ids != traces[2].node_ids
        want = reference_render_trace(traces)
        text = render_trace(traces)
        assert schema1_text(text) == want
        # the second row repeats the first by value, in another object
        written = [True, False, True, True, True, True]
        assert ["radio_on" in rec for rec in _round_lines(text)] == written
        out = tmp_path / "trace.jsonl"
        with open(out, "w", encoding="utf-8") as f:
            write_trace(f, rounds())
        assert out.read_text(encoding="utf-8") == text

    def test_hand_built_slots_with_fields_zero_and_one(self):
        # True == 1 and False == 0: an int field must never print as a
        # JSON bool, and a bool field never as a number
        both = Topology.mask_of([1, 2])
        slots = [
            SyncSlot(both, both, 1),
            RequestSlot(both, both, 1, contender_count=1, delivered=True),
            ReplySlot(both, both, 1, requester=1, assigned_slot=0, new_assignment=True,
                      delivered=False),
            AnnounceSlot(both, both, 1, announced_distance=0, slot_id=0),
            RequestSlot(both, 0, None, contender_count=0, delivered=False),
            ReplySlot(both, 0, None, requester=1, capacity_exceeded=True),
            AnnounceSlot(both, 0, None),
            DataSlot(both, both, owner=1, payload_len=0, gen_round=1, delivered=True),
            DataSlot(both, both, owner=1, payload_len=1, gen_round=0, delivered=False),
            DataSlot(both, both, owner=1, payload_len=0),
            DataSlot(both, 0, owner=1),
        ]
        fs = SimConfig(forwarder_selection=True)
        traces = [_hand_built_round(0, slots, {1: 0, 2: 1}, config=fs)]
        assert traces[0].new_assignments == [(0, 1)] and traces[0].capacity_events == 1
        text = render_trace(traces)
        assert schema1_text(text) == reference_render_trace(traces)
        assert '"initiator":1,' in text and '"payload_len":0,"gen_round":1,' in text

    @pytest.mark.parametrize("awake_ids", [[1, 2], [1]])
    def test_receiver_outside_the_awake_set_is_refused(self, awake_ids):
        # the schema writes only the awake ids that missed, so a receiver
        # outside the awake set has no place in the text and must not be
        # dropped without a word; a sync slot, only ever at place 0, writes
        # missed too
        both, awake = Topology.mask_of([1, 2]), Topology.mask_of(awake_ids)
        stray = Topology.mask_of([1, 3])
        for slots in (
            [SyncSlot(both, both, 1), DataSlot(awake, stray, owner=1)],
            [SyncSlot(both, both, 1), RequestSlot(awake, stray, 1, contender_count=1, delivered=True)],
            [SyncSlot(awake, stray, 1)],
        ):
            traces = [_hand_built_round(0, slots, {1: 0, 2: 1})]
            place = len(slots) - 1
            with pytest.raises(SimulationError, match=f"round 0 slot {place} received off its awake"):
                render_trace(traces)
        # receiving on all or part of the awake set is fine
        for received in (awake, 1 << 1):
            slot = DataSlot(awake, received, owner=1)
            traces = [_hand_built_round(0, [SyncSlot(both, both, 1), slot], {1: 0, 2: 1})]
            assert schema1_text(render_trace(traces)) == reference_render_trace(traces)

    @pytest.mark.parametrize("layout", ["too-few-data", "data-first", "request-in-data",
                                        "data-in-request", "sync-in-request", "sync-in-data"])
    def test_round_off_its_layout_is_refused(self, layout):
        # a record's place says which slot it is, so a round whose slot list
        # does not match its header would misplace every later record
        both = Topology.mask_of([1, 2])
        sync, data = SyncSlot(both, both, 1), DataSlot(both, both, owner=1, payload_len=3)
        request = RequestSlot(both, both, 1, contender_count=1, delivered=True)
        slots, n_rr, n_data = {
            "too-few-data": ([sync, data], 0, 3),
            "data-first": ([data, sync], 0, 1),
            "request-in-data": ([sync, request], 0, 1),
            "data-in-request": ([sync, data], 1, 0),
            "sync-in-request": ([sync, sync], 1, 0),
            "sync-in-data": ([sync, sync], 0, 1),
        }[layout]
        fine = _hand_built_round(0, [SyncSlot(both, both, 1)], {1: 0, 2: 1})
        trace = _hand_built_round(1, slots, {1: 0, 2: 1})
        trace.n_rr, trace.n_data = n_rr, n_data
        with pytest.raises(SimulationError, match="round 1's slots do not follow"):
            render_trace([fine, trace])
        with pytest.raises(SimulationError, match="round 1's slots do not follow"):
            write_trace(io.StringIO(), [fine, trace])

    def test_round_of_another_mode_is_refused(self):
        # a round record does not say its mode, so every round must run the
        # header's
        both = Topology.mask_of([1, 2])
        lwb_round = _hand_built_round(0, [SyncSlot(both, both, 1), DataSlot(both, both, owner=1)],
                                      {1: 0, 2: 1})
        fs_round = _hand_built_round(1, [SyncSlot(both, both, 1)], {1: 0, 2: 1},
                                     config=SimConfig(forwarder_selection=True))
        with pytest.raises(SimulationError, match="round 1 runs fs-lwb, not lwb"):
            render_trace([lwb_round, fs_round])

    def test_write_trace_of_freed_rounds_matches_render_trace(self):
        # each round is a copy with a radio row of its own, dropped once
        # written: equal rows are distinct objects, and a freed row's id()
        # can come back for a row of other values, so only a comparison by
        # value writes radio_on in the right rounds
        traces = _lossy_drifting_run().traces

        def fresh_rounds():
            for trace in traces:
                fresh = copy.copy(trace)
                fresh.node_ids = tuple(list(trace.node_ids))
                fresh.radio_totals = tuple(list(trace.radio_totals))
                yield fresh
                del fresh

        out = io.StringIO()
        write_trace(out, fresh_rounds())
        text = render_trace(traces)
        assert out.getvalue() == text
        assert 1 < text.count('"radio_on"') < len(traces)

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
        assert set().union(*(received_ids(s) for s in slots)) == topo.nodes
        for slot in slots:
            assert awake_ids(slot) == sorted(awake_ids(slot))
            assert received_ids(slot) == sorted(received_ids(slot))
            assert set(received_ids(slot)) <= set(awake_ids(slot))
        assert schema1_text(render_trace(result.traces)) == reference_render_trace(result.traces)

    def test_cache_survives_rounds_freed_by_a_generator(self):
        # each copy is dropped once rendered, so its lists' ids come free
        # for the next copy's lists unless the cache keeps them alive
        result = self._run(3, True)
        copies = (copy.deepcopy(t) for t in result.traces)
        assert render_trace(copies) == render_trace(result.traces)


def _golden_result(name):
    """The run each golden file was rendered from."""
    from test_acceptance import _golden_run

    if name == "golden_fs_lossy.jsonl":
        return _lossy_drifting_run()
    return _golden_run(name == "golden_fs.jsonl")


def _golden_traces(name):
    return _golden_result(name).traces


def _golden_slots(name):
    """(raw slot record, the round's active ids) for every slot of a
    golden file, read straight from its JSON lines: the active ids are the
    sync slot's awake ids less its missed ones."""
    active = None
    for line in (DATA_DIR / name).read_text(encoding="utf-8").splitlines()[1:]:
        rec = json.loads(line)
        if rec["kind"] != "round":
            if rec["kind"] == "sync":
                active = [n for n in rec["awake"] if n not in rec["missed"]]
            yield rec, active


def _round_lines(text):
    """The raw round records of a rendered trace, in file order."""
    return [rec for rec in map(json.loads, text.splitlines()[1:]) if rec["kind"] == "round"]


class TestTraceSchema:
    """Schema 5: the header line with the run's config, records without a
    seq, slot records named by their type and without their start or their
    round's fields, round records without their mode, awake only off the
    active set (so always in the sync slot), missed in place of received in
    every slot, radio_on only when the row changes, and a lossless
    reader."""

    def test_first_line_is_the_header(self):
        cfg = SimConfig(duration=12 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        first, *rest = render_trace(result.traces).splitlines()
        assert first == (
            '{"kind":"schema","version":5,"config":{"IPI":"10s","MINIMUM_LWB_ROUND":"5s",'
            '"COOLOFF_PERIOD":"10s","STABILIZATION_PERIOD":"10s","MAX_PAYLOAD_LEN":"40",'
            '"SINK_NODE_ID":"1","MAX_NODE_NUMBER":"150","FORWARDER_SELECTION":"0",'
            '"GLOSSY_GUARD_TIME":"2ms","SLOT_LENGTH":"15ms","SYNC_SLOT_LENGTH":"15ms",'
            '"LOSS_PROBABILITY":"0.0","DRIFT_PPM_RANGE":"0.0:0.0","CONTENTION_POLICY":"capture",'
            '"RR_REDUCTION_TRIGGER":"slots","QUEUE_CAPACITY":"8","SEED":"1","DURATION":"12s"}}'
        )
        kinds = {json.loads(line)["kind"] for line in rest}
        assert kinds == {"sync", "request", "reply", "round"}

    @pytest.mark.parametrize("name", GOLDENS)
    def test_golden_reads_back_to_the_schema1_oracle(self, name):
        text = (DATA_DIR / name).read_text(encoding="utf-8")
        assert schema1_text(text) == reference_render_trace(_golden_traces(name))

    @staticmethod
    def _random_run(case):
        # cases 0-11 cover both modes x loss 0, 0.1, 0.5 x drift off and on;
        # odd cases run forwarder selection
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
        return run_simulation(cfg, topo).traces

    @pytest.mark.parametrize("case", range(20))
    def test_random_run_reads_back_to_the_schema1_oracle(self, case):
        traces = self._random_run(case)
        assert schema1_text(render_trace(traces)) == reference_render_trace(traces)

    @pytest.mark.parametrize("run", [*GOLDENS, *range(20)])
    def test_winner_and_source_repeat_the_initiator(self, run):
        # neither the slot objects nor the text keep them: a request floods
        # from its winner, and an announce from its source, the requester
        # whose reply was delivered, for the slot that reply assigned
        if run in GOLDENS:
            text, fs = (DATA_DIR / run).read_text(encoding="utf-8"), "fs" in run
        else:
            text, fs = render_trace(self._random_run(run)), run % 2 == 1
        records = [rec for rec in read_trace(text)[1] if rec["kind"] == "slot"]
        flooded = Counter()
        for before, rec in zip(records, records[1:]):
            if rec["type"] == "request":
                assert rec["winner"] == rec["initiator"]
            elif rec["type"] == "announce":
                assert before["type"] == "reply"
                assert rec["source"] == rec["initiator"]
                delivered = before["delivered"]
                assert rec["source"] == (before["requester"] if delivered else None)
                assert rec["slot_id"] == (before["assigned_slot"] if delivered else None)
            flooded[rec["type"]] += rec["initiator"] is not None
        assert flooded["request"] and bool(flooded["announce"]) == fs

    def test_lwb_slots_on_the_active_set_omit_awake(self):
        # at loss 0 a flooded slot misses no one, a silent one everyone
        kinds = Counter()
        for rec, active in _golden_slots("golden_lwb.jsonl"):
            if rec["kind"] != "sync":
                assert "awake" not in rec and "received" not in rec
                silent = rec.get("initiator", rec.get("owner")) is None
                assert rec["missed"] == (active if silent else [])
                kinds[rec["kind"], silent] += 1
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
                assert rec["awake"] == awake_ids(slot)
                trimmed += slot.kind == "data"
            else:
                assert "awake" not in rec
        assert trimmed > 0

    @pytest.mark.parametrize("name", GOLDENS)
    def test_sync_slot_keeps_awake_and_writes_missed(self, name):
        syncs = [rec for rec, _ in _golden_slots(name) if rec["kind"] == "sync"]
        assert syncs
        for rec in syncs:
            assert list(rec) == ["kind", "initiator", "awake", "missed"]

    @pytest.mark.parametrize("name", GOLDENS)
    def test_radio_on_is_written_exactly_when_the_row_changes(self, name):
        # always in the first round, then whenever the row's values differ
        # from the previous round's; a reader carries the last one forward
        traces = _golden_traces(name)
        rounds = _round_lines((DATA_DIR / name).read_text(encoding="utf-8"))
        assert len(rounds) == len(traces)
        rows = [(t.node_ids, t.radio_totals) for t in traces]
        written = ["radio_on" in rec for rec in rounds]
        assert written == [i == 0 or rows[i] != rows[i - 1] for i in range(len(rows))]
        assert 1 < sum(written) < len(written)

    @pytest.mark.parametrize("name", GOLDENS)
    def test_missed_within_awake(self, name):
        lost = 0  # flooded slots that missed someone: only under loss
        for rec, active in _golden_slots(name):
            awake = rec.get("awake", active)
            assert rec["missed"] == sorted(rec["missed"])
            assert set(rec["missed"]) <= set(awake)
            if rec["kind"] != "sync":
                flooded = rec.get("initiator", rec.get("owner")) is not None
                lost += flooded and rec["missed"] != []
        assert (lost > 0) == (name == "golden_fs_lossy.jsonl")

    @pytest.mark.parametrize("run", [*GOLDENS, *range(20)])
    def test_slot_records_leave_out_what_others_say(self, run):
        # a record's seq is its place in the file, a slot's type its kind,
        # its start its place in its round, its round and phase its round
        # record's, a request's winner and an announce's source its
        # initiator, a data slot's initiator its owner unless the slot was
        # silent, and a round's mode the header's
        traces = _golden_traces(run) if run in GOLDENS else self._random_run(run)
        text = render_trace(traces)
        if run in GOLDENS:
            assert text == (DATA_DIR / run).read_text(encoding="utf-8")
        records = [json.loads(line) for line in text.splitlines()[1:]]
        assert not any({"seq", "mode"} & rec.keys() for rec in records)
        slots = [rec for rec in records if rec["kind"] != "round"]
        assert len(slots) == sum(len(trace.slots) for trace in traces)
        silent = 0
        for rec in slots:
            assert not {"t", "type", "round", "phase", "winner", "source"} & rec.keys(), rec
            if rec["kind"] == "data":
                assert ("initiator" in rec) == (rec.get("initiator", 0) is None), rec
                silent += "initiator" in rec
            else:
                assert "initiator" in rec, rec
        assert silent == sum(
            slot.kind == "data" and slot.initiator is None for trace in traces for slot in trace.slots
        )
        out = io.StringIO()
        write_trace(out, (trace for trace in traces))
        assert out.getvalue() == text


def _topology_text(topology):
    return "".join(f"{u} {v}\n" for u, v in sorted(topology.edges))


def _rerun_config(case):
    """A seeded random config of a short run on a 6-12 node graph: drift
    ranges, durations and phase periods that are not whole seconds, an
    unset SYNC_SLOT_LENGTH, both modes, both policies and both triggers."""
    rng = random.Random(9000 + case)
    slot_length = rng.choice([10_000, 12_500, 15_000])
    sync = None if case % 3 == 0 else rng.choice([slot_length, 20_000, 7_250])
    round_us = rng.choice([375_000, 500_000, 1_250_000])
    return SimConfig(
        ipi=round_us * rng.choice([1, 2, 3]) + rng.choice([0, 125_000]),
        minimum_lwb_round=round_us,
        cooloff_period=rng.choice([0, 1_500_000, 2 * US_SECOND]),
        stabilization_period=rng.choice([1 * US_SECOND, 2_250_000, 3 * US_SECOND]),
        slot_length=slot_length,
        sync_slot_length=sync,
        glossy_guard_time=rng.choice([500, 2_000]),
        forwarder_selection=bool(case % 2),
        loss_probability=rng.choice([0.0, 0.1, 0.123456789]),
        drift_ppm_range=rng.choice(
            [(0.0, 0.0), (-300.0, 300.0), (47.123456789, 2000.0), (-125.5, 0.0)]
        ),
        contention_policy=("capture", "collision")[case // 2 % 2],
        rr_reduction_trigger=("slots", "rounds")[case // 4 % 2],
        queue_capacity=rng.randint(1, 8),
        seed=rng.randint(0, 10**6),
        duration=rng.randint(8 * US_SECOND, 20 * US_SECOND),
    )


class TestTraceReruns:
    """A trace describes its run: the header's config, written as a config
    document, runs the same trace again through the command line."""

    @staticmethod
    def _rerun(tmp_path, text, topology, config):
        header = json.loads(text.splitlines()[0])
        document = config_document(header["config"].items())
        assert parse_config(document) == config
        (tmp_path / "net.topo").write_text(_topology_text(topology), encoding="utf-8")
        (tmp_path / "run.cfg").write_text(document, encoding="utf-8")
        args = [
            "run", "--topology", str(tmp_path / "net.topo"), "--config", str(tmp_path / "run.cfg"),
            "--trace", str(tmp_path / "again.jsonl"),
        ]
        assert cli.main(args) == 0
        assert (tmp_path / "again.jsonl").read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("name", GOLDENS)
    def test_golden_reruns_itself(self, name, tmp_path, capsys):
        result = _golden_result(name)
        text = (DATA_DIR / name).read_text(encoding="utf-8")
        self._rerun(tmp_path, text, result.topology, result.config)

    @pytest.mark.parametrize("case", range(20))
    def test_random_run_reruns_itself(self, case, tmp_path, capsys):
        rng = random.Random(case)
        topology = random_connected_topology(rng, rng.randint(6, 12), max_ecc=4)
        config = _rerun_config(case)
        config.validate()
        text = render_trace(run_simulation(config, topology).traces)
        self._rerun(tmp_path, text, topology, config)

    def test_random_configs_cover_the_cases(self):
        configs = [_rerun_config(case) for case in range(20)]
        assert {c.forwarder_selection for c in configs} == {False, True}
        assert {c.contention_policy for c in configs} == {"capture", "collision"}
        assert {c.rr_reduction_trigger for c in configs} == {"slots", "rounds"}
        assert any("sync_slot_length" not in vars(c) for c in configs)
        assert any(c.sync_slot_length != c.slot_length for c in configs)
        assert any(c.duration % US_SECOND for c in configs)
        assert any(c.stabilization_period % US_SECOND for c in configs)
        assert len({c.drift_ppm_range for c in configs}) == 4
        assert 0.123456789 in {c.loss_probability for c in configs}


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
        assert all(t.bootstrap >> 3 & 1 for t in result.traces)


class TestPayloadLimit:
    """MAX_PAYLOAD_LEN is checked once, before the run, against the longest
    packet text "node:seq" the run will generate."""

    @pytest.mark.parametrize("cooloff", [0, 1_500_000, 10 * US_SECOND])
    @pytest.mark.parametrize("stabilization", [0, 1_500_000, 10 * US_SECOND])
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

    def test_run_fails_before_its_first_round(self, monkeypatch):
        cfg = SimConfig(max_payload_len=4, ipi=5 * US_SECOND, duration=1000 * US_SECOND)

        def no_round(world, header):
            pytest.fail("a round ran although MAX_PAYLOAD_LEN was too small")

        monkeypatch.setattr(sim, "execute_round", no_round)
        with pytest.raises(ConfigError, match="too small for '3:199', a 5-byte packet"):
            run_simulation(cfg, line_topology(3))

    def test_queued_lengths_are_the_packet_texts(self):
        cfg = SimConfig(ipi=5 * US_SECOND, duration=120 * US_SECOND)
        result = run_simulation(cfg, Topology.from_edges([(1, 9), (9, 10), (10, 100)]))
        sent = [
            (s.owner, s.gen_round, s.payload_len)
            for t in result.traces for s in t.slots if s.kind == "data" and s.gen_round is not None
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
        assert all(t.desynced == 0 for t in short_rounds)
        op = [t for t in result.traces if t.phase == "operational"]
        assert len(op) == 3
        # the first operational round starts one second after the last
        # stabilization sync; only the 30 s gaps after it break the guard
        assert op[0].desynced == 0
        for trace in op[1:]:
            assert trace.desynced == 1 << 2
            assert trace.joined == 1 << 2
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
        assert all(t.desynced == 0 for t in result.traces)


class TestForwarderTable:
    def test_table_matches_two_distance_rule(self):
        cfg = SimConfig(forwarder_selection=True, duration=20 * US_SECOND)
        topo = diamond_pendant()
        result = run_simulation(cfg, topo)
        table = forwarder_table(result.world)
        assert len(table) == 4
        for row in table:
            assert row["distance"] is not None
            expected = shortest_path_forwarders(topo, 1, row["owner"])
            assert row["forwarders"] == sorted(expected)

    def test_plain_mode_table_lists_everyone(self):
        cfg = SimConfig(duration=20 * US_SECOND)
        result = run_simulation(cfg, line_topology(4))
        for row in forwarder_table(result.world):
            assert row["forwarders"] == [1, 2, 3, 4]
            assert row["distance"] is None


def _radio_rounds(text):
    """Per round, (radio_on as rendered, radio_on re-derived from the
    header's config and the slot and round records that read_trace rebuilds
    from the text alone): every awake slot costs SLOT_LENGTH, a sync slot
    SYNC_SLOT_LENGTH, and bootstrap costs the whole round period."""
    rounds = []
    expected = Counter()
    config, records = read_trace(text)
    cfg = parse_config(config_document(config.items()))
    slot_length, sync_slot_length = cfg.slot_length, cfg.sync_slot_length
    for rec in records:
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


def _lossy_drifting_inputs():
    """A forwarder-selection run's config and topology, with loss, drift,
    desyncs and rejoins; distinct sync and data slot lengths keep the two
    radio terms apart."""
    cfg = SimConfig(
        duration=120 * US_SECOND,
        forwarder_selection=True,
        loss_probability=0.2,
        drift_ppm_range=(50.0, 300.0),
        slot_length=10_000,
        sync_slot_length=20_000,
        seed=5,
    )
    return cfg, random_connected_topology(random.Random(77), 15, max_ecc=4)


def _lossy_drifting_run():
    return run_simulation(*_lossy_drifting_inputs())


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
        text = (DATA_DIR / name).read_text(encoding="utf-8")
        rounds = _radio_rounds(text)
        assert rounds
        for index, (got, want) in enumerate(rounds):
            assert got == want, f"round {index}"

    def test_lossy_drifting_run_radio_on_matches_awake_slots(self):
        result = _lossy_drifting_run()
        cfg = result.config
        assert any(t.desynced for t in result.traces)
        assert any(t.bootstrap for t in result.traces)
        text = render_trace(result.traces)
        assert cfg.slot_length != cfg.sync_slot_length
        rounds = _radio_rounds(text)
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
                assert set(received_ids(slot)) <= set(awake_ids(slot))
                assert sink in awake_ids(slot)
            assert not (trace.desynced | trace.joined | trace.bootstrap) >> sink & 1
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
                active = set(received_ids(trace.slots[0]))
                requests = [s for s in trace.slots if s.kind == "request"]
                for slot in requests:
                    assert awake_ids(slot) == sorted(active)
                    assert slot.awake_mask == requests[0].awake_mask
                for slot_id, slot in enumerate(trace.slots[1 + trace.n_rr:]):  # the data slots
                    if fs and slot_id in world.announced_slots:
                        _, wake = world.announced_slots[slot_id]
                        assert wake >> slot.owner & 1 and wake >> sink & 1
                        want = set(ids_of(wake)) & active
                        assert awake_ids(slot) == sorted(want)
                        selected += slot.awake_mask != requests[0].awake_mask
                    else:
                        assert slot.awake_mask == requests[0].awake_mask

            checked_traces(cfg, topo, check)
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

        traces = checked_traces(cfg, topo, check)
        assert len(held) == len(traces) and max(held) > 0
        assert any(t.desynced for t in traces)
        replies = [s for t in traces for s in t.slots if s.kind == "reply"]
        assert any(s.assigned_slot is not None and not s.delivered for s in replies)


def _random_drifting_fs_inputs():
    """A 40-node forwarder-selection run's config and topology, at loss 0.3
    with DRIFT_PPM_RANGE = 500, so nodes desync, miss syncs and rejoin in
    many rounds."""
    cfg = SimConfig(
        duration=150 * US_SECOND,
        forwarder_selection=True,
        loss_probability=0.3,
        drift_ppm_range=(-500.0, 500.0),
        seed=11,
    )
    return cfg, random_connected_topology(random.Random(4040), 40, extra_edge_prob=0.1, max_ecc=6)


# each drifting run, with the ids of the run helpers it once took
each_drifting_run = pytest.mark.parametrize(
    "inputs", [_random_drifting_fs_inputs, _lossy_drifting_inputs],
    ids=["_random_drifting_fs_run", "_lossy_drifting_run"],
)


class TestRoundState:
    @each_drifting_run
    def test_bootstrap_joined_and_desynced_agree_with_world(self, inputs):
        # world.bootstrap and the trace's bootstrap, joined and desynced
        # masks tell one story in every round
        ends = []  # world.bootstrap at the end of every round

        def check(world, trace):
            sink = world.config.sink_node_id
            sync = trace.slots[0]
            previous = ends[-1] if ends else Topology.mask_of(set(world.node_ids) - {sink})
            outside = [n for n in world.node_ids if not sync.awake_mask >> n & 1]
            assert ids_of(trace.bootstrap) == outside
            assert world.bootstrap == trace.bootstrap
            assert set(ids_of(trace.joined)) <= set(received_ids(sync))
            for n in ids_of(trace.joined):
                assert previous >> n & 1 or trace.desynced >> n & 1
            for n in ids_of(trace.desynced):  # synced drifting nodes only
                assert world.drift_prefix[-1] >> n & 1
                assert not previous >> n & 1
            for mask in (trace.bootstrap, trace.joined, trace.desynced):
                assert not mask >> sink & 1
            ends.append(world.bootstrap)

        traces = checked_traces(*inputs(), check)
        assert len(ends) == len(traces)
        assert any(t.desynced for t in traces)
        assert any(t.joined for t in traces[1:])
        assert any(t.bootstrap for t in traces)
        assert any(t.joined & t.desynced for t in traces)
        # some synced node missed a sync: awake in the sync slot, not active
        assert any(t.slots[0].awake_mask != t.slots[0].received_mask for t in traces)

    @each_drifting_run
    def test_sync_missed_is_the_synced_nodes_that_missed_the_flood(self, inputs):
        # a node is synced at the sync flood unless it ended the previous
        # round in bootstrap or desynced at this round's start
        want, ends = [], []

        def check(world, trace):
            sink = world.config.sink_node_id
            previous = ends[-1] if ends else set(world.node_ids) - {sink}
            synced = set(world.node_ids) - previous - set(ids_of(trace.desynced))
            want.append(sorted(synced - set(received_ids(trace.slots[0]))))
            ends.append(set(ids_of(trace.bootstrap)))

        records = map(json.loads, render_trace(checked_traces(*inputs(), check)).splitlines()[1:])
        syncs = [rec for rec in records if rec["kind"] == "sync"]
        assert [rec["missed"] for rec in syncs] == want
        assert any(want)

    def test_round_node_sets_are_masks_and_dropped_one_id_per_packet(self):
        # a lossy drifting run whose 250 ms IPI makes four sequences in
        # each 1 s round, so a full queue drops several packets per round
        cfg = SimConfig(
            minimum_lwb_round=125_000, ipi=250_000, queue_capacity=3, loss_probability=0.2,
            drift_ppm_range=(500.0, 3000.0), forwarder_selection=True,
            duration=30 * US_SECOND, seed=1,
        )
        topo = random_connected_topology(random.Random(77), 15, max_ecc=4)
        starts = []  # world.queue_start at the end of every round

        def check(world, trace):
            assert trace.bootstrap == world.bootstrap
            assert all(type(mask) is int for mask in (trace.joined, trace.desynced))
            assert not trace.joined & trace.bootstrap
            # a desynced node rejoined in the sync flood or is in bootstrap
            assert not trace.desynced & ~(trace.joined | trace.bootstrap)
            # a source's queue window moved by its drops and its sent packets
            assert type(trace.dropped) is tuple
            before = starts[-1] if starts else dict.fromkeys(world.sources, 0)
            sent = Counter(
                s.owner for s in trace.slots if s.kind == "data" and s.gen_round is not None
            )
            for n in world.sources:
                moved = world.queue_start[n] - before[n]
                assert trace.dropped.count(n) == moved - sent[n], (trace.index, n)
            starts.append(dict(world.queue_start))

        traces = checked_traces(cfg, topo, check)
        assert len(starts) == len(traces)
        assert any(t.desynced & t.bootstrap for t in traces)
        assert any(t.joined & t.desynced for t in traces)
        assert any(len(set(t.dropped)) < len(t.dropped) for t in traces)

    def test_data_slot_that_missed_no_one_shares_its_awake_mask(self):
        result = TestRenderOracle._run(2, False)
        slots = [s for t in result.traces for s in t.slots if s.kind == "data"]
        full = [s for s in slots if s.received_mask == s.awake_mask]
        assert full and len(full) < len(slots)
        assert all(s.received_mask is s.awake_mask for s in full)


class TestMetricsFold:
    def test_source_stats_follow_from_the_records(self):
        # every per-source total RunMetrics folds, re-derived from the
        # records read back from the rendered text of a lossy, drifting
        # forwarder-selection run
        result = run_simulation(*_random_drifting_fs_inputs())
        derived = {n: dict(generated=0, dropped=0, delivered=0, lost=0, latency_rounds=0,
                           acquisition_round=None, slot=None)
                   for n in result.metrics.sources}
        for rec in read_trace(render_trace(result.traces))[1]:
            if rec["kind"] == "round":
                for node, _ in rec["generated"]:
                    derived[node]["generated"] += 1
                for node in rec["dropped"]:
                    derived[node]["dropped"] += 1
            elif rec["type"] == "data" and rec["gen_round"] is not None:
                stats = derived[rec["owner"]]
                if rec["delivered"]:
                    stats["delivered"] += 1
                    stats["latency_rounds"] += rec["round"] - rec["gen_round"]
                else:
                    stats["lost"] += 1
            elif rec["type"] == "reply" and rec["delivered"] and rec["requester"] is not None:
                stats = derived[rec["requester"]]
                if stats["acquisition_round"] is None:
                    stats["acquisition_round"] = rec["round"]
                    stats["slot"] = rec["assigned_slot"]
        # every source makes every sequence: one count for all of them
        assert {s.pop("generated") for s in derived.values()} == {result.metrics.generated}
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
    queues and contenders became masks. The first digests are of schema-1
    text, which read_trace rebuilds from the render, so they pin every
    simulated value across the schema changes. That rebuild parses JSON
    and cannot see key order, spacing or number format, so the second
    digests, of the raw schema-5 text, pin its bytes."""

    @pytest.mark.parametrize(
        "nodes, settings, digest, raw_digest",
        [
            (
                150, dict(ipi=10 * US_SECOND, duration=600 * US_SECOND),
                "7db314489e68025d43aac3bb4d5b907ecff42041b5c0ef8b1237595abe8bfd64",
                "9bd66029ff75d7b42af56c693da6c4ae89ee5cbae5056ac66bf762b192633ac1",
            ),
            (
                150, dict(
                    forwarder_selection=True, loss_probability=0.1, ipi=10 * US_SECOND,
                    duration=450 * US_SECOND,
                ),
                "602b6829cba6597b074a9d9c883af638d9fe69037e396489133d98d47c307873",
                "2556d6e6ede08a2a6410d364e71a179834ce87f84610ccd96cd396b3130fc622",
            ),
            (
                100, dict(
                    loss_probability=0.1, drift_ppm_range=(-300.0, 300.0), ipi=60 * US_SECOND,
                    duration=1800 * US_SECOND,
                ),
                "4ed1fc2d486e6d98143ed098eea93f8888f0068719aa329eb97c6fc57fb7aadc",
                "78fd8fb009dfd100c7261dd33d1985b6fea36bf1e4de2b3d668bbb8b6f4302a6",
            ),
        ],
        ids=["lwb-loss0", "fs-lwb-loss0.1", "lwb-drift"],
    )
    def test_render_digest(self, nodes, settings, digest, raw_digest):
        topo = random_connected_topology(
            random.Random(7), nodes, extra_edge_prob=4 / nodes, max_ecc=8
        )
        cfg = SimConfig(seed=7, **settings)
        text = render_trace(run_simulation(cfg, topo).traces)
        assert hashlib.sha256(schema1_text(text).encode("utf-8")).hexdigest() == digest
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == raw_digest


class TestWideIdRender:
    """Render digest of a lossy fs-lwb run whose ids spread over 2..65535,
    the MAX_NODE_NUMBER cap, so every mask is thousands of bits wide with
    few of them set; no golden has an id above 15. The digest is of the
    schema-1 text read_trace rebuilds, recorded from the schema-3 render,
    whose own digest was recorded when each mask's text was still built
    from a table of per-byte texts; the raw digest pins the schema-5
    bytes."""

    def test_render_digest(self):
        rng = random.Random(26)
        base = random_connected_topology(rng, 20, max_ecc=4)
        ids = [1, 2, *sorted(rng.sample(range(3, 65535), 17)), 65535]
        label = dict(zip(range(1, 21), ids))
        topo = Topology.from_edges((label[u], label[v]) for u, v in base.edges)
        cfg = SimConfig(
            forwarder_selection=True, loss_probability=0.1, max_node_number=65535,
            duration=60 * US_SECOND, seed=26,
        )
        text = render_trace(run_simulation(cfg, topo).traces)
        slots = [r for r in map(json.loads, text.splitlines()[1:]) if r["kind"] != "round"]
        assert any(65535 in r["missed"] for r in slots)
        assert any("awake" in r for r in slots if r["kind"] != "sync")
        digest = "7bb7a24d772d80aedb332f641605fea211360de90b36c2ffe28422de8d025fc6"
        assert hashlib.sha256(schema1_text(text).encode("utf-8")).hexdigest() == digest
        raw_digest = "055866c44455f6848e8dd972c0acc7dd271aba7eed3285c2a8df1a567dcc71f8"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == raw_digest

def _drifting_long_run():
    """The drifting 100-node case above for 90 simulated minutes: the
    benchmark's graph recipe, loss 0.1, drift 300 ppm. Its 2.00 MB text
    (75 minutes wrote 2.07 MB in schema 4 and 1.68 MB in schema 5; an hour
    wrote 2.0 MB in schema 3 and 2.8 MB before radio rows were written only
    on change) is large enough that a render holding the text twice fails
    the bound of test_peak_is_about_one_text."""
    topo = random_connected_topology(random.Random(7), 100, extra_edge_prob=0.04, max_ecc=8)
    cfg = SimConfig(
        seed=7, loss_probability=0.1, drift_ppm_range=(-300.0, 300.0), ipi=60 * US_SECOND,
        duration=5400 * US_SECOND,
    )
    return run_simulation(cfg, topo)


def _render_peak(traces):
    """(text, tracemalloc peak of render_trace above what was traced before)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = render_trace(traces)
        return text, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestRenderMemory:
    """render_trace grows one text in place: about one text at its peak,
    and under a profile function, where every += copies, still near two."""

    @pytest.fixture(scope="class")
    def traces(self):
        return _drifting_long_run().traces

    @pytest.mark.skipif(
        sys.gettrace() is not None or sys.getprofile() is not None or tracemalloc.is_tracing(),
        reason="a trace or profile function makes every += copy the text",
    )
    def test_peak_is_about_one_text(self, traces):
        text, peak = _render_peak(traces)
        assert len(text) > 1_900_000
        assert peak <= 1.3 * len(text) + (1 << 20), (peak, len(text))

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc already traces")
    def test_profiled_render_stays_linear(self, traces):
        plain = render_trace(traces)
        outer = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            text, peak = _render_peak(traces)
        finally:
            sys.setprofile(outer)
        assert text == plain
        assert peak <= 2.3 * len(text), (peak, len(text))

    def test_capped_memos_write_the_same_bytes(self, monkeypatch):
        # a cap of 2 evicts on almost every lossy slot mask, so each id
        # list and radio row is made again after it was dropped
        monkeypatch.setattr(glossy, "MEMO_CAP", 2)
        for name in GOLDENS:
            golden = (DATA_DIR / name).read_text(encoding="utf-8")
            assert render_trace(_golden_traces(name)) == golden, name
        rng = random.Random(20)
        topo = random_connected_topology(rng, 12, max_ecc=4)
        cfg = SimConfig(
            minimum_lwb_round=US_SECOND, ipi=US_SECOND, duration=20 * US_SECOND,
            forwarder_selection=True, loss_probability=0.2, seed=20,
        )
        traces = run_simulation(cfg, topo).traces
        assert len(traces) == 20
        assert len({s.received_mask for t in traces for s in t.slots}) > 2
        assert len({t.radio_totals for t in traces}) > 2
        assert schema1_text(render_trace(traces)) == reference_render_trace(traces)


class TestGeneratedCounts:
    """A round stores how many sequences each source made in it, not one
    (node, round) pair per packet."""

    @staticmethod
    def _run():
        # a 250 ms IPI makes four sequences in each 1 s round of cool-off
        # and stabilization, more than the three a queue holds
        topo = random_connected_topology(random.Random(11), 9, max_ecc=3)
        cfg = SimConfig(
            minimum_lwb_round=125_000, ipi=250_000, queue_capacity=3, loss_probability=0.1,
            duration=30 * US_SECOND, seed=11,
        )
        return run_simulation(cfg, topo)

    def test_render_matches_the_pair_list(self):
        traces = self._run().traces
        assert {t.new_sequences for t in traces} == {0, 1, 4}
        assert any(t.dropped for t in traces)
        text = render_trace(traces)
        rendered = [rec for rec in read_trace(text)[1] if rec["kind"] == "round"]
        want = [json.loads(line) for line in reference_render_trace(traces).splitlines()]
        want = [rec for rec in want if rec["kind"] == "round"]
        assert [(r["generated"], r["dropped"]) for r in rendered] == [
            (r["generated"], r["dropped"]) for r in want
        ]
        busy = next(t for t in traces if t.new_sequences > 1)
        assert rendered[busy.index]["generated"] == [
            [n, busy.index] for n in busy.sources for _ in range(busy.new_sequences)
        ]
        # the schema-1 rebuild of the schema-2 render, whose digest was
        # recorded when every round still held one (node, round) pair per packet
        digest = "281bb159d8c8ef50e72efe2346df3b1e360734cfac2971fe3aa79da0f4c27993"
        assert hashlib.sha256(schema1_text(text).encode("utf-8")).hexdigest() == digest

    def test_sink_alone_generates_nothing(self):
        # every round makes a sequence, but there is no source to make it
        sink_only = Topology.from_edges([], isolated=[1])
        traces = run_simulation(SimConfig(duration=12 * US_SECOND), sink_only).traces
        assert traces[0].new_sequences == 1 and traces[0].sources == ()
        text = render_trace(traces)
        assert schema1_text(text) == reference_render_trace(traces)
        assert '"generated":[]' in text.splitlines()[2]

    def test_metrics_match_a_per_packet_fold(self):
        result = self._run()
        folded = {n: Counter() for n in result.metrics.sources}
        for trace in result.traces:
            for node, _ in generated_of(trace):
                folded[node]["generated"] += 1
            for node in trace.dropped:
                folded[node]["dropped"] += 1
            for slot in trace.slots:
                if slot.kind == "data" and slot.gen_round is not None:
                    folded[slot.owner]["delivered" if slot.delivered else "lost"] += 1
        nodes = result.metrics.to_dict()["nodes"]
        got = {n: (nodes[str(n)]["generated"], nodes[str(n)]["pending"]) for n in folded}
        assert got == {
            n: (c["generated"], c["generated"] - c["dropped"] - c["delivered"] - c["lost"])
            for n, c in folded.items()
        }
        # folded when every round still held one (node, round) pair per packet
        assert got == {2: (120, 3), 3: (120, 2), 4: (120, 3), 5: (120, 2), 6: (120, 3),
                       7: (120, 2), 8: (120, 2), 9: (120, 2)}

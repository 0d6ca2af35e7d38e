"""Metrics accumulation, duty cycles, delivery accounting, comparisons."""

import random

import pytest

from lwbsim import glossy
from lwbsim.config import SimConfig
from lwbsim.engine import DataSlot, ReplySlot, RequestSlot, RoundTrace, SyncSlot
from lwbsim.errors import ComparabilityError, SimulationError
from lwbsim.metrics import PENDING_ROWS, RunMetrics, SourceStats, compare, render_summary
from lwbsim.sim import run_simulation
from lwbsim.topology import Topology

from _support import (
    awake_ids, diamond_pendant, generated_of, line_topology, radio_on_of,
    random_connected_topology,
)

US_SECOND = 1_000_000
mask_of = Topology.mask_of


def _round_trace(index, radio, period=US_SECOND, replies=(), data=(), **kw):
    """A round laid out as the engine lays one out: the sync slot, a
    request and a reply slot per reply given, then the data slots."""
    everyone = mask_of(radio)
    block = [
        slot for reply in replies
        for slot in (RequestSlot(everyone, everyone, reply.requester, 1, True), reply)
    ]
    defaults = dict(
        index=index,
        t_start=index * period,
        phase="operational",
        config=SimConfig(),
        round_period=period,
        n_rr=len(block),
        n_data=len(data),
        slots=[SyncSlot(everyone, everyone, 1), *block, *data],
        node_ids=tuple(radio),
        radio_totals=tuple(radio.values()),
        joined=0,
        desynced=0,
        bootstrap=0,
        sources=(),
        new_sequences=0,
        dropped=(),
    )
    defaults.update(kw)
    return RoundTrace(**defaults)


class TestSourceStats:
    def test_pdr_ignores_pending_packets(self):
        m = RunMetrics(node_ids=[1, 2], sink=1)
        m.accumulate(_round_trace(0, {1: 0, 2: 0}, sources=(2,), new_sequences=10))
        m.sources[2].delivered = 8
        node = m.to_dict()["nodes"]["2"]
        assert (m.generated, node["generated"], node["pending"]) == (10, 10, 2)
        assert node["pdr"] == m.sources[2].pdr == 1.0

    def test_pdr_counts_drops_and_losses(self):
        # of 10 generated packets, all 10 have left the queue
        stats = SourceStats()
        stats.delivered, stats.dropped, stats.lost = 6, 2, 2
        assert stats.pdr == 0.6

    def test_pdr_with_nothing_accountable(self):
        assert SourceStats().pdr == 1.0


class TestRunMetrics:
    def test_duty_cycle_single_sync_slot(self):
        m = RunMetrics(node_ids=[1, 2], sink=1)
        m.accumulate(_round_trace(0, {1: 15_000, 2: 15_000}, period=5 * US_SECOND))
        assert m.duty_cycle(2) == pytest.approx(0.003)

    def test_duty_cycle_of_bootstrap_node_is_one(self):
        m = RunMetrics(node_ids=[1, 2], sink=1)
        m.accumulate(_round_trace(0, {1: 15_000, 2: US_SECOND}, bootstrap=[2]))
        assert m.duty_cycle(2) == 1.0

    def test_rounds_must_arrive_in_order(self):
        m = RunMetrics(node_ids=[1, 2], sink=1)
        m.accumulate(_round_trace(0, {1: 0, 2: 0}))
        with pytest.raises(SimulationError, match="out of order"):
            m.accumulate(_round_trace(2, {1: 0, 2: 0}))

    def test_acquisition_records_first_delivered_reply(self):
        m = RunMetrics(node_ids=[1, 2], sink=1)
        reply = ReplySlot(
            awake_mask=mask_of([1, 2]),
            received_mask=mask_of([1, 2]),
            initiator=None,
            requester=2,
            assigned_slot=0,
            delivered=True,
        )
        m.accumulate(_round_trace(0, {1: 0, 2: 0}, replies=[reply]))
        later = ReplySlot(
            awake_mask=mask_of([1, 2]),
            received_mask=mask_of([1, 2]),
            initiator=None,
            requester=2,
            assigned_slot=5,
            delivered=True,
        )
        m.accumulate(_round_trace(1, {1: 0, 2: 0}, replies=[later]))
        assert m.sources[2].acquisition_round == 0
        assert m.sources[2].slot == 0

    def test_data_slots_split_into_delivered_and_lost(self):
        m = RunMetrics(node_ids=[1, 2], sink=1)
        good = DataSlot(
            awake_mask=mask_of([1, 2]),
            received_mask=mask_of([1, 2]),
            owner=2,
            gen_round=0,
            delivered=True,
        )
        bad = DataSlot(
            awake_mask=mask_of([1, 2]),
            received_mask=mask_of([2]),
            owner=2,
            gen_round=0,
            delivered=False,
        )
        keepalive = DataSlot(
            awake_mask=mask_of([1, 2]),
            received_mask=mask_of([1, 2]),
            owner=2,
            gen_round=None,
            delivered=False,
        )
        trace = _round_trace(
            0, {1: 0, 2: 0}, data=[good, bad, keepalive], sources=(2,), new_sequences=2
        )
        assert generated_of(trace) == [(2, 0), (2, 0)]
        m.accumulate(trace)
        stats = m.sources[2]
        assert stats.delivered == 1
        assert stats.lost == 1
        assert m.generated == 2
        assert stats.latency_rounds == 0

    def test_latency_counts_rounds_in_queue(self):
        m = RunMetrics(node_ids=[1, 2], sink=1)
        m.accumulate(_round_trace(0, {1: 0, 2: 0}, sources=(2,), new_sequences=1))
        data = DataSlot(
            awake_mask=mask_of([1, 2]),
            received_mask=mask_of([1, 2]),
            owner=2,
            gen_round=0,
            delivered=True,
        )
        m.accumulate(_round_trace(1, {1: 0, 2: 0}, data=[data]))
        assert m.sources[2].latency_rounds == 1


class TestRowFold:
    """accumulate counts the radio rows rounds share and radio_on adds them
    up when read: the totals must not depend on when they are read, nor on
    whether equal rows arrive as one object or as several."""

    def _fold_run(self):
        """Accumulate a lossy drifting run's traces one by one into a fresh
        RunMetrics, reading radio_on after each of the first ten rounds and
        at the end; return the run, its traces' rows and the metrics."""
        cfg = SimConfig(
            duration=600 * US_SECOND, loss_probability=0.2,
            drift_ppm_range=(-300.0, 300.0), seed=3,
        )
        result = run_simulation(cfg, random_connected_topology(random.Random(12), 20, max_ecc=4))
        metrics = RunMetrics(node_ids=list(result.topology.nodes), sink=cfg.sink_node_id)
        running = dict.fromkeys(metrics.node_ids, 0)
        for trace in result.traces:
            metrics.accumulate(trace)
            for node, us in radio_on_of(trace).items():
                running[node] += us
            if trace.index < 10:
                assert metrics.radio_on == running, trace.index
        assert metrics.radio_on == running
        for n in metrics.node_ids:
            assert metrics.duty_cycle(n) == running[n] / metrics.elapsed
            assert metrics.to_dict()["nodes"][str(n)]["radio_on_us"] == running[n]
        assert metrics.to_dict() == result.metrics.to_dict()
        return [t.radio_totals for t in result.traces[10:]], metrics

    def test_shared_rows_fold_to_the_running_sum(self, monkeypatch):
        rows, shared = self._fold_run()
        assert len({id(row) for row in rows}) < len(rows)  # rounds share rows
        monkeypatch.setattr(glossy, "MEMO_CAP", 1)
        rows, distinct = self._fold_run()
        # equal rows now arrive as distinct objects, more of them between
        # two reads than the pending table holds
        assert len({id(row) for row in rows}) > max(len(set(rows)), PENDING_ROWS)
        assert distinct.to_dict() == shared.to_dict()
        assert [distinct.duty_cycle(n) for n in distinct.node_ids] == [
            shared.duty_cycle(n) for n in shared.node_ids
        ]


class TestEndToEndMetrics:
    def test_line_run_delivers_everything_accountable(self):
        cfg = SimConfig(duration=60 * US_SECOND)
        result = run_simulation(cfg, line_topology(5))
        for n in (2, 3, 4, 5):
            stats = result.metrics.sources[n]
            assert stats.acquisition_round is not None
            assert stats.pdr == 1.0
            assert stats.delivered > 0
            assert stats.lost == 0

    def test_fs_off_path_node_sleeps_through_foreign_data(self):
        # diamond with a pendant: node 5 forwards for nobody else, so in
        # data rounds it only wakes for sync, the request group and its own
        # slot while the plain bus keeps it awake for every data slot
        cfg = SimConfig(duration=60 * US_SECOND, forwarder_selection=True)
        fs = run_simulation(cfg, diamond_pendant())
        plain = run_simulation(
            cfg.replace(forwarder_selection=False), diamond_pendant()
        )
        data_rounds = [t for t in fs.traces if t.n_data > 0]
        assert data_rounds
        for trace in data_rounds:
            data_slots = [s for s in trace.slots if s.kind == "data"]
            awake_for = sum(1 for s in data_slots if 5 in awake_ids(s))
            assert awake_for == 1
        plain_data = [t for t in plain.traces if t.n_data > 0]
        for trace in plain_data:
            data_slots = [s for s in trace.slots if s.kind == "data"]
            assert all(5 in awake_ids(s) for s in data_slots)

    def test_summary_mentions_every_node(self):
        cfg = SimConfig(duration=30 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        text = render_summary(result.metrics, cfg.mode, cfg.seed)
        assert "mode=lwb" in text
        for n in (1, 2, 3):
            assert f"\n{n:>4}  " in text

    def test_summary_flags_slotless_nodes(self):
        cfg = SimConfig(duration=5 * US_SECOND)  # ends inside cool-off
        result = run_simulation(cfg, line_topology(3))
        text = render_summary(result.metrics, cfg.mode, cfg.seed)
        assert "nodes without a slot: [2, 3]" in text

    def test_to_dict_shape(self):
        cfg = SimConfig(duration=30 * US_SECOND)
        result = run_simulation(cfg, line_topology(3))
        d = result.metrics.to_dict()
        assert set(d) == {"rounds", "elapsed_us", "nodes", "aggregate"}
        assert d["elapsed_us"] >= 30 * US_SECOND
        assert set(d["nodes"]) == {"1", "2", "3"}
        assert "pdr" in d["nodes"]["2"]
        assert "pdr" not in d["nodes"]["1"]


class TestCompare:
    def test_identical_runs_have_zero_deltas(self):
        cfg = SimConfig(duration=40 * US_SECOND)
        a = run_simulation(cfg, line_topology(4))
        b = run_simulation(SimConfig(duration=40 * US_SECOND), line_topology(4))
        report = compare(a, b)
        assert all(duty_a == duty_b for _, duty_a, duty_b, *_ in report.rows())
        assert "nodes_equal=4" in report.render()

    def test_mode_labels_in_report(self):
        cfg = SimConfig(duration=30 * US_SECOND)
        a = run_simulation(cfg, line_topology(3))
        b = run_simulation(
            cfg.replace(forwarder_selection=True), line_topology(3)
        )
        report = compare(a, b)
        assert report.label_a == "lwb"
        assert report.label_b == "fs-lwb"
        d = report.to_dict()
        assert set(d["nodes"]) == {"1", "2", "3"}

    def test_topology_mismatch_rejected(self):
        cfg = SimConfig(duration=30 * US_SECOND)
        a = run_simulation(cfg, line_topology(3))
        b = run_simulation(cfg, line_topology(4))
        with pytest.raises(ComparabilityError, match="topolog"):
            compare(a, b)

    def test_seed_mismatch_rejected(self):
        cfg = SimConfig(duration=30 * US_SECOND)
        a = run_simulation(cfg, line_topology(3))
        b = run_simulation(
            cfg.replace(seed=2), line_topology(3)
        )
        with pytest.raises(ComparabilityError, match="seed"):
            compare(a, b)

    def test_duration_mismatch_rejected(self):
        a = run_simulation(SimConfig(duration=30 * US_SECOND), line_topology(3))
        b = run_simulation(SimConfig(duration=40 * US_SECOND), line_topology(3))
        with pytest.raises(ComparabilityError, match="duration"):
            compare(a, b)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("loss_probability", 0.1),
            ("ipi", 20 * US_SECOND),
            ("slot_length", 10_000),
        ],
    )
    def test_any_other_config_mismatch_rejected(self, field, value):
        cfg = SimConfig(duration=30 * US_SECOND)
        a = run_simulation(cfg, line_topology(3))
        b = run_simulation(cfg.replace(**{field: value}), line_topology(3))
        with pytest.raises(ComparabilityError, match=field):
            compare(a, b)

"""Metrics accumulation, duty cycles, delivery accounting, comparisons."""

import dataclasses

import pytest

from lwbsim.config import SimConfig
from lwbsim.engine import RoundTrace, SlotTrace
from lwbsim.errors import ComparabilityError, SimulationError
from lwbsim.metrics import RunMetrics, SourceStats, compare, render_summary
from lwbsim.sim import run_simulation
from lwbsim.topology import Topology

from _support import diamond_pendant, line_topology

US_SECOND = 1_000_000
mask_of = Topology.mask_of


def _round_trace(index, radio, period=US_SECOND, slots=None, **kw):
    defaults = dict(
        index=index,
        t_start=index * period,
        phase="operational",
        mode="lwb",
        round_period=period,
        n_rr=0,
        n_data=0,
        slots=slots or [],
        node_ids=tuple(radio),
        radio_totals=tuple(radio.values()),
        joined=[],
        desynced=[],
        bootstrap=[],
        generated=[],
        dropped=[],
    )
    defaults.update(kw)
    return RoundTrace(**defaults)


class TestSourceStats:
    def test_pdr_ignores_pending_packets(self):
        stats = SourceStats(generated=10, delivered=8, dropped=0, lost=0)
        assert stats.pending == 2
        assert stats.pdr == 1.0

    def test_pdr_counts_drops_and_losses(self):
        stats = SourceStats(generated=10, delivered=6, dropped=2, lost=2)
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
        reply = SlotTrace(
            t=0,
            kind="reply",
            awake_mask=mask_of([1, 2]),
            received_mask=mask_of([1, 2]),
            requester=2,
            assigned_slot=0,
            delivered=True,
        )
        m.accumulate(_round_trace(0, {1: 0, 2: 0}, slots=[reply]))
        later = dataclasses.replace(reply, assigned_slot=5)
        m.accumulate(_round_trace(1, {1: 0, 2: 0}, slots=[later]))
        assert m.sources[2].acquisition_round == 0
        assert m.sources[2].slot == 0

    def test_data_slots_split_into_delivered_and_lost(self):
        m = RunMetrics(node_ids=[1, 2], sink=1)
        good = SlotTrace(
            t=0,
            kind="data",
            awake_mask=mask_of([1, 2]),
            received_mask=mask_of([1, 2]),
            owner=2,
            gen_round=0,
            delivered=True,
        )
        bad = dataclasses.replace(good, delivered=False, received_mask=mask_of([2]))
        keepalive = dataclasses.replace(good, gen_round=None, delivered=False)
        m.accumulate(
            _round_trace(
                0, {1: 0, 2: 0}, slots=[good, bad, keepalive], generated=[(2, 0), (2, 0)]
            )
        )
        stats = m.sources[2]
        assert stats.delivered == 1
        assert stats.lost == 1
        assert stats.generated == 2
        assert stats.latencies == {0: 1}

    def test_latency_counts_rounds_in_queue(self):
        m = RunMetrics(node_ids=[1, 2], sink=1)
        m.accumulate(_round_trace(0, {1: 0, 2: 0}, generated=[(2, 0)]))
        data = SlotTrace(
            t=0,
            kind="data",
            awake_mask=mask_of([1, 2]),
            received_mask=mask_of([1, 2]),
            owner=2,
            gen_round=0,
            delivered=True,
        )
        m.accumulate(_round_trace(1, {1: 0, 2: 0}, slots=[data]))
        assert m.sources[2].latencies == {1: 1}


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
            dataclasses.replace(cfg, forwarder_selection=False), diamond_pendant()
        )
        data_rounds = [t for t in fs.traces if t.n_data > 0]
        assert data_rounds
        for trace in data_rounds:
            data_slots = [s for s in trace.slots if s.kind == "data"]
            awake_for = sum(1 for s in data_slots if 5 in s.awake)
            assert awake_for == 1
        plain_data = [t for t in plain.traces if t.n_data > 0]
        for trace in plain_data:
            data_slots = [s for s in trace.slots if s.kind == "data"]
            assert all(5 in s.awake for s in data_slots)

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
        assert all(row.duty_delta == 0.0 for row in report.per_node)
        assert "nodes_equal=4" in report.render()

    def test_mode_labels_in_report(self):
        cfg = SimConfig(duration=30 * US_SECOND)
        a = run_simulation(cfg, line_topology(3))
        b = run_simulation(
            dataclasses.replace(cfg, forwarder_selection=True), line_topology(3)
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
            dataclasses.replace(cfg, seed=2), line_topology(3)
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
        b = run_simulation(dataclasses.replace(cfg, **{field: value}), line_topology(3))
        with pytest.raises(ComparabilityError, match=field):
            compare(a, b)

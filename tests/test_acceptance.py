"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single verdict line; run with -s to see them all:

    pytest tests/test_acceptance.py -s

Golden trace files live in tests/data/. Regenerate them after an intended
behavior change with LWBSIM_REGEN_GOLDEN=1 and re-review the diff.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from lwbsim.config import SimConfig
from lwbsim.core import SyncHeader
from lwbsim.engine import execute_round
from lwbsim.glossy import flood, ids_of
from lwbsim.sim import build_world, render_trace, run_simulation
from lwbsim.topology import Topology

from _support import (
    bfs_oracle,
    hops_of,
    line_topology,
    random_connected_topology,
    reachable_hops,
    shortest_path_forwarders,
    stepped_run,
    sync_node,
)

US_SECOND = 1_000_000
DATA_DIR = Path(__file__).parent / "data"

# Fixed graph for the golden runs (10 nodes, every node within 2 hops of
# the sink). Changing it invalidates the golden files.
GOLDEN_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 6), (1, 9), (2, 6), (2, 7), (2, 8),
    (2, 9), (3, 4), (3, 5), (3, 7), (4, 8), (4, 9), (8, 9), (9, 10),
]


def _report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"ACCEPTANCE {number} {name}: {verdict}{suffix}")
    return ok


def test_criterion_1_flood_hops_match_bfs():
    rng = random.Random(1001)
    mismatches = []
    start = time.monotonic()
    for graph_no in range(200):
        topo = random_connected_topology(rng, rng.randint(2, 50))
        nodes = sorted(topo.nodes)
        for sample in range(3):
            initiator = rng.choice(nodes)
            if sample == 0:
                participants = set(nodes)
            else:
                keep = rng.choice((0.3, 0.7))
                participants = {n for n in nodes if rng.random() < keep}
                participants.add(initiator)
            got = hops_of(flood(topo, initiator, Topology.mask_of(participants)))
            want = reachable_hops(bfs_oracle(topo, initiator, participants))
            if got != want:
                mismatches.append((graph_no, initiator, sorted(participants)))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 10.0
    assert _report(
        1,
        "flood hops match BFS",
        ok,
        f"{len(mismatches)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_forwarder_sets_match_two_distance_oracle():
    rng = random.Random(2002)
    mismatches = []
    for i in range(100):
        topo = random_connected_topology(rng, rng.randint(4, 25), max_ecc=8)
        cfg = SimConfig(
            forwarder_selection=True, duration=20 * US_SECOND, seed=i + 1
        )
        result = run_simulation(cfg, topo)
        schedule = result.world.schedule
        if len(schedule.slot_owner) != len(topo.nodes) - 1:
            mismatches.append((i, "not every source acquired a slot"))
            continue
        for slot, owner in enumerate(schedule.slot_owner):
            _, forwarders = result.world.announced_slots.get(slot, (None, 0))
            protocol = set(ids_of(forwarders))
            oracle = shortest_path_forwarders(topo, 1, owner)
            if protocol != oracle:
                mismatches.append((i, slot, sorted(protocol), sorted(oracle)))
    assert _report(
        2,
        "forwarder sets match the two-distance oracle",
        not mismatches,
        f"{len(mismatches)} mismatching slots, first: {mismatches[:1]}",
    )


def test_criterion_3_new_assignments_bounded_by_request_groups():
    rng = random.Random(3003)
    scenarios = [
        ("plain capture loss 0", dict(), 14),
        ("plain capture loss 0.3", dict(loss_probability=0.3), 12),
        (
            "fs capture loss 0.3",
            dict(forwarder_selection=True, loss_probability=0.3),
            16,
        ),
        ("plain collision loss 0", dict(contention_policy="collision"), 2),
        (
            "fs collision loss 0.2",
            dict(
                forwarder_selection=True,
                contention_policy="collision",
                loss_probability=0.2,
            ),
            10,
        ),
    ]
    problems = []
    capture_assignments = 0
    for label, overrides, n in scenarios:
        topo = (
            line_topology(n) if n <= 2 else random_connected_topology(rng, n)
        )
        cfg = SimConfig(duration=60 * US_SECOND, seed=rng.randint(1, 10**6), **overrides)
        result = run_simulation(cfg, topo)
        group = cfg.rr_group_size
        for trace in result.traces:
            if len(trace.new_assignments) > trace.n_rr // group:
                problems.append(
                    f"{label}: round {trace.index} made "
                    f"{len(trace.new_assignments)} assignments in "
                    f"{trace.n_rr // group} request groups"
                )
        if "capture" in label:
            capture_assignments += sum(
                len(t.new_assignments) for t in result.traces
            )
    if capture_assignments == 0:
        problems.append("no assignments happened at all; the bound was vacuous")
    assert _report(
        3,
        "new assignments per round bounded by request groups",
        not problems,
        "; ".join(problems[:3]),
    )


def _golden_run(fs: bool):
    topo = Topology.from_edges(GOLDEN_EDGES)
    cfg = SimConfig(duration=40 * US_SECOND, seed=42, forwarder_selection=fs)
    return run_simulation(cfg, topo)


def test_criterion_4_phase_schedule_matches_golden_trace():
    problems = []
    for fs, golden_name in ((False, "golden_lwb.jsonl"), (True, "golden_fs.jsonl")):
        result = _golden_run(fs)
        label = result.config.mode
        traces = result.traces
        full_block = 63 if fs else 64
        reduced = 3 if fs else 2
        if [t.round_period for t in traces[:20]] != [US_SECOND] * 20:
            problems.append(f"{label}: early rounds are not one second long")
        if any(t.n_rr or t.n_data for t in traces[:10]):
            problems.append(f"{label}: cool-off rounds carry non-sync slots")
        if traces[10].n_rr != full_block:
            problems.append(
                f"{label}: first stabilization round opened {traces[10].n_rr} "
                f"request slots, wanted {full_block}"
            )
        if [t.n_rr for t in traces[11:20]] != [reduced] * 9:
            problems.append(f"{label}: request block did not shrink to {reduced}")
        op = traces[20:]
        if [t.round_period for t in op] != [5 * US_SECOND] * 4:
            problems.append(f"{label}: operational rounds are not five seconds")
        if [t.n_data for t in op] != [9, 0, 9, 0]:
            problems.append(
                f"{label}: data cadence {[t.n_data for t in op]}, wanted [9, 0, 9, 0]"
            )
        acq = [
            result.metrics.sources[n].acquisition_round
            for n in sorted(result.metrics.sources)
        ]
        if acq != [10] * 9:
            problems.append(f"{label}: acquisition rounds {acq}")

        golden_path = DATA_DIR / golden_name
        rendered = render_trace(traces)
        if os.environ.get("LWBSIM_REGEN_GOLDEN") == "1":
            golden_path.write_text(rendered, encoding="utf-8")
        if not golden_path.is_file():
            problems.append(f"{label}: missing golden file {golden_name}")
        elif golden_path.read_text(encoding="utf-8") != rendered:
            problems.append(f"{label}: trace deviates from {golden_name}")
    assert _report(
        4, "phase schedule matches the golden trace", not problems,
        "; ".join(problems[:4]),
    )


def test_criterion_5_guard_window_boundary():
    problems = []

    def desyncs_after(gap_s):
        # one sync-only round gap_s after node 2's last sync, at 100 ppm
        cfg = SimConfig(drift_ppm_range=(100.0, 100.0))
        world = build_world(cfg, line_topology(2))
        sync_node(world, 2)
        world.now = gap_s * US_SECOND
        return execute_round(world, SyncHeader(US_SECOND, 0, 0)).desynced == 1 << 2

    if desyncs_after(10):
        problems.append("1 ms offset after 10 s broke the 2 ms guard")
    if 20 * US_SECOND * 100.0 * 1e-6 != 2000.0 or desyncs_after(20):
        problems.append("offset exactly at the guard must stay synced")
    if not desyncs_after(30):
        problems.append("3 ms offset after 30 s must desync")

    def run_gap(gap_s, duration_s):
        cfg = SimConfig(
            minimum_lwb_round=gap_s * US_SECOND,
            ipi=gap_s * US_SECOND,
            drift_ppm_range=(100.0, 100.0),
            duration=duration_s * US_SECOND,
        )
        return run_simulation(cfg, line_topology(2))

    steady = run_gap(10, 80)
    if any(t.desynced for t in steady.traces):
        problems.append("10 s sync gaps at 100 ppm caused a desync")

    broken = run_gap(30, 110)
    op = [t for t in broken.traces if t.phase == "operational"][1:]
    if not op or not all(t.desynced == 1 << 2 for t in op):
        problems.append("30 s sync gaps at 100 ppm did not desync the node")
    if not all(t.joined == 1 << 2 for t in op):
        problems.append("desynced node did not re-bootstrap and rejoin")

    boundary = run_gap(20, 120)
    if any(t.desynced for t in boundary.traces):
        problems.append("exact-guard offset (20 s at 100 ppm) must not desync")

    assert _report(
        5, "guard window boundary", not problems, "; ".join(problems[:3])
    )


def test_criterion_6_per_node_radio_cost_dominance():
    rng = random.Random(6006)
    higher = []  # (graph, node, fs_minus_plain_us, off_path)
    off_path_equal = []
    slot_us = SimConfig().slot_length
    for i in range(50):
        topo = random_connected_topology(rng, rng.randint(4, 20), max_ecc=8)
        cfg = SimConfig(duration=60 * US_SECOND, seed=100 + i)
        plain = run_simulation(cfg, topo)
        fs = run_simulation(
            cfg.replace(forwarder_selection=True), topo
        )
        sources = sorted(topo.nodes - {1})
        for node in sorted(topo.nodes):
            cost_plain = plain.metrics.radio_on[node]
            cost_fs = fs.metrics.radio_on[node]
            off_path = any(
                node not in shortest_path_forwarders(topo, 1, s)
                for s in sources
            )
            if cost_fs > cost_plain:
                higher.append((i, node, cost_fs - cost_plain, off_path))
            elif off_path and cost_fs == cost_plain:
                off_path_equal.append((i, node))
    ok = not higher and not off_path_equal
    if not ok:
        print(
            "per-node radio cost, forwarder selection minus plain, in "
            f"{slot_us // 1000} ms slots (positive = forwarder selection "
            "costs more):"
        )
        for graph, node, delta, off_path in higher[:6]:
            kind = "off-path" if off_path else "on every path"
            print(
                f"  graph {graph} node {node} ({kind}): "
                f"{delta // slot_us:+d} slots"
            )
        print(
            f"  ... {len(higher)} node/graph pairs cost more with forwarder "
            f"selection, {len(off_path_equal)} off-path pairs broke even"
        )
        print(
            "  every request group carries one extra slot when forwarder "
            "selection is on, and every active node sits through the whole "
            "request block, so nodes that already forward for everyone (the "
            "sink above all) pay for the extra slots and save nothing back"
        )
    assert _report(
        6,
        "per-node radio cost dominance",
        ok,
        f"{len(higher)} nodes cost more, {len(off_path_equal)} off-path nodes "
        "only broke even",
    )


def test_criterion_7_delivery_ratio_one_at_zero_loss():
    rng = random.Random(7007)
    topo = random_connected_topology(rng, 12, max_ecc=8)
    problems = []
    for fs in (False, True):
        cfg = SimConfig(
            duration=540 * US_SECOND, forwarder_selection=fs, seed=17
        )
        result = run_simulation(cfg, topo)
        op_rounds = sum(1 for t in result.traces if t.phase == "operational")
        if op_rounds < 100:
            problems.append(f"{cfg.mode}: only {op_rounds} operational rounds")
        holders = [
            n
            for n, s in result.metrics.sources.items()
            if s.slot is not None
        ]
        if len(holders) != len(topo.nodes) - 1:
            problems.append(f"{cfg.mode}: only {len(holders)} slot holders")
        for n in holders:
            stats = result.metrics.sources[n]
            if stats.pdr != 1.0 or stats.lost or stats.dropped:
                problems.append(
                    f"{cfg.mode}: node {n} pdr={stats.pdr} lost={stats.lost} "
                    f"dropped={stats.dropped}"
                )
            if stats.delivered == 0:
                problems.append(f"{cfg.mode}: node {n} delivered nothing")
    assert _report(
        7,
        "delivery ratio one at zero loss",
        not problems,
        "; ".join(problems[:3]),
    )


def test_criterion_8_distinct_slots_for_all_sources_within_stabilization():
    topo = random_connected_topology(random.Random(808), 20, max_ecc=8)
    cfg = SimConfig(duration=20 * US_SECOND, seed=5)
    world, metrics, run = stepped_run(cfg, topo)
    problems = []
    for trace in run:  # the slot table stays injective in every round
        slot_owner = world.schedule.slot_owner
        if len(set(slot_owner)) != len(slot_owner):
            problems.append(f"round {trace.index} repeats an owner in {slot_owner}")
    stats = metrics.sources
    unacquired = [n for n, s in stats.items() if s.acquisition_round is None]
    if unacquired:
        problems.append(f"no slot for nodes {unacquired}")
    late = {
        n: s.acquisition_round
        for n, s in stats.items()
        if s.acquisition_round is not None and s.acquisition_round > 19
    }
    if late:
        problems.append(f"acquired after stabilization: {late}")
    slots = [s.slot for s in stats.values() if s.slot is not None]
    if len(set(slots)) != 19:
        problems.append(f"{len(set(slots))} distinct slots for 19 sources")
    assert _report(
        8,
        "distinct slots for all sources within stabilization",
        not problems,
        "; ".join(problems[:3]),
    )


def test_criterion_9_byte_identical_traces_per_seed(tmp_path):
    topo = random_connected_topology(random.Random(909), 12)
    cfg = SimConfig(
        duration=40 * US_SECOND,
        loss_probability=0.25,
        drift_ppm_range=(50.0, 150.0),
        forwarder_selection=True,
        seed=31,
    )
    texts = {}
    for name, seed in (("a", 31), ("b", 31), ("c", 32)):
        run_cfg = cfg.replace(seed=seed)
        path = tmp_path / f"{name}.jsonl"
        path.write_text(
            render_trace(run_simulation(run_cfg, topo).traces), encoding="utf-8"
        )
        texts[name] = path.read_bytes()
    problems = []
    if texts["a"] != texts["b"]:
        problems.append("same seed produced different trace bytes")
    if texts["a"] == texts["c"]:
        problems.append("seed+1 produced an identical trace")
    assert _report(
        9,
        "byte-identical traces per seed",
        not problems,
        "; ".join(problems),
    )


def test_golden_fs_trace_is_identical_across_hash_seeds():
    # criterion 9 compares runs within one interpreter; string hashing is
    # randomized per process, so a set or dict ordered by hash would only
    # show across fresh interpreters
    tests_dir = Path(__file__).parent
    path = os.pathsep.join(
        filter(None, [str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH")])
    )
    script = (
        "import sys, test_acceptance; from lwbsim.sim import render_trace; "
        "sys.stdout.buffer.write("
        "render_trace(test_acceptance._golden_run(True).traces).encode('utf-8'))"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            check=True,
            timeout=120,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1] == (DATA_DIR / "golden_fs.jsonl").read_bytes()

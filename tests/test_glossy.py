"""Flood wave mechanics, the bitmask kernel against the set-based wave
loop it replaced, the zero-loss memo, and clock guard arithmetic."""

import random

import pytest

from lwbsim import glossy
from lwbsim.glossy import ClockState, flood, waves
from lwbsim.topology import Topology

from _support import (
    adjacency,
    bfs_oracle,
    reachable_hops,
    random_connected_topology,
    reference_flood_hops,
)


def test_flood_line_all_participate():
    topo = Topology.from_edges([(1, 2), (2, 3), (3, 4)])
    out = flood(topo, 1, b"", Topology.mask_of({1, 2, 3, 4}))
    assert out.hops == {1: 0, 2: 1, 3: 2, 4: 3}


def test_flood_listener_does_not_relay():
    # node 2 hears the flood but is not a participant, so node 3 starves
    topo = Topology.from_edges([(1, 2), (2, 3)])
    out = flood(topo, 1, b"", Topology.mask_of({1, 3}))
    assert out.hops == {1: 0, 2: 1}
    assert not out.received(3)


def test_flood_single_node_topology():
    topo = Topology(frozenset({1}), frozenset())
    out = flood(topo, 1, b"", Topology.mask_of({1}))
    assert out.hops == {1: 0}


def test_flood_initiator_transmits_even_outside_participants():
    topo = Topology.from_edges([(1, 2)])
    out = flood(topo, 1, b"", Topology.mask_of(set()))
    assert out.hops == {1: 0, 2: 1}


def test_flood_diamond_hops_match_bfs():
    topo = Topology.from_edges([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    out = flood(topo, 1, b"", Topology.mask_of(topo.nodes))
    assert out.hops == reachable_hops(bfs_oracle(topo, 1))


def test_flood_equals_bfs_for_random_participant_sets():
    rng = random.Random(777)
    for _ in range(50):
        topo = random_connected_topology(rng, rng.randint(2, 50))
        nodes = sorted(topo.nodes)
        initiator = rng.choice(nodes)
        participants = {n for n in nodes if rng.random() < 0.7} | {initiator}
        out = flood(topo, initiator, b"", Topology.mask_of(participants))
        assert out.hops == reachable_hops(bfs_oracle(topo, initiator, participants))


def test_flood_participation_monotone():
    # more relays never means fewer receivers
    rng = random.Random(4242)
    for _ in range(30):
        topo = random_connected_topology(rng, rng.randint(2, 30))
        nodes = sorted(topo.nodes)
        initiator = rng.choice(nodes)
        small = {n for n in nodes if rng.random() < 0.4} | {initiator}
        big = small | {n for n in nodes if rng.random() < 0.5}
        got_small = set(flood(topo, initiator, b"", Topology.mask_of(small)).hops)
        got_big = set(flood(topo, initiator, b"", Topology.mask_of(big)).hops)
        assert got_small <= got_big


def test_flood_hop_is_one_more_than_some_transmitting_neighbor():
    rng = random.Random(31337)
    for _ in range(20):
        topo = random_connected_topology(rng, rng.randint(3, 30))
        nodes = sorted(topo.nodes)
        initiator = rng.choice(nodes)
        participants = {n for n in nodes if rng.random() < 0.6} | {initiator}
        out = flood(topo, initiator, b"", Topology.mask_of(participants))
        transmitters = {n for n in out.hops if n in participants or n == initiator}
        adj = adjacency(topo)
        for node, hop in out.hops.items():
            if node == initiator:
                continue
            assert any(
                nb in transmitters and out.hops.get(nb) == hop - 1
                for nb in adj[node]
            ), f"node {node} at hop {hop} has no upstream transmitter"


def test_flood_loss_deterministic_per_seed():
    topo = Topology.from_edges([(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)])
    a = flood(topo, 1, b"", Topology.mask_of(topo.nodes), 0.5, random.Random(9))
    b = flood(topo, 1, b"", Topology.mask_of(topo.nodes), 0.5, random.Random(9))
    assert a.hops == b.hops


def test_flood_loss_can_strand_nodes():
    # with heavy loss on a line some suffix of the line is cut off
    topo = Topology.from_edges([(i, i + 1) for i in range(1, 10)])
    rng = random.Random(2)
    out = flood(topo, 1, b"", Topology.mask_of(topo.nodes), 0.9, rng)
    got = set(out.hops)
    assert 1 in got
    # receivers form a prefix of the line: each received node's predecessor
    # must also have received
    for n in got:
        if n > 1:
            assert n - 1 in got


def test_flood_zero_loss_never_draws_from_rng():
    class Boom(random.Random):
        def random(self):
            raise AssertionError("rng consulted with loss 0")

    topo = Topology.from_edges([(1, 2)])
    flood(topo, 1, b"", Topology.mask_of({1, 2}), 0.0, Boom())


def test_flood_argument_errors():
    topo = Topology.from_edges([(1, 2)])
    with pytest.raises(ValueError, match="not in topology"):
        flood(topo, 7, b"", Topology.mask_of({1, 2}))
    with pytest.raises(ValueError, match="exceeds"):
        flood(topo, 1, b"x" * 41, Topology.mask_of({1, 2}))
    with pytest.raises(ValueError, match="loss probability"):
        flood(topo, 1, b"", Topology.mask_of({1, 2}), 1.0, random.Random(0))
    with pytest.raises(ValueError, match="rng"):
        flood(topo, 1, b"", Topology.mask_of({1, 2}), 0.5, None)


def _random_floods(seed, count, max_nodes=40):
    """(topology, initiator, participants) triples on random graphs."""
    rng = random.Random(seed)
    for _ in range(count):
        topo = random_connected_topology(rng, rng.randint(2, max_nodes))
        nodes = sorted(topo.nodes)
        initiator = rng.choice(nodes)
        keep = rng.choice((1.0, 0.7, 0.3))
        participants = {n for n in nodes if rng.random() < keep}
        if rng.random() < 0.8:
            participants.add(initiator)
        yield topo, initiator, participants


@pytest.mark.parametrize("loss", [0.0, 0.1, 0.5])
def test_kernel_matches_reference_wave_loop(loss):
    for topo, initiator, participants in _random_floods(5150, 60):
        ours, theirs = random.Random(77), random.Random(77)
        out = flood(topo, initiator, b"", Topology.mask_of(participants), loss, ours)
        want = reference_flood_hops(topo, initiator, participants, loss, theirs)
        assert out.hops == want
        # equal rng states pin down the number and order of loss draws
        assert ours.getstate() == theirs.getstate()
        assert out.heard == sorted(n for n in want if n in participants)


def test_kernel_reports_relaying_receivers():
    topo = Topology.from_edges([(1, 2), (2, 3), (3, 4), (1, 5)])
    hops, relayed = waves(topo.neighbor_masks, 1, Topology.mask_of({2, 5}))
    assert hops == {1: 0, 2: 1, 5: 1, 3: 2}
    assert relayed == [2, 5]


def test_memo_hit_equals_fresh_computation():
    for topo, initiator, participants in _random_floods(6160, 30):
        first = flood(topo, initiator, b"", Topology.mask_of(participants))
        again = flood(topo, initiator, b"", Topology.mask_of(set(participants)))
        assert again is first
        topo.flood_memo.clear()
        fresh = flood(topo, initiator, b"", Topology.mask_of(participants))
        assert fresh is not first
        assert fresh.hops == first.hops
        assert fresh.heard == first.heard


def test_lossy_floods_bypass_the_memo():
    topo = Topology.from_edges([(1, 2), (2, 3)])
    flood(topo, 1, b"", Topology.mask_of({1, 2, 3}), 0.5, random.Random(3))
    assert not topo.flood_memo


def test_memo_hit_still_checks_arguments():
    topo = Topology.from_edges([(1, 2)])
    outcome = flood(topo, 1, b"", Topology.mask_of({1, 2}))
    assert flood(topo, 1, b"", Topology.mask_of({1, 2})) is outcome
    with pytest.raises(ValueError, match="exceeds"):
        flood(topo, 1, b"x" * 41, Topology.mask_of({1, 2}))
    # plant an entry for a node the topology does not have
    topo.flood_memo[(7, Topology.mask_of({1, 2}))] = outcome
    with pytest.raises(ValueError, match="not in topology"):
        flood(topo, 7, b"", Topology.mask_of({1, 2}))


def test_memo_size_is_bounded():
    topo = random_connected_topology(random.Random(8), 12)
    others = sorted(topo.nodes - {1})
    for i in range(glossy.MEMO_CAP + 50):
        participants = {1} | {n for bit, n in enumerate(others) if i >> bit & 1}
        flood(topo, 1, b"", Topology.mask_of(participants))
        assert len(topo.flood_memo) <= glossy.MEMO_CAP
    assert len(topo.flood_memo) == glossy.MEMO_CAP
    # the oldest entries went first
    assert (1, Topology.mask_of({1})) not in topo.flood_memo


class TestClockState:
    def test_apply_sync_sets_state(self):
        clock = ClockState(drift_ppm=50.0)
        clock.apply_sync(1_000_000)
        assert clock.last_sync_time == 1_000_000

    def test_small_drift_survives_round(self):
        # 50 ppm over 5 s accumulates 250 us, well inside the 2 ms guard
        clock = ClockState(drift_ppm=50.0)
        clock.apply_sync(0)
        assert clock.offset_at(5_000_000) == pytest.approx(250.0)
        assert clock.check_guard(5_000_000)

    def test_large_drift_desyncs(self):
        # 500 ppm over 5 s accumulates 2.5 ms, over the guard
        clock = ClockState(drift_ppm=500.0)
        clock.apply_sync(0)
        assert not clock.check_guard(5_000_000)

    def test_hundred_ppm_examples(self):
        clock = ClockState(drift_ppm=100.0)
        clock.apply_sync(0)
        assert clock.check_guard(10_000_000)  # 1 ms <= 2 ms
        clock = ClockState(drift_ppm=100.0)
        clock.apply_sync(0)
        assert not clock.check_guard(30_000_000)  # 3 ms > 2 ms

    def test_exact_guard_boundary_stays_synced(self):
        # 100 ppm over 20 s is exactly 2000 us: not strictly over the guard
        clock = ClockState(drift_ppm=100.0)
        clock.apply_sync(0)
        assert clock.offset_at(20_000_000) == 2000.0
        assert clock.check_guard(20_000_000)

    def test_negative_drift_uses_magnitude(self):
        clock = ClockState(drift_ppm=-500.0)
        clock.apply_sync(0)
        assert not clock.check_guard(5_000_000)

    def test_zero_drift_never_desyncs(self):
        clock = ClockState(drift_ppm=0.0)
        clock.apply_sync(0)
        assert clock.check_guard(10**12)

    def test_resync_restores_margin(self):
        clock = ClockState(drift_ppm=100.0)
        clock.apply_sync(0)
        assert not clock.check_guard(30_000_000)
        clock.apply_sync(30_000_000)
        assert clock.check_guard(40_000_000)

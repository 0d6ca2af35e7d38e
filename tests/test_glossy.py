"""Flood wave mechanics, the bitmask kernel against the set-based wave
loop it replaced, and the zero-loss memo."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lwbsim
from lwbsim import glossy
from lwbsim.glossy import flood, ids_of, waves
from lwbsim.topology import Topology

from _support import (
    adjacency,
    bfs_oracle,
    hops_of,
    reachable_hops,
    random_connected_topology,
    reference_flood_hops,
    relabelled,
)


def test_flood_line_all_participate():
    topo = Topology.from_edges([(1, 2), (2, 3), (3, 4)])
    out = flood(topo, 1, Topology.mask_of({1, 2, 3, 4}))
    assert hops_of(out) == {1: 0, 2: 1, 3: 2, 4: 3}


def test_flood_listener_does_not_relay():
    # node 2 hears the flood but is not a participant, so node 3 starves
    topo = Topology.from_edges([(1, 2), (2, 3)])
    out = flood(topo, 1, Topology.mask_of({1, 3}))
    assert hops_of(out) == {1: 0, 2: 1}
    assert not out.received(3)


def test_flood_single_node_topology():
    topo = Topology(frozenset({1}), frozenset())
    out = flood(topo, 1, Topology.mask_of({1}))
    assert hops_of(out) == {1: 0}


def test_flood_initiator_transmits_even_outside_participants():
    topo = Topology.from_edges([(1, 2)])
    out = flood(topo, 1, Topology.mask_of(set()))
    assert hops_of(out) == {1: 0, 2: 1}


def test_flood_diamond_hops_match_bfs():
    topo = Topology.from_edges([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    out = flood(topo, 1, Topology.mask_of(topo.nodes))
    assert hops_of(out) == reachable_hops(bfs_oracle(topo, 1))


def test_flood_equals_bfs_for_random_participant_sets():
    rng = random.Random(777)
    for _ in range(50):
        topo = random_connected_topology(rng, rng.randint(2, 50))
        nodes = sorted(topo.nodes)
        initiator = rng.choice(nodes)
        participants = {n for n in nodes if rng.random() < 0.7} | {initiator}
        out = flood(topo, initiator, Topology.mask_of(participants))
        assert hops_of(out) == reachable_hops(bfs_oracle(topo, initiator, participants))


def test_flood_participation_monotone():
    # more relays never means fewer receivers
    rng = random.Random(4242)
    for _ in range(30):
        topo = random_connected_topology(rng, rng.randint(2, 30))
        nodes = sorted(topo.nodes)
        initiator = rng.choice(nodes)
        small = {n for n in nodes if rng.random() < 0.4} | {initiator}
        big = small | {n for n in nodes if rng.random() < 0.5}
        got_small = set(hops_of(flood(topo, initiator, Topology.mask_of(small))))
        got_big = set(hops_of(flood(topo, initiator, Topology.mask_of(big))))
        assert got_small <= got_big


def test_flood_hop_is_one_more_than_some_transmitting_neighbor():
    rng = random.Random(31337)
    for _ in range(20):
        topo = random_connected_topology(rng, rng.randint(3, 30))
        nodes = sorted(topo.nodes)
        initiator = rng.choice(nodes)
        participants = {n for n in nodes if rng.random() < 0.6} | {initiator}
        out = flood(topo, initiator, Topology.mask_of(participants))
        transmitters = {n for n in hops_of(out) if n in participants or n == initiator}
        adj = adjacency(topo)
        for node, hop in hops_of(out).items():
            if node == initiator:
                continue
            assert any(
                nb in transmitters and hops_of(out).get(nb) == hop - 1
                for nb in adj[node]
            ), f"node {node} at hop {hop} has no upstream transmitter"


def test_flood_loss_deterministic_per_seed():
    topo = Topology.from_edges([(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)])
    a = flood(topo, 1, Topology.mask_of(topo.nodes), 0.5, random.Random(9))
    b = flood(topo, 1, Topology.mask_of(topo.nodes), 0.5, random.Random(9))
    assert hops_of(a) == hops_of(b)


def test_flood_loss_can_strand_nodes():
    # with heavy loss on a line some suffix of the line is cut off
    topo = Topology.from_edges([(i, i + 1) for i in range(1, 10)])
    rng = random.Random(2)
    out = flood(topo, 1, Topology.mask_of(topo.nodes), 0.9, rng)
    got = set(hops_of(out))
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
    flood(topo, 1, Topology.mask_of({1, 2}), 0.0, Boom())


def test_flood_argument_errors():
    topo = Topology.from_edges([(1, 2)])
    with pytest.raises(ValueError, match="not in topology"):
        flood(topo, 7, Topology.mask_of({1, 2}))
    with pytest.raises(ValueError, match="loss probability"):
        flood(topo, 1, Topology.mask_of({1, 2}), 1.0, random.Random(0))
    with pytest.raises(ValueError, match="rng"):
        flood(topo, 1, Topology.mask_of({1, 2}), 0.5, None)


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
        out = flood(topo, initiator, Topology.mask_of(participants), loss, ours)
        want = reference_flood_hops(topo, initiator, participants, loss, theirs)
        assert hops_of(out) == want
        # equal rng states pin down the number and order of loss draws
        assert ours.getstate() == theirs.getstate()
        assert ids_of(out.reached & out.relays) == sorted(n for n in want if n in participants)


def _bench_scale_floods(seed, count):
    """(topology, initiator, participants) triples shaped like an fs-lwb
    data slot on a bench network: 150-300 nodes with the bench generator's
    edge density, ids spread up to 1200 (most above CPython's small-int
    cache), and 10-30% of the nodes relaying."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(150, 300)
        tree = random_connected_topology(rng, n, extra_edge_prob=4 / n)
        ids = dict(zip(range(1, n + 1), rng.sample(range(1, 1201), n)))
        topo = Topology.from_edges((ids[u], ids[v]) for u, v in tree.edges)
        nodes = sorted(topo.nodes)
        initiator = rng.choice(nodes)
        keep = rng.uniform(0.1, 0.3)
        participants = {n for n in nodes if rng.random() < keep} | {initiator}
        yield topo, initiator, participants


def _wide_id_floods(seed):
    """(topology, initiator, participants) triples on graphs whose ids sit
    where a byte-at-a-time walk can slip: every id from 0 to 39, id 0 and
    both sides of every nibble and byte edge (3/4, 7/8, 11/12, 15/16, ...),
    150 ids spread over 2..65535, and 150 ids clustered at 65386..65535.
    Relay shares run from a few relays to all nodes."""
    rng = random.Random(seed)
    id_sets = [
        range(40),
        [0] + [i for i in range(1, 72) if i % 4 in (0, 3)],
        rng.sample(range(2, 65536), 150),
        range(65386, 65536),
    ]
    for ids in id_sets:
        for _ in range(3):
            n = len(ids)
            topo = relabelled(random_connected_topology(rng, n, extra_edge_prob=4 / n), ids)
            nodes = sorted(topo.nodes)
            initiator = rng.choice(nodes)
            keep = rng.choice((0.2, 0.9, 1.0))
            participants = {n for n in nodes if rng.random() < keep} | {initiator}
            yield topo, initiator, participants


@pytest.mark.parametrize("loss", [0.0, 0.1, 0.5])
def test_kernel_matches_reference_at_bench_scale(loss):
    cases = list(_bench_scale_floods(2024, 12))
    assert max(max(topo.nodes) for topo, _, _ in cases) > 256
    wide = list(_wide_id_floods(4096))
    assert {0, 7, 8, 15, 16, 65535} <= set().union(*(topo.nodes for topo, _, _ in wide))
    for topo, initiator, participants in cases + wide:
        ours, theirs = random.Random(99), random.Random(99)
        out = flood(topo, initiator, Topology.mask_of(participants), loss, ours)
        want = reference_flood_hops(topo, initiator, participants, loss, theirs)
        assert hops_of(out) == want
        assert ours.getstate() == theirs.getstate()


class CountingRandom(random.Random):
    """A Random that counts its random() calls."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def _candidate_counts(topo, initiator, participants, hops):
    """The number of candidates of every wave of a flood with these hop
    counts: the neighbours of the wave's transmitters not yet reached."""
    adj = adjacency(topo)
    reached, counts = set(), []
    for hop in range(max(hops.values()) + 1):
        layer = {n for n, h in hops.items() if h == hop}
        reached |= layer
        transmitters = {initiator} if hop == 0 else layer & participants
        counts.append(len({nb for tx in transmitters for nb in adj[tx]} - reached))
    return counts


@pytest.mark.parametrize("loss", [0.0, 0.1, 0.5])
def test_flood_draws_once_per_candidate(loss):
    # one loss draw per candidate of every wave, including a last wave
    # whose candidates are all lost, and none at all at loss 0
    cases = list(_random_floods(8080, 40)) + list(_wide_id_floods(4097))
    drawn = 0
    for topo, initiator, participants in cases:
        rng = CountingRandom(13)
        out = flood(topo, initiator, Topology.mask_of(participants), loss, rng)
        candidates = _candidate_counts(topo, initiator, participants, hops_of(out))
        assert rng.draws == (sum(candidates) if loss else 0)
        drawn += rng.draws
    assert drawn > 1000 if loss else drawn == 0


@pytest.mark.parametrize("loss", [0.0, 0.1])
def test_stray_participant_bits_change_nothing(loss):
    # bits above the largest id and negative masks name no node, so they
    # relay nothing: the outcome and the draws are those of the mask
    # without them
    for topo, initiator, participants in _wide_id_floods(4098):
        mask, top = Topology.mask_of(participants), max(topo.nodes)
        want_rng = random.Random(21)
        want = flood(topo, initiator, mask, loss, want_rng).layers
        everyone_rng = random.Random(21)
        everyone = flood(topo, initiator, Topology.mask_of(topo.nodes), loss, everyone_rng).layers
        for stray, layers, state in (
            (mask | 1 << top + 1 | 1 << top + 70, want, want_rng.getstate()),
            (mask | -1 << top + 1, want, want_rng.getstate()),
            (-1, everyone, everyone_rng.getstate()),
        ):
            rng = random.Random(21)
            out = flood(topo, initiator, stray, loss, rng)
            assert out.layers == layers and out.relays == stray
            assert rng.getstate() == state


def test_kernel_reports_relaying_receivers():
    topo = Topology.from_edges([(1, 2), (2, 3), (3, 4), (1, 5)])
    relays = Topology.mask_of({2, 5})
    layers = waves(topo.neighbor_masks, topo.byte_rows, 1, relays)
    hops = {n: hop for hop, layer in enumerate(layers) for n in topo.nodes if layer >> n & 1}
    assert hops == {1: 0, 2: 1, 5: 1, 3: 2}
    assert ids_of(sum(layers) & relays) == [2, 5]


@pytest.mark.parametrize("loss", [0.0, 0.3])
def test_received_is_a_bool(loss):
    # the trace spells a delivered flag only as true or false
    topo = Topology.from_edges([(1, 2), (2, 3), (3, 4)])
    out = flood(topo, 1, Topology.mask_of({1, 2, 3, 4}), loss, random.Random(5))
    for node in (1, 2, 3, 4, 9):
        assert out.received(node) is (node in hops_of(out))
    assert out.received(1) is True and out.received(9) is False


def test_memo_hit_equals_fresh_computation():
    for topo, initiator, participants in _random_floods(6160, 30):
        first = flood(topo, initiator, Topology.mask_of(participants))
        again = flood(topo, initiator, Topology.mask_of(set(participants)))
        assert again is first
        topo.flood_memo.clear()
        fresh = flood(topo, initiator, Topology.mask_of(participants))
        assert fresh is not first
        assert hops_of(fresh) == hops_of(first)
        assert ids_of(fresh.reached & fresh.relays) == ids_of(first.reached & first.relays)


def test_memo_hit_builds_hops_once():
    # a hit returns the stored outcome, so its wave layers are built once
    topo = Topology.from_edges([(1, 2), (2, 3), (1, 4)])
    first = flood(topo, 1, Topology.mask_of({1, 2, 3}))
    assert hops_of(first) == {1: 0, 2: 1, 4: 1, 3: 2}
    assert flood(topo, 1, Topology.mask_of({1, 2, 3})) is first


def test_lossy_floods_bypass_the_memo():
    topo = Topology.from_edges([(1, 2), (2, 3)])
    flood(topo, 1, Topology.mask_of({1, 2, 3}), 0.5, random.Random(3))
    assert not topo.flood_memo


def test_memo_hit_still_checks_arguments():
    topo = Topology.from_edges([(1, 2)])
    outcome = flood(topo, 1, Topology.mask_of({1, 2}))
    assert flood(topo, 1, Topology.mask_of({1, 2})) is outcome
    # plant an entry for a node the topology does not have
    topo.flood_memo[(7, Topology.mask_of({1, 2}))] = outcome
    with pytest.raises(ValueError, match="not in topology"):
        flood(topo, 7, Topology.mask_of({1, 2}))


def test_memo_size_is_bounded():
    # more than MEMO_CAP relay sets, each flooded from node 1 (a kernel run
    # that stores the set's component), from another relay of that component
    # (served) and from a non-relay: all three kinds of entry share one cap
    topo = random_connected_topology(random.Random(8), 12)
    others = sorted(topo.nodes - {1})
    served = 0
    for i in range(glossy.MEMO_CAP + 50):
        participants = Topology.mask_of({1} | {n for bit, n in enumerate(others) if i >> bit & 1})
        component = flood(topo, 1, participants).reached & participants
        initiators = ids_of(component)[-1:] + ids_of(~participants & sum(1 << n for n in others))[:1]
        for initiator in initiators:
            flood(topo, initiator, participants)
        served += component != 1 << 1
        assert len(topo.flood_memo) <= glossy.MEMO_CAP
    assert len(topo.flood_memo) == glossy.MEMO_CAP
    assert served > glossy.MEMO_CAP // 2  # most sets served a second relay
    # one entry per component of a relay set and per initiator, no more
    stored = [len(v) if isinstance(v, tuple) else 1 for v in topo.flood_memo.values()]
    assert sum(stored) == glossy.MEMO_CAP
    assert {type(key) for key in topo.flood_memo} == {int, tuple}
    # the oldest entries went first
    assert (1, Topology.mask_of({1})) not in topo.flood_memo
    assert Topology.mask_of({1}) not in topo.flood_memo


def _relay_components(topo, relays):
    """The relay components of a relay set by the oracle's search: the
    relays each relay reaches through relays only."""
    return {
        frozenset(n for n, d in bfs_oracle(topo, r, relays).items() if d is not None and n in relays)
        for r in relays
    }


def test_served_outcomes_equal_fresh_kernel_runs(monkeypatch):
    # relay sets that split into several components; every node, relay or
    # not, floods twice in shuffled order. A set costs one kernel run per
    # component plus one per non-relay initiator, and every outcome, its
    # layers read only at the end, equals a fresh kernel run and the oracle.
    runs = []
    monkeypatch.setattr(glossy, "waves", lambda *a: runs.append(a) or waves(*a))
    rng = random.Random(3131)
    split = 0
    for _ in range(40):
        topo = random_connected_topology(rng, rng.randint(2, 40), extra_edge_prob=0.04)
        nodes = sorted(topo.nodes)
        relays = {n for n in nodes if rng.random() < 0.5}
        participants = Topology.mask_of(relays)
        components = _relay_components(topo, relays)
        split += len(components) > 1
        order = nodes * 2
        rng.shuffle(order)
        runs.clear()
        outcomes = [flood(topo, initiator, participants) for initiator in order]
        assert len(runs) == len(components) + len(nodes) - len(relays)
        for out in outcomes:
            initiator = out.initiator
            fresh = waves(topo.neighbor_masks, topo.byte_rows, initiator, participants)
            assert out.relays == participants and out.reached == sum(fresh)
            assert out.layers == fresh
            assert hops_of(out) == reachable_hops(bfs_oracle(topo, initiator, relays))
    assert split >= 20


class TestMemo:
    def test_oldest_entry_goes_first_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(glossy, "MEMO_CAP", 3)
        memo = glossy.Memo()
        for key in "abc":
            assert memo.put(key, key.upper()) == key.upper()
        memo.put("a", "A2")  # a key put again keeps its place
        assert list(memo) == ["a", "b", "c"] and memo["a"] == "A2"
        memo.put("d", "D")
        assert list(memo) == ["b", "c", "d"]
        memo.put("e", "E")
        assert list(memo) == ["c", "d", "e"]
        with pytest.raises(KeyError):
            memo["a"]

    def test_a_missing_key_is_made_once(self, monkeypatch):
        monkeypatch.setattr(glossy, "MEMO_CAP", 2)
        made = []
        memo = glossy.Memo(lambda key: made.append(key) or key * 2)
        assert memo[3] == 6 and memo[3] == 6 and memo[4] == 8
        assert made == [3, 4]
        assert memo[5] == 10 and list(memo) == [4, 5]
        assert memo[3] == 6 and made == [3, 4, 5, 3]
        assert memo.get(9) is None and 9 not in memo  # get makes nothing


def test_ids_of_refuses_a_negative_mask():
    # A negative mask sets infinitely many bits, and a loop that clears
    # them one at a time never ends while its list grows. The call runs in
    # a child with its address space capped and under a timeout, so a
    # loop there fails this test instead of hanging the suite.
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from lwbsim.glossy import flood, ids_of\n"
        "from lwbsim.topology import Topology\n"
        "ids_of(flood(Topology.from_edges([(1, 2), (2, 3)]), 1, -1).relays)\n"
    )
    src = str(Path(lwbsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=5,
    )
    assert child.returncode == 1
    assert child.stderr.splitlines()[-1] == "ValueError: negative mask -1"

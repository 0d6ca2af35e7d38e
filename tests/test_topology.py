"""Topology parsing, neighbour masks, and lossless flood hop counts
cross-checked against breadth-first search."""

import random

import networkx as nx
import pytest

from lwbsim.errors import TopologyError
from lwbsim.glossy import flood
from lwbsim.topology import Topology, load_topology

from _support import (
    adjacency,
    bfs_oracle,
    hops_of,
    random_connected_topology,
    reachable_hops,
)


def hops(topo, root, relays=None):
    """Hop count of every node a lossless flood from root reaches with
    relays (default: every node) retransmitting; unreachable nodes are
    absent."""
    relays = topo.nodes if relays is None else relays
    return hops_of(flood(topo, root, Topology.mask_of(relays)))


class TestLoadTopology:
    def test_basic_edge_list(self):
        topo = load_topology("1 2\n2 3\n")
        assert topo.nodes == frozenset({1, 2, 3})
        assert topo.edges == frozenset({(1, 2), (2, 3)})

    def test_duplicate_edges_collapse(self):
        topo = load_topology("1 2\n2 1\n1 2\n")
        assert topo.edges == frozenset({(1, 2)})

    def test_comments_blanks_and_isolated_nodes(self):
        text = "# sensors\n\n1 2   # uplink\n7\n"
        topo = load_topology(text)
        assert topo.nodes == frozenset({1, 2, 7})
        assert topo.neighbor_masks[7] == 0

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self loop"):
            load_topology("3 3\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(TopologyError, match="line 2"):
            load_topology("1 2\n1 2 3\n")

    def test_non_numeric_token(self):
        with pytest.raises(TopologyError, match="line 1"):
            load_topology("1 x\n")

    def test_id_range_enforced(self):
        with pytest.raises(TopologyError, match="outside"):
            load_topology("1 151\n")
        with pytest.raises(TopologyError, match="outside"):
            load_topology("0 1\n")
        # custom bound
        load_topology("1 151\n", max_node=200)

    def test_empty_file_rejected(self):
        with pytest.raises(TopologyError, match="no nodes"):
            load_topology("# nothing here\n")


class TestTopologyType:
    def test_from_edges_normalizes(self):
        a = Topology.from_edges([(2, 1), (3, 2)])
        b = Topology.from_edges([(1, 2), (2, 3)])
        assert a == b

    def test_neighbors_sorted(self):
        topo = Topology.from_edges([(5, 2), (5, 9), (5, 1)])
        assert topo.neighbor_masks[5] == 1 << 1 | 1 << 2 | 1 << 9
        assert topo.neighbor_masks[9] == 1 << 5

    def test_neighbor_masks_match_neighbors(self):
        topo = random_connected_topology(random.Random(12), 30)
        adj = adjacency(topo)
        for node in topo.nodes:
            mask = topo.neighbor_masks[node]
            assert [n for n in range(mask.bit_length()) if mask >> n & 1] == adj[node]

    def test_negative_node_id_rejected(self):
        with pytest.raises(TopologyError, match="negative"):
            Topology.from_edges([(-1, 2)])

    def test_flood_memo_does_not_affect_equality(self):
        # every kind of memo entry: a relay set's components (from 1 and,
        # in another component, 4), a relay served from its component (3)
        # and a non-relay initiator (2)
        a = Topology.from_edges([(1, 2), (2, 3), (3, 4)])
        b = Topology.from_edges([(1, 2), (2, 3), (3, 4)])
        relays = Topology.mask_of({1, 4})
        for initiator, participants in ((1, relays), (4, relays), (2, relays),
                                        (1, Topology.mask_of({1, 2, 3})), (3, Topology.mask_of({1, 2, 3}))):
            flood(a, initiator, participants)
        assert len(a.flood_memo[relays]) == 2 and not b.flood_memo
        assert {type(key) for key in a.flood_memo} == {int, tuple}
        assert a == b and hash(a) == hash(b)


class TestBfsDistances:
    def test_line_all_relays(self):
        topo = Topology.from_edges([(i, i + 1) for i in range(1, 5)])
        assert hops(topo, 1) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}

    def test_empty_relay_set_reaches_only_neighbors(self):
        topo = Topology.from_edges([(1, 2), (2, 3)])
        assert hops(topo, 1, relays=set()) == {1: 0, 2: 1}

    def test_diamond_ties(self):
        topo = Topology.from_edges([(1, 2), (1, 3), (2, 4), (3, 4)])
        assert hops(topo, 1) == {1: 0, 2: 1, 3: 1, 4: 2}

    def test_root_relays_even_when_excluded(self):
        topo = Topology.from_edges([(1, 2), (1, 3)])
        dist = hops(topo, 1, relays={2})
        assert dist[2] == 1 and dist[3] == 1

    def test_missing_root(self):
        topo = Topology.from_edges([(1, 2)])
        with pytest.raises(ValueError, match="not in topology"):
            hops(topo, 9)

    def test_restricted_relays_lengthen_paths(self):
        # 1-2-4 and 1-3-4; relaying only through 3 still gives d(4) = 2,
        # but removing both inner nodes cuts 4 off.
        topo = Topology.from_edges([(1, 2), (1, 3), (2, 4), (3, 4)])
        assert hops(topo, 1, {3})[4] == 2
        assert 4 not in hops(topo, 1, set())

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(90125)
        for _ in range(25):
            topo = random_connected_topology(rng, rng.randint(2, 40))
            g = nx.Graph()
            g.add_nodes_from(topo.nodes)
            g.add_edges_from(topo.edges)
            root = rng.choice(sorted(topo.nodes))
            want = nx.single_source_shortest_path_length(g, root)
            assert hops(topo, root) == dict(want)

    def test_restricted_relays_match_plain_bfs(self):
        rng = random.Random(4711)
        for _ in range(25):
            topo = random_connected_topology(rng, rng.randint(2, 40))
            nodes = sorted(topo.nodes)
            keep = rng.choice((0.3, 0.7))
            relays = {n for n in nodes if rng.random() < keep}
            root = rng.choice(nodes)
            want = reachable_hops(bfs_oracle(topo, root, relays))
            assert hops(topo, root, relays) == want

    def test_triangle_inequality_on_random_graphs(self):
        rng = random.Random(5150)
        for _ in range(10):
            topo = random_connected_topology(rng, rng.randint(3, 25))
            nodes = sorted(topo.nodes)
            dist = {n: hops(topo, n) for n in nodes}
            for a in nodes:
                for b in nodes:
                    for c in nodes:
                        assert dist[a][b] <= dist[a][c] + dist[c][b]

    def test_relay_monotonicity_on_random_graphs(self):
        # growing the relay set never lengthens any distance
        rng = random.Random(2112)
        for _ in range(15):
            topo = random_connected_topology(rng, rng.randint(3, 25))
            nodes = sorted(topo.nodes)
            small = {n for n in nodes if rng.random() < 0.4}
            big = small | {n for n in nodes if rng.random() < 0.5}
            root = rng.choice(nodes)
            d_small = hops(topo, root, small)
            d_big = hops(topo, root, big)
            for n, d in d_small.items():
                assert n in d_big and d_big[n] <= d

"""Topology parsing and the hop-distance oracle."""

import random

import networkx as nx
import pytest

from lwbsim.errors import TopologyError
from lwbsim.glossy import flood
from lwbsim.topology import Topology, bfs_distances, is_connected, load_topology

from _support import bfs_oracle, random_connected_topology


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
        assert topo.neighbors(7) == ()

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
        assert topo.neighbors(5) == (1, 2, 9)

    def test_unknown_node_lookup(self):
        topo = Topology.from_edges([(1, 2)])
        with pytest.raises(TopologyError):
            topo.neighbors(42)

    def test_neighbor_masks_match_neighbors(self):
        topo = random_connected_topology(random.Random(12), 30)
        for node in topo.nodes:
            mask = topo.neighbor_masks[node]
            assert [n for n in range(mask.bit_length()) if mask >> n & 1] == list(
                topo.neighbors(node)
            )

    def test_negative_node_id_rejected(self):
        with pytest.raises(TopologyError, match="negative"):
            Topology.from_edges([(-1, 2)])

    def test_flood_memo_does_not_affect_equality(self):
        a = Topology.from_edges([(1, 2), (2, 3)])
        b = Topology.from_edges([(1, 2), (2, 3)])
        flood(a, 1, b"", Topology.mask_of({1, 2, 3}))
        assert a.flood_memo and not b.flood_memo
        assert a == b and hash(a) == hash(b)


class TestBfsDistances:
    def test_line_all_relays(self):
        topo = Topology.from_edges([(i, i + 1) for i in range(1, 5)])
        assert bfs_distances(topo, 1) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}

    def test_empty_relay_set_reaches_only_neighbors(self):
        topo = Topology.from_edges([(1, 2), (2, 3)])
        dist = bfs_distances(topo, 1, allowed_relays=set())
        assert dist == {1: 0, 2: 1, 3: None}

    def test_diamond_ties(self):
        topo = Topology.from_edges([(1, 2), (1, 3), (2, 4), (3, 4)])
        assert bfs_distances(topo, 1) == {1: 0, 2: 1, 3: 1, 4: 2}

    def test_root_relays_even_when_excluded(self):
        topo = Topology.from_edges([(1, 2), (1, 3)])
        dist = bfs_distances(topo, 1, allowed_relays={2})
        assert dist[2] == 1 and dist[3] == 1

    def test_missing_root(self):
        topo = Topology.from_edges([(1, 2)])
        with pytest.raises(TopologyError):
            bfs_distances(topo, 9)

    def test_restricted_relays_lengthen_paths(self):
        # 1-2-4 and 1-3-4; relaying only through 3 still gives d(4) = 2,
        # but removing both inner nodes cuts 4 off.
        topo = Topology.from_edges([(1, 2), (1, 3), (2, 4), (3, 4)])
        assert bfs_distances(topo, 1, {3})[4] == 2
        assert bfs_distances(topo, 1, set())[4] is None

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(90125)
        for _ in range(25):
            topo = random_connected_topology(rng, rng.randint(2, 40))
            g = nx.Graph()
            g.add_nodes_from(topo.nodes)
            g.add_edges_from(topo.edges)
            root = rng.choice(sorted(topo.nodes))
            want = nx.single_source_shortest_path_length(g, root)
            got = bfs_distances(topo, root)
            assert {n: d for n, d in got.items() if d is not None} == dict(want)

    def test_restricted_relays_match_plain_bfs(self):
        rng = random.Random(4711)
        for _ in range(25):
            topo = random_connected_topology(rng, rng.randint(2, 40))
            nodes = sorted(topo.nodes)
            keep = rng.choice((0.3, 0.7))
            relays = {n for n in nodes if rng.random() < keep}
            root = rng.choice(nodes)
            assert bfs_distances(topo, root, relays) == bfs_oracle(topo, root, relays)

    def test_triangle_inequality_on_random_graphs(self):
        rng = random.Random(5150)
        for _ in range(10):
            topo = random_connected_topology(rng, rng.randint(3, 25))
            nodes = sorted(topo.nodes)
            dist = {n: bfs_distances(topo, n) for n in nodes}
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
            d_small = bfs_distances(topo, root, small)
            d_big = bfs_distances(topo, root, big)
            for n in nodes:
                if d_small[n] is not None:
                    assert d_big[n] is not None and d_big[n] <= d_small[n]


class TestIsConnected:
    def test_connected_line(self):
        assert is_connected(Topology.from_edges([(1, 2), (2, 3)]))

    def test_disconnected_parts(self):
        assert not is_connected(Topology.from_edges([(1, 2), (3, 4)]))

    def test_isolated_node(self):
        assert not is_connected(Topology.from_edges([(1, 2)], isolated=[9]))

"""Shared helpers for the test suite: canned graphs, random graph
generation, and oracles that share no code with the simulator: a plain
breadth-first search, the shortest-path forwarder set, and the set-based
flood wave loop the bitmask kernel replaced."""

from __future__ import annotations

import random
from collections import deque

from lwbsim.topology import Topology


def bfs_oracle(
    topo: Topology, root: int, relays: set[int] | None = None
) -> dict[int, int | None]:
    """Hop distance from root to every node, None when unreachable.

    Every interior vertex of a path must be in relays (None: all nodes);
    the root always relays.
    """
    dist: dict[int, int | None] = {n: None for n in topo.nodes}
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in topo.neighbors(u):
            if dist[v] is None:
                dist[v] = dist[u] + 1
                if relays is None or v in relays:
                    queue.append(v)
    return dist


def reachable_hops(dist: dict[int, int | None]) -> dict[int, int]:
    return {n: d for n, d in dist.items() if d is not None}


def reference_flood_hops(
    topology: Topology,
    initiator: int,
    participants: set[int],
    loss_probability: float = 0.0,
    rng: random.Random | None = None,
) -> dict[int, int]:
    """The set-based wave loop of the original flood, kept verbatim as the
    reference for the bitmask kernel: same hops, same rng draws."""
    hops: dict[int, int] = {initiator: 0}
    transmitters: list[int] = [initiator]
    counter = 1
    while transmitters:
        candidates: set[int] = set()
        for tx in transmitters:
            for nb in topology.neighbors(tx):
                if nb not in hops:
                    candidates.add(nb)
        receivers: list[int] = []
        for nb in sorted(candidates):
            if loss_probability > 0.0 and rng.random() < loss_probability:
                continue
            hops[nb] = counter
            receivers.append(nb)
        transmitters = [r for r in receivers if r in participants]
        counter += 1
    return hops


def line_topology(n: int) -> Topology:
    return Topology.from_edges([(i, i + 1) for i in range(1, n)])


def diamond_pendant() -> Topology:
    """Diamond 1-2-4-3-1 with pendant 5 hanging off node 2."""
    return Topology.from_edges([(1, 2), (1, 3), (2, 4), (3, 4), (2, 5)])


def random_connected_topology(
    rng: random.Random, n: int, extra_edge_prob: float = 0.15, max_ecc: int | None = None
) -> Topology:
    """Random connected graph on nodes 1..n.

    Built as a random attachment tree plus independent extra edges. With
    max_ecc set, regenerates until every node lies within that many hops of
    node 1 (the usual sink), so bootstrap can finish during cool-off.
    """
    while True:
        edges = set()
        for v in range(2, n + 1):
            u = rng.randint(1, v - 1)
            edges.add((u, v))
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if (u, v) not in edges and rng.random() < extra_edge_prob:
                    edges.add((u, v))
        topo = Topology.from_edges(edges)
        if max_ecc is None:
            return topo
        dist = bfs_oracle(topo, 1)
        if all(d is not None and d <= max_ecc for d in dist.values()):
            return topo


def shortest_path_forwarders(topo: Topology, sink: int, source: int) -> set[int]:
    """Oracle: nodes on at least one shortest path between sink and source.

    u qualifies exactly when d(sink, u) + d(u, source) == d(sink, source),
    with all distances taken over the full graph.
    """
    from_sink = bfs_oracle(topo, sink)
    from_source = bfs_oracle(topo, source)
    total = from_sink[source]
    assert total is not None, "oracle needs a connected sink/source pair"
    return {
        u
        for u in topo.nodes
        if from_sink[u] is not None
        and from_source[u] is not None
        and from_sink[u] + from_source[u] == total
    }

"""Shared helpers for the test suite: canned graphs, random graph
generation, and oracles that share no code with the simulator: a plain
breadth-first search, the shortest-path forwarder set, the set-based
flood wave loop the bitmask kernel replaced, and the dict-per-record
JSONL renderer the list-caching one replaced."""

from __future__ import annotations

import json
import random
from collections import deque
from typing import Iterator

from lwbsim.engine import RoundTrace, SlotTrace
from lwbsim.topology import Topology


def adjacency(topo: Topology) -> dict[int, list[int]]:
    """Sorted neighbour list of every node, read from the edge set alone."""
    adj: dict[int, list[int]] = {n: [] for n in topo.nodes}
    for u, v in topo.edges:
        adj[u].append(v)
        adj[v].append(u)
    return {n: sorted(nbs) for n, nbs in adj.items()}


def bfs_oracle(
    topo: Topology, root: int, relays: set[int] | None = None
) -> dict[int, int | None]:
    """Hop distance from root to every node, None when unreachable.

    Every interior vertex of a path must be in relays (None: all nodes);
    the root always relays.
    """
    dist: dict[int, int | None] = {n: None for n in topo.nodes}
    dist[root] = 0
    adj = adjacency(topo)
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
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
    """The set-based wave loop of the original flood, kept as the reference
    for the bitmask kernel (neighbours now come from the edge set): same
    hops, same rng draws."""
    adj = adjacency(topology)
    hops: dict[int, int] = {initiator: 0}
    transmitters: list[int] = [initiator]
    counter = 1
    while transmitters:
        candidates: set[int] = set()
        for tx in transmitters:
            for nb in adj[tx]:
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


# The dict-per-record renderer the list-caching sim.render_trace replaced,
# kept verbatim as its reference: same records, same bytes.


def _slot_record(trace: RoundTrace, slot: SlotTrace) -> dict:
    rec: dict = {
        "kind": "slot",
        "round": trace.index,
        "t": slot.t,
        "phase": trace.phase,
        "type": slot.kind,
        "initiator": slot.initiator,
        "awake": slot.awake,
        "received": slot.received,
    }
    if slot.kind == "request":
        rec["contenders"] = slot.contender_count
        rec["winner"] = slot.winner
        rec["delivered"] = slot.delivered
    elif slot.kind == "reply":
        rec["requester"] = slot.requester
        rec["assigned_slot"] = slot.assigned_slot
        rec["new_assignment"] = slot.new_assignment
        rec["delivered"] = slot.delivered
        if slot.capacity_exceeded:
            rec["capacity_exceeded"] = True
    elif slot.kind == "announce":
        rec["source"] = slot.source
        rec["distance"] = slot.announced_distance
        rec["slot_id"] = slot.slot_id
    elif slot.kind == "data":
        rec["slot_id"] = slot.slot_id
        rec["owner"] = slot.owner
        rec["payload_len"] = slot.payload_len
        rec["gen_round"] = slot.gen_round
        rec["delivered"] = slot.delivered
    return rec


def _round_record(trace: RoundTrace) -> dict:
    return {
        "kind": "round",
        "round": trace.index,
        "t": trace.t_start,
        "phase": trace.phase,
        "mode": trace.mode,
        "period": trace.round_period,
        "n_rr": trace.n_rr,
        "n_data": trace.n_data,
        "radio_on": {str(n): us for n, us in sorted(trace.radio_on.items())},
        "new_assignments": [list(pair) for pair in trace.new_assignments],
        "joined": trace.joined,
        "desynced": trace.desynced,
        "bootstrap": trace.bootstrap,
        "generated": [list(pair) for pair in trace.generated],
        "dropped": trace.dropped,
        "capacity_events": trace.capacity_events,
    }


def trace_records(traces: list[RoundTrace]) -> Iterator[dict]:
    """Flat record stream: slot records in time order, then the round
    summary, for each round. A global seq field gives a total order."""
    seq = 0
    for trace in traces:
        for slot in trace.slots:
            rec = _slot_record(trace, slot)
            rec["seq"] = seq
            seq += 1
            yield rec
        rec = _round_record(trace)
        rec["seq"] = seq
        seq += 1
        yield rec


def reference_render_trace(traces: list[RoundTrace]) -> str:
    """Line-delimited JSON, stable byte-for-byte for identical runs."""
    lines = [
        json.dumps(rec, separators=(",", ":"), sort_keys=False)
        for rec in trace_records(traces)
    ]
    return "\n".join(lines) + ("\n" if lines else "")

"""Connectivity graphs and the edge-list format they are read from.

Graphs are undirected, unweighted and immutable. Node identifiers are small
positive integers so they can double as radio addresses and as bit
positions in node masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .config import SimConfig
from .errors import TopologyError


@dataclass(frozen=True)
class Topology:
    """An undirected graph with a fixed node set.

    Attributes:
        nodes: every node id in the network, including isolated ones.
        edges: normalized (low, high) pairs, no self loops, no duplicates.
    """

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]
    # Bit n of a node's mask is set when node n is its neighbour.
    neighbor_masks: dict[int, int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )
    # Zero-loss flood outcomes, filled and bounded by glossy.flood.
    flood_memo: dict = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.nodes:
            raise TopologyError("topology has no nodes")
        if min(self.nodes) < 0:
            raise TopologyError(f"negative node id {min(self.nodes)}")
        masks = self.neighbor_masks
        masks.update(dict.fromkeys(self.nodes, 0))
        for u, v in self.edges:
            if u == v:
                raise TopologyError(f"self loop on node {u}")
            if u not in self.nodes or v not in self.nodes:
                raise TopologyError(f"edge ({u}, {v}) references unknown node")
            masks[u] |= 1 << v
            masks[v] |= 1 << u

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], isolated: Iterable[int] = ()
    ) -> "Topology":
        """Build a topology from edge pairs, collapsing duplicates."""
        nodes: set[int] = set(isolated)
        norm: set[tuple[int, int]] = set()
        for u, v in edges:
            nodes.add(u)
            nodes.add(v)
            norm.add((min(u, v), max(u, v)))
        return cls(frozenset(nodes), frozenset(norm))

    @staticmethod
    def mask_of(nodes: Iterable[int]) -> int:
        """Node mask with the bit of every given node set."""
        mask = 0
        for node in nodes:
            mask |= 1 << node
        return mask

    def __contains__(self, node: int) -> bool:
        return node in self.nodes


def load_topology(text: str, max_node: int = SimConfig.max_node_number) -> Topology:
    """Parse the edge-list format.

    One edge per line as "u v", or a single "u" for an isolated node.
    '#' starts a comment, blank lines are skipped, duplicate edges collapse.
    Node ids must lie in [1, max_node].
    """
    edges: set[tuple[int, int]] = set()
    isolated: set[int] = set()

    def check_id(value: str, lineno: int) -> int:
        try:
            node = int(value)
        except ValueError:
            raise TopologyError(f"line {lineno}: {value!r} is not a node id") from None
        if not 1 <= node <= max_node:
            raise TopologyError(
                f"line {lineno}: node id {node} outside [1, {max_node}]"
            )
        return node

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            isolated.add(check_id(parts[0], lineno))
        elif len(parts) == 2:
            u = check_id(parts[0], lineno)
            v = check_id(parts[1], lineno)
            if u == v:
                raise TopologyError(f"line {lineno}: self loop on node {u}")
            edges.add((min(u, v), max(u, v)))
        else:
            raise TopologyError(
                f"line {lineno}: expected 'u v' or a single node id, got {line!r}"
            )
    if not edges and not isolated:
        raise TopologyError("topology file defines no nodes")
    return Topology.from_edges(edges, isolated)


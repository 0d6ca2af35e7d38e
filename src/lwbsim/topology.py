"""Connectivity graphs and the edge-list format they are read from.

Graphs are undirected, unweighted and immutable. Node identifiers are small
positive integers so they can double as radio addresses and as bit
positions in node masks.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from .config import SimConfig
from .errors import TopologyError
from .glossy import Memo


class Topology:
    """An undirected graph with a fixed node set, equal by nodes and edges.

    Attributes:
        nodes: every node id in the network, including isolated ones; ints, not bools.
        edges: normalized (low, high) pairs, no self loops, no duplicates.
        flood_memo: glossy.flood's zero-loss outcomes and relay components, a Memo.
    """

    __slots__ = ("nodes", "edges", "neighbor_masks", "flood_memo", "_byte_rows")

    def __init__(self, nodes: frozenset[int], edges: frozenset[tuple[int, int]]) -> None:
        if not nodes:
            raise TopologyError("topology has no nodes")
        for edge in edges:
            if not isinstance(edge, tuple) or len(edge) != 2:
                raise TopologyError(f"edge {edge!r} is not a (u, v) pair")
        for node in chain(nodes, *edges):
            if not isinstance(node, int) or isinstance(node, bool):
                raise TopologyError(f"node id {node!r} is not an int")
        if min(nodes) < 0:
            raise TopologyError(f"negative node id {min(nodes)}")
        self.nodes, self.edges = nodes, edges
        self.flood_memo = Memo()
        self._byte_rows: tuple | None = None  # built by byte_rows on the first flood kernel run
        # Bit n of a node's mask is set when node n is its neighbour.
        masks = self.neighbor_masks = dict.fromkeys(nodes, 0)
        for u, v in edges:
            if u == v:
                raise TopologyError(f"self loop on node {u}")
            if u not in nodes or v not in nodes:
                raise TopologyError(f"edge ({u}, {v}) references unknown node")
            masks[u] |= 1 << v
            masks[v] |= 1 << u

    @property
    def byte_rows(self) -> tuple[int, int, tuple]:
        """The wave kernel's tables, built on first use: (width,
        nodes, rows). width is the byte length of a mask up to the largest
        id and nodes the mask of every node. rows holds (i, lo, hi) for each
        byte i that holds a node, ascending: lo[k] is the OR of the
        neighbour masks of the ids 8i + b, b a set bit of k, and hi[k] that
        of the ids 8i + 4 + b. An entry whose last neighbour mask adds no
        bit to the union of the others is that union's int, and one whose
        other masks add no bit to its last is that mask's int; so a nibble
        adds at most 11 masks, one per subset of two or more ids.
        """
        if self._byte_rows is None:
            masks = self.neighbor_masks
            rows = tuple(
                (i, _nibble_table(masks, 8 * i), _nibble_table(masks, 8 * i + 4))
                for i in sorted({node >> 3 for node in self.nodes})
            )
            self._byte_rows = (max(self.nodes) // 8 + 1, self.mask_of(self.nodes), rows)
        return self._byte_rows

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return same and (self.nodes, self.edges) == (other.nodes, other.edges)

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], isolated: Iterable[int] = ()
    ) -> "Topology":
        """Build a topology from edge pairs, collapsing duplicates."""
        nodes: set[int] = set(isolated)
        norm: set[tuple[int, int]] = set()
        for edge in edges:
            nodes.update(edge)
            norm.add(tuple(sorted(edge)))
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


def _nibble_table(masks: dict[int, int], base: int) -> tuple[int, ...]:
    """Entry k, 0 to 15: the OR of the neighbour masks of the ids base + b
    for every bit b set in k. A union one side of which holds the other is
    that side's int."""
    table = [0]
    for b in range(4):
        mask = masks.get(base + b, 0)
        table += [
            entry if not mask & ~entry else mask if not entry & ~mask else entry | mask
            for entry in table
        ]
    return tuple(table)


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


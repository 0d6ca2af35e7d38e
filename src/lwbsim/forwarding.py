"""Forwarder selection: deciding who stays awake for which data slot.

With forwarder selection enabled every request group carries a third slot.
The sink's reply flood tells each node its hop distance from the sink. The
fresh slot owner then floods an announcement carrying that distance and the
slot index; every relay of that flood measures its own hop distance from
the source and forwards for the slot only if the two distances add up
exactly, which means the node sits on a shortest path between sink and
source. A slot's forwarders are one node mask, built once from the announce
flood's wave layers.
"""

from __future__ import annotations

from .core import NodeState
from .glossy import FloodOutcome, ids_of


def refresh_sink_distances(nodes: dict[int, NodeState], outcome: FloodOutcome) -> None:
    """Record hop distances from a reply flood initiated by the sink.

    Every participant of the flood that received it remembers its hop count
    as its current distance from the sink. Nodes that missed the flood, or
    slept through it, keep their previous value.
    """
    for hop, layer in enumerate(outcome.layers):
        for node_id in ids_of(layer & outcome.relays):
            nodes[node_id].sink_distance = hop


def apply_announce(nodes: dict[int, NodeState], outcome: FloodOutcome, distance: int) -> int:
    """Mask of the forwarders an announce flood selects.

    distance is the announced hop distance of the source from the sink. A
    relay of the flood heard at hop k (the source at hop 0) forwards
    exactly when its own distance from the sink is distance - k. Nodes that
    missed the flood, slept through it or never learned their distance
    from the sink are left out.
    """
    selected = 0
    for hop, layer in enumerate(outcome.layers):
        for node_id in ids_of(layer & outcome.relays):
            if nodes[node_id].sink_distance == distance - hop:
                selected |= 1 << node_id
    return selected


def data_participants(
    awake: int, announced: dict[int, tuple[int, int]], slot_id: int, owner: int, sink: int
) -> int:
    """Mask of the nodes awake for one data slot.

    awake is the mask of the active nodes and announced maps every
    announced slot to (distance, forwarder mask). Without forwarder
    selection nothing is announced and every active node takes part; so
    does everyone in a slot whose owner never announced, so packets are not
    lost to missing metadata. An announced slot wakes its active forwarders
    plus the owner, when active, and the sink, which is always active.
    """
    entry = announced.get(slot_id)
    if entry is None:
        return awake
    return awake & (entry[1] | 1 << owner) | 1 << sink

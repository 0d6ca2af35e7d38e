"""Forwarder selection: deciding who stays awake for which data slot.

With forwarder selection enabled every request group carries a third slot.
The sink's reply flood tells each node its hop distance from the sink. The
fresh slot owner then floods an announcement carrying that distance and the
slot index; every relay of that flood measures its own hop distance from
the source and forwards for the slot only if the two distances add up
exactly, which means the node sits on a shortest path between sink and
source. Sink distances are hop masks, distances[h] holding the nodes last
heard at hop h of a reply flood, and a slot's forwarders are one node mask:
both are built from the floods' wave layers with one AND or OR per hop.
"""

from __future__ import annotations

from .glossy import FloodOutcome


def refresh_sink_distances(distances: list[int], outcome: FloodOutcome) -> None:
    """Record hop distances from a reply flood initiated by the sink.

    Every participant of the flood that received it moves to the mask of
    its hop count. Nodes that missed the flood, or slept through it, keep
    their previous distance.
    """
    relays = outcome.relays
    heard = ~(outcome.reached & relays)
    distances[:] = [mask & heard for mask in distances]
    distances.extend([0] * (len(outcome.layers) - len(distances)))
    for hop, layer in enumerate(outcome.layers):
        distances[hop] |= layer & relays


def apply_announce(distances: list[int], outcome: FloodOutcome, distance: int) -> int:
    """Mask of the forwarders an announce flood selects.

    distance is the announced hop distance of the source from the sink. A
    relay of the flood heard at hop k (the source at hop 0) forwards
    exactly when it is in distances[distance - k], which is why the source
    must be in distances[distance]. Nodes that missed the flood, slept
    through it or never learned their distance from the sink are left out.
    """
    layers = enumerate(outcome.layers[: distance + 1])  # disjoint: their sum is their OR
    return outcome.relays & sum(layer & distances[distance - k] for k, layer in layers)


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

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
Only this module says whom an announced slot wakes: the engine stores the
wake mask apply_announce returns, and everything else reads that.
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


def apply_announce(distances: list[int], outcome: FloodOutcome) -> tuple[int, int]:
    """(distance, wake mask) of the slot an announce flood announces.

    distance is the source's hop distance from the sink. A relay of the
    flood heard at hop k (the source at hop 0) forwards exactly when it is
    in distances[distance - k]; nodes that missed the flood, slept through
    it or never learned their distance are left out. The slot wakes its
    forwarders, its owner, the source, and the sink, distances[0], even
    when a lossy flood missed the sink at hop distance.
    """
    source = outcome.initiator
    distance = next(h for h, mask in enumerate(distances) if mask >> source & 1)
    layers = enumerate(outcome.layers[: distance + 1])  # disjoint: their sum is their OR
    forwarders = outcome.relays & sum(layer & distances[distance - k] for k, layer in layers)
    return distance, forwarders | 1 << source | distances[0]


def data_participants(awake: int, announced: dict[int, tuple[int, int]], slot_id: int) -> int:
    """Mask of the nodes awake for one data slot.

    awake is the mask of the active nodes and announced maps every
    announced slot to apply_announce's (distance, wake mask). Without
    forwarder selection nothing is announced and every active node takes
    part; so does everyone in a slot whose owner never announced, so packets
    are not lost to missing metadata. An announced slot wakes the active
    nodes of its wake mask.
    """
    entry = announced.get(slot_id)
    return awake if entry is None else awake & entry[1]

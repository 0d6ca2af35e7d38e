"""Forwarder bookkeeping: distances, announcements, slot membership."""

import random

from lwbsim.core import NodeState
from lwbsim.forwarding import (
    AnnouncePacket,
    apply_announce,
    build_announce,
    data_participants,
    forwarder_index,
    refresh_sink_distances,
)
from lwbsim.glossy import flood
from lwbsim.topology import Topology

mask_of = Topology.mask_of

from _support import (
    bfs_oracle,
    diamond_pendant,
    random_connected_topology,
    shortest_path_forwarders,
)


class TestRefreshSinkDistances:
    def test_records_hops_for_listeners(self):
        topo = diamond_pendant()
        nodes = {n: NodeState() for n in topo.nodes}
        outcome = flood(topo, 1, b"", Topology.mask_of(topo.nodes))
        refresh_sink_distances(nodes, outcome)
        assert {n: nodes[n].sink_distance for n in sorted(nodes)} == {
            1: 0,
            2: 1,
            3: 1,
            4: 2,
            5: 2,
        }

    def test_non_listeners_keep_previous_value(self):
        topo = diamond_pendant()
        nodes = {n: NodeState(sink_distance=9) for n in topo.nodes}
        # 4 and 5 hear the flood but are no participants: their radios are off
        outcome = flood(topo, 1, b"", Topology.mask_of({1, 2, 3}))
        assert outcome.received(4) and outcome.received(5)
        refresh_sink_distances(nodes, outcome)
        assert nodes[2].sink_distance == 1
        assert nodes[4].sink_distance == 9
        assert nodes[5].sink_distance == 9


class TestBuildAnnounce:
    def test_announces_distance_and_slot(self):
        assert build_announce(4, NodeState(sink_distance=2), 0) == AnnouncePacket(4, 2, 0)

    def test_silent_without_distance(self):
        assert build_announce(4, NodeState(), 0) is None


class TestApplyAnnounce:
    def test_on_path_node_keeps_slot(self):
        state = NodeState(sink_distance=1)
        apply_announce(state, AnnouncePacket(4, 2, 0), hop=1)
        assert state.forwarder_slots == {0}

    def test_off_path_node_drops_slot(self):
        state = NodeState(sink_distance=2)
        apply_announce(state, AnnouncePacket(4, 2, 0), hop=1)
        assert state.forwarder_slots == set()

    def test_source_itself_qualifies_at_hop_zero(self):
        state = NodeState(sink_distance=2)
        apply_announce(state, AnnouncePacket(4, 2, 0), hop=0)
        assert state.forwarder_slots == {0}

    def test_missed_flood_keeps_previous_decision(self):
        state = NodeState(sink_distance=1)
        state.forwarder_slots.add(0)
        apply_announce(state, AnnouncePacket(4, 2, 0), hop=None)
        assert state.forwarder_slots == {0}

    def test_stale_membership_revoked_on_new_announcement(self):
        # node drifted off the shortest path between reply floods
        state = NodeState(sink_distance=3)
        state.forwarder_slots.add(0)
        apply_announce(state, AnnouncePacket(4, 2, 0), hop=1)
        assert state.forwarder_slots == set()

    def test_unknown_own_distance_means_out(self):
        state = NodeState()
        apply_announce(state, AnnouncePacket(4, 2, 0), hop=1)
        assert state.forwarder_slots == set()


class TestDataParticipants:
    def _index(self, topo, awake, forwarders, slot_id):
        nodes = {n: NodeState() for n in topo.nodes}
        for n in forwarders:
            nodes[n].forwarder_slots.add(slot_id)
        return forwarder_index(awake, nodes, [slot_id])

    def test_plain_bus_wakes_everyone_active(self):
        # nothing is announced without forwarder selection
        awake = mask_of([1, 2, 4])
        got = data_participants(awake, {}, 0, 4, 1)
        assert got == mask_of([1, 2, 4])

    def test_fs_slot_wakes_forwarders_owner_sink(self):
        topo = diamond_pendant()
        awake = sorted(topo.nodes)
        index = self._index(topo, awake, {2, 3}, 0)
        got = data_participants(mask_of(awake), index, 0, 4, 1)
        assert got == mask_of([1, 2, 3, 4])

    def test_unannounced_fs_slot_falls_back_to_everyone(self):
        topo = diamond_pendant()
        awake = sorted(topo.nodes)
        index = self._index(topo, awake, set(), 1)
        got = data_participants(mask_of(awake), index, 0, 4, 1)
        assert got == mask_of([1, 2, 3, 4, 5])

    def test_inactive_owner_is_not_woken(self):
        topo = diamond_pendant()
        awake = [1, 2, 3]
        index = self._index(topo, awake, {2}, 0)
        got = data_participants(mask_of(awake), index, 0, 4, 1)
        assert got == mask_of([1, 2])

    def test_nothing_to_select_returns_the_awake_list_itself(self):
        topo = diamond_pendant()
        awake = sorted(topo.nodes)
        assert data_participants(mask_of(awake), {}, 0, 4, 1) == mask_of(awake)
        # every awake node forwards: the selection is the whole awake mask
        index = self._index(topo, awake, topo.nodes, 0)
        assert data_participants(mask_of(awake), index, 0, 4, 1) == mask_of(awake)

    def test_index_keeps_awake_forwarders_in_order(self):
        topo = diamond_pendant()
        index = self._index(topo, [1, 3, 5], {5, 3, 4}, 0)
        assert index == {0: mask_of([3, 5])}


class TestAgainstGeometricOracle:
    def test_announce_flood_reproduces_shortest_path_membership(self):
        # drive the protocol primitives by hand on random graphs and compare
        # the resulting forwarder sets with the two-distance characterization
        rng = random.Random(20105)
        for _ in range(30):
            topo = random_connected_topology(rng, rng.randint(3, 25))
            nodes = {n: NodeState() for n in topo.nodes}
            everyone = set(topo.nodes)
            sink = 1
            reply = flood(topo, sink, b"", Topology.mask_of(everyone))
            refresh_sink_distances(nodes, reply)
            source = max(topo.nodes)
            announce = build_announce(source, nodes[source], 0)
            assert announce is not None
            outcome = flood(topo, source, b"", Topology.mask_of(everyone))
            for n in sorted(everyone):
                apply_announce(nodes[n], announce, outcome.hops.get(n))
            got = {n for n in everyone if 0 in nodes[n].forwarder_slots}
            assert got == shortest_path_forwarders(topo, sink, source)

    def test_forwarders_sit_on_shortest_paths(self):
        rng = random.Random(64)
        topo = random_connected_topology(rng, 20)
        dist_sink = bfs_oracle(topo, 1)
        for source in sorted(topo.nodes - {1}):
            dist_src = bfs_oracle(topo, source)
            for u in shortest_path_forwarders(topo, 1, source):
                assert dist_sink[u] + dist_src[u] == dist_sink[source]

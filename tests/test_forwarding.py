"""Forwarder bookkeeping: distances, announcements, slot membership."""

import random

from lwbsim.config import SimConfig
from lwbsim.forwarding import apply_announce, data_participants, refresh_sink_distances
from lwbsim.glossy import flood, ids_of
from lwbsim.sim import run_simulation
from lwbsim.topology import Topology

mask_of = Topology.mask_of

from _support import (
    bfs_oracle,
    diamond_pendant,
    random_connected_topology,
    shortest_path_forwarders,
    walk_announce,
    walk_sink_distances,
)


def hop_masks(distances: dict[int, int | None]) -> list[int]:
    """The hop masks of a node -> sink distance dict; None is no distance."""
    known = {node: hop for node, hop in distances.items() if hop is not None}
    masks = [0] * (max(known.values(), default=-1) + 1)
    for node, hop in known.items():
        masks[hop] |= 1 << node
    return masks


def hops_of_masks(masks: list[int]) -> dict[int, int]:
    """Node -> sink distance, read off the hop masks; each node in one."""
    hops = {n: hop for hop, mask in enumerate(masks) for n in ids_of(mask)}
    assert len(hops) == sum(mask.bit_count() for mask in masks)
    return hops


class TestRefreshSinkDistances:
    def test_records_hops_for_listeners(self):
        topo = diamond_pendant()
        distances = []
        outcome = flood(topo, 1, Topology.mask_of(topo.nodes))
        refresh_sink_distances(distances, outcome)
        assert distances == [mask_of([1]), mask_of([2, 3]), mask_of([4, 5])]

    def test_non_listeners_keep_previous_value(self):
        topo = diamond_pendant()
        distances = hop_masks(dict.fromkeys(topo.nodes, 9))
        # 4 and 5 hear the flood but are no participants: their radios are off
        outcome = flood(topo, 1, Topology.mask_of({1, 2, 3}))
        assert outcome.received(4) and outcome.received(5)
        refresh_sink_distances(distances, outcome)
        assert hops_of_masks(distances) == {1: 0, 2: 1, 3: 1, 4: 9, 5: 9}


class TestApplyAnnounce:
    # diamond_pendant with sink 1: source 4 announces distance 2, and its
    # flood reaches 2 and 3 at hop 1, then 1 and 5 at hop 2
    DISTANCES = {1: 0, 2: 1, 3: 1, 4: 2, 5: 2}

    def _select(self, relays=(1, 2, 3, 4, 5), distances=DISTANCES):
        """The wake mask of source 4's announce, once its distance reads 2."""
        topo = diamond_pendant()
        distance, wake = apply_announce(hop_masks(distances), flood(topo, 4, mask_of(relays)))
        assert distance == 2
        return wake

    def test_on_path_node_keeps_slot(self):
        assert self._select() == mask_of([1, 2, 3, 4])

    def test_off_path_node_drops_slot(self):
        # 5 hears at hop 2 and sits 2 hops from the sink: 2 + 2 != 2
        assert not self._select() >> 5 & 1

    def test_source_itself_qualifies_at_hop_zero(self):
        # the sink, 1, never relays this flood but wakes for every slot
        assert self._select(relays=(4,)) == mask_of([1, 4])

    def test_unknown_own_distance_means_out(self):
        distances = {**self.DISTANCES, 3: None}
        assert self._select(distances=distances) == mask_of([1, 2, 4])

    def test_listener_that_does_not_relay_is_out(self):
        # 3 hears the flood at hop 1 but its radio is off for the slot
        assert self._select(relays=(1, 2, 4, 5)) == mask_of([1, 2, 4])

    def test_lossy_flood_missing_the_sink_still_wakes_sink_and_owner(self):
        # a lossy announce flood from 4 that does not reach the sink at hop
        # 2 selects no sink, yet the slot's wake mask holds the sink and the
        # owner, the source, as the data slot needs both
        topo, distances = diamond_pendant(), hop_masks(self.DISTANCES)
        rng, missed = random.Random(37), 0
        for _ in range(200):
            outcome = flood(topo, 4, mask_of(topo.nodes), 0.5, rng)
            if outcome.layers[2:3] and outcome.layers[2] >> 1 & 1:
                continue  # the sink heard at hop 2: a forwarder anyway
            missed += 1
            distance, wake = apply_announce(distances, outcome)
            assert distance == 2 and wake & mask_of([1, 4]) == mask_of([1, 4])
            assert not wake >> 5 & 1
        assert missed > 20


class TestMasksMatchPerNodeWalk:
    def test_random_lossy_reply_and_announce_sequences(self):
        # replies from the sink and announces from sources that know their
        # distance, each flood over a random awake set, as in the request
        # blocks of a lossy run: the hop masks hold what the per-node walk
        # records, both select the same forwarders, and the wake mask adds
        # the source and the sink
        rng = random.Random(1707)
        announces = selected = 0
        for _ in range(40):
            topo = random_connected_topology(rng, rng.randint(3, 30))
            loss = rng.choice([0.0, 0.1, 0.3, 0.5])
            distances, walked = [], {}
            for _ in range(30):
                awake = mask_of(n for n in topo.nodes if n == 1 or rng.random() < 0.8)
                if not walked or rng.random() < 0.4:
                    reply = flood(topo, 1, awake, loss, rng)
                    refresh_sink_distances(distances, reply)
                    walk_sink_distances(walked, reply)
                    assert hops_of_masks(distances) == walked
                    continue
                source = rng.choice(sorted(walked))
                outcome = flood(topo, source, awake, loss, rng)
                distance, wake = apply_announce(distances, outcome)
                forwarders = mask_of(walk_announce(walked, outcome, walked[source]))
                assert distance == walked[source]
                assert wake == forwarders | 1 << source | 1 << 1
                announces += 1
                selected += forwarders.bit_count() > 1
        assert announces > 300 and selected > 100


class TestDataParticipants:
    @staticmethod
    def _announced(wake, slot_id):
        return {slot_id: (2, mask_of(wake))}

    def test_plain_bus_wakes_everyone_active(self):
        # nothing is announced without forwarder selection
        awake = mask_of([1, 2, 4])
        got = data_participants(awake, {}, 0)
        assert got == mask_of([1, 2, 4])

    def test_fs_slot_wakes_forwarders_owner_sink(self):
        topo = diamond_pendant()
        awake = mask_of(topo.nodes)
        distances = hop_masks(TestApplyAnnounce.DISTANCES)
        announced = {0: apply_announce(distances, flood(topo, 4, awake))}
        assert data_participants(awake, announced, 0) == mask_of([1, 2, 3, 4])

    def test_unannounced_fs_slot_falls_back_to_everyone(self):
        awake = mask_of(diamond_pendant().nodes)
        got = data_participants(awake, self._announced({1, 4}, 1), 0)
        assert got == mask_of([1, 2, 3, 4, 5])

    def test_inactive_owner_is_not_woken(self):
        awake = mask_of([1, 2, 3])
        got = data_participants(awake, self._announced({1, 2, 4}, 0), 0)
        assert got == mask_of([1, 2])

    def test_nothing_to_select_returns_the_awake_list_itself(self):
        topo = diamond_pendant()
        awake = mask_of(topo.nodes)
        assert data_participants(awake, {}, 0) == awake
        # every awake node forwards: the selection is the whole awake mask
        assert data_participants(awake, self._announced(topo.nodes, 0), 0) == awake

    def test_sleeping_forwarder_is_not_woken(self):
        # 4 forwards and owns the slot, 5 forwards, but neither is active
        awake = mask_of([1, 3])
        got = data_participants(awake, self._announced({1, 3, 4, 5}, 0), 0)
        assert got == mask_of([1, 3])


class TestAgainstGeometricOracle:
    def test_announce_flood_reproduces_shortest_path_membership(self):
        # drive the protocol primitives by hand on random graphs and compare
        # the resulting forwarder sets with the two-distance characterization
        rng = random.Random(20105)
        for _ in range(30):
            topo = random_connected_topology(rng, rng.randint(3, 25))
            distances = []
            everyone = set(topo.nodes)
            sink = 1
            reply = flood(topo, sink, Topology.mask_of(everyone))
            refresh_sink_distances(distances, reply)
            source = max(topo.nodes)
            outcome = flood(topo, source, Topology.mask_of(everyone))
            distance, wake = apply_announce(distances, outcome)
            assert distance == hops_of_masks(distances)[source]
            # at loss 0 the source and the sink are forwarders themselves
            assert set(ids_of(wake)) == shortest_path_forwarders(topo, sink, source)

    def test_forwarders_sit_on_shortest_paths(self):
        rng = random.Random(64)
        topo = random_connected_topology(rng, 20)
        dist_sink = bfs_oracle(topo, 1)
        for source in sorted(topo.nodes - {1}):
            dist_src = bfs_oracle(topo, source)
            for u in shortest_path_forwarders(topo, 1, source):
                assert dist_sink[u] + dist_src[u] == dist_sink[source]


class TestAnnouncedOnce:
    def test_every_delivered_reply_announces_its_slot_once(self):
        # a node announces only after its reply is delivered, and then holds
        # a slot and never contends again: the wake mask of a slot is
        # written once, in the announce slot right after that reply
        rng = random.Random(1747)
        delivered = 0
        for seed in range(1, 7):
            topo = random_connected_topology(rng, rng.randint(8, 30), max_ecc=5)
            cfg = SimConfig(
                forwarder_selection=True,
                loss_probability=0.1,
                drift_ppm_range=(50.0, 300.0),
                duration=120 * 1_000_000,
                seed=seed,
            )
            result = run_simulation(cfg, topo)
            slots = [s for t in result.traces for s in t.slots]
            announces = [s for s in slots if s.kind == "announce" and s.initiator is not None]
            announced = [s.slot_id for s in announces]
            for i, slot in enumerate(slots):
                if slot.kind == "reply" and slot.delivered:
                    delivered += 1
                    assert announced.count(slot.assigned_slot) == 1
                    follow = slots[i + 1]
                    assert follow.kind == "announce"
                    # the announce floods from its source, the requester
                    assert follow.initiator == slot.requester
                    assert follow.slot_id == slot.assigned_slot
            assert len(set(announced)) == len(announced)
            assert sorted(result.world.announced_slots) == sorted(announced)
        assert delivered > 0

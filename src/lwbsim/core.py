"""Round and phase machinery shared by both bus modes.

The sink owns the global schedule. Every round starts with a sync flood
whose header announces the round period and the slot counts; nodes follow
whatever the header says. The sink walks three phases:

  cool-off       one second rounds carrying only the sync slot, so joining
                 nodes can lock their clocks before anything else happens
  stabilization  one second rounds packed with request/reply slots where
                 sources acquire data slots; the request block shrinks to
                 the minimum once it goes quiet
  operational    rounds of MINIMUM_LWB_ROUND; data bearing rounds carry the
                 minimum request group plus every assigned data slot, the
                 rounds in between carry only the sync slot

phase_starts fixes when each phase starts, and phase_at reads a round's
phase off that timeline; the sink stores only its slot table and the size
of its request block.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .config import (
    POLICY_CAPTURE,
    POLICY_COLLISION,
    SHORT_ROUND_US,
    TRIGGER_ROUNDS,
    TRIGGER_SLOTS,
    SimConfig,
)
from .errors import SimulationError

PHASE_COOLOFF = "cool-off"
PHASE_STABILIZATION = "stabilization"
PHASE_OPERATIONAL = "operational"


class SyncHeader(NamedTuple):
    """Contents of the sync packet: the shape of the round it opens."""

    round_period: int
    n_rr: int
    n_data: int


class SinkSchedule:
    """Sink-side view of the whole bus: slot_owner[i] the owner of slot index
    i, and the request block size (0 before stabilization)."""

    __slots__ = ("slot_owner", "rr_current", "empty_streak")

    def __init__(self) -> None:
        self.slot_owner, self.rr_current, self.empty_streak = [], 0, 0

    def assert_injective(self) -> None:
        """The table is dense by construction; no node may own two slots."""
        if len(set(self.slot_owner)) != len(self.slot_owner):
            raise SimulationError("slot table lost injectivity")


def phase_starts(config: SimConfig) -> tuple[int, int]:
    """(stabilization start, operational start): cool-off starts at 0, and it
    and stabilization each last their period rounded up to whole 1 s rounds."""
    short = SHORT_ROUND_US
    stabilization = -(-config.cooloff_period // short) * short
    return stabilization, stabilization - (-config.stabilization_period // short) * short


def phase_at(config: SimConfig, now: int) -> str:
    """The phase of the round that starts at now. Zero length periods fall
    straight through; a phase never goes back."""
    stabilization, operational = phase_starts(config)
    if now >= operational:
        return PHASE_OPERATIONAL
    return PHASE_STABILIZATION if now >= stabilization else PHASE_COOLOFF


def advance_phase(schedule: SinkSchedule, config: SimConfig, now: int) -> None:
    """Open the full request block in the first stabilization round; called
    once per round before building the sync header. rr_current is 0 only
    until then."""
    if not schedule.rr_current and phase_at(config, now) == PHASE_STABILIZATION:
        schedule.rr_current = config.initial_rr_slots()


def last_round_start(config: SimConfig) -> int:
    """Start of the run's last round: the last start before DURATION of one
    second rounds up to the operational start, then of MINIMUM_LWB_ROUND."""
    end, operational = config.duration - 1, phase_starts(config)[1]
    period = SHORT_ROUND_US if end < operational else config.minimum_lwb_round
    return end - (end - operational) % period


def data_round_cadence(config: SimConfig, op_round_index: int) -> bool:
    """True when the given operational round carries data slots.

    Rounds fire every MINIMUM_LWB_ROUND, so operational round k starts
    k * MINIMUM_LWB_ROUND after the operational phase does; one in every
    floor(IPI / round) rounds is data bearing, clamped so at least every
    round qualifies when IPI equals the round length.
    """
    ratio = max(1, config.ipi // config.minimum_lwb_round)
    return op_round_index % ratio == 0


def sink_build_sync(schedule: SinkSchedule, config: SimConfig, now: int) -> SyncHeader:
    """Build the header for the round that starts at now."""
    phase = phase_at(config, now)
    if phase == PHASE_COOLOFF:
        return SyncHeader(SHORT_ROUND_US, 0, 0)
    if phase == PHASE_STABILIZATION:
        return SyncHeader(SHORT_ROUND_US, schedule.rr_current, 0)
    period = config.minimum_lwb_round
    if data_round_cadence(config, (now - phase_starts(config)[1]) // period):
        return SyncHeader(period, config.rr_group_size, len(schedule.slot_owner))
    return SyncHeader(period, 0, 0)


def contend(contenders: int, policy: str, rng: random.Random) -> int | None:
    """Resolve one request slot among the contender mask (bit n = node n).

    No contender means an empty slot. A single contender always gets
    through. With several, the capture policy picks a uniformly random
    winner, the k-th contender in id order for one draw k; the collision
    policy destroys them all.
    """
    count = contenders.bit_count()
    if count < 2:
        return contenders.bit_length() - 1 if count else None
    if policy == POLICY_CAPTURE:
        for _ in range(rng.randrange(count)):
            contenders &= contenders - 1  # drops the lowest contender
        return (contenders & -contenders).bit_length() - 1
    if policy == POLICY_COLLISION:
        return None
    raise SimulationError(f"unknown contention policy {policy!r}")


def sink_assign(schedule: SinkSchedule, requester: int, capacity: int) -> int | None:
    """Grant the requester a data slot, reusing an existing grant; return
    the slot index, or None once capacity slots fill the round.

    Assignment is dense: the next free slot index. Asking again returns the
    already assigned slot so lost replies are harmless.
    """
    owners = schedule.slot_owner
    if requester in owners:
        return owners.index(requester)
    if len(owners) >= capacity:
        return None
    owners.append(requester)
    return len(owners) - 1


def update_rr_dynamics(schedule: SinkSchedule, slots: list, config: SimConfig) -> None:
    """Shrink the request block once contention has died down.

    slots are the finished round's slot traces; a request slot is empty
    when the sink heard no requester in it (it was not delivered). Two
    consecutive empty request slots (or, with the round trigger, two
    consecutive fully empty rounds) drop the block to one group for every
    later round. Reduction is permanent: nothing raises rr_current again
    once stabilization has started.
    """
    trigger = config.rr_reduction_trigger
    empties = [not slot.delivered for slot in slots if slot.kind == "request"]
    if trigger == TRIGGER_ROUNDS:
        empties = [all(empties)] if empties else []
    elif trigger != TRIGGER_SLOTS:
        raise SimulationError(f"unknown reduction trigger {trigger!r}")
    for empty in empties:
        schedule.empty_streak = schedule.empty_streak + 1 if empty else 0
        if schedule.empty_streak >= 2:
            schedule.rr_current = config.rr_group_size

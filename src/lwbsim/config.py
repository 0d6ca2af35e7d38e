"""Simulation configuration: protocol parameters plus simulator knobs.

Config files are plain "KEY = value" text. A key, case insensitive, is its
SimConfig field's name in capitals (IPI, MINIMUM_LWB_ROUND, ...), and the
field's annotation picks its parser: a Duration accepts the suffixes s, ms
and us, and a bare number means seconds.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import ConfigError
from .units import US_PER_MS, US_PER_S, Duration, format_duration, parse_duration

POLICY_CAPTURE = "capture"
POLICY_COLLISION = "collision"

TRIGGER_SLOTS = "slots"
TRIGGER_ROUNDS = "rounds"

# One stabilization or cool-off round always spans one second.
SHORT_ROUND_US = US_PER_S

# The shortest SLOT_LENGTH and SYNC_SLOT_LENGTH. At the Sky's 250 kbps a
# millisecond carries 31 bytes, too few for one Glossy flood of a packet
# and its relays, so no real slot is shorter; the bound also keeps a
# one-second round at 1,000 slots or fewer, and with it the cost of a round.
MIN_SLOT_LENGTH = US_PER_MS


class SimConfig:
    """All tunables for one run. Durations are integer microseconds."""

    ipi: Duration = 10 * US_PER_S
    minimum_lwb_round: Duration = 5 * US_PER_S
    cooloff_period: Duration = 10 * US_PER_S
    stabilization_period: Duration = 10 * US_PER_S
    max_payload_len: int = 40
    sink_node_id: int = 1
    max_node_number: int = 150
    forwarder_selection: bool = False
    glossy_guard_time: Duration = 2 * US_PER_MS
    slot_length: Duration = 15 * US_PER_MS
    sync_slot_length: Duration  # SLOT_LENGTH unless given, see __getattr__
    loss_probability: float = 0.0
    drift_ppm_range: tuple[float, float] = (0.0, 0.0)
    contention_policy: str = POLICY_CAPTURE
    rr_reduction_trigger: str = TRIGGER_SLOTS
    queue_capacity: int = 8
    seed: int = 1
    duration: Duration = 60 * US_PER_S

    def __init__(self, **values) -> None:
        for name in sorted(values.keys() - FIELDS):
            raise TypeError(f"SimConfig has no field {name!r}")
        if values.get("sync_slot_length", 0) is None:
            del values["sync_slot_length"]  # None asks for the default
        self.__dict__.update(values)  # the given fields; the others read defaults

    def __getattr__(self, name: str) -> int:
        """A SYNC_SLOT_LENGTH not given is SLOT_LENGTH, also after replace."""
        if name != "sync_slot_length":
            raise AttributeError(f"SimConfig has no attribute {name!r}")
        return self.slot_length

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return same and all(getattr(self, f) == getattr(other, f) for f in FIELDS)

    def replace(self, **changes) -> SimConfig:
        """A copy with the named fields changed and the others as given."""
        return type(self)(**{**vars(self), **changes})

    @property
    def mode(self) -> str:
        return "fs-lwb" if self.forwarder_selection else "lwb"

    @property
    def rr_group_size(self) -> int:
        """Slots per request group: request/reply pairs, plus an announce
        slot when forwarder selection is on."""
        return 3 if self.forwarder_selection else 2

    def initial_rr_slots(self) -> int:
        """Request/reply slots announced at the start of stabilization.

        As many slots as fit into a one second round after the sync slot,
        rounded down to a whole group, but never below one group.
        """
        avail = (SHORT_ROUND_US - self.sync_slot_length) // self.slot_length
        group = self.rr_group_size
        return max(group, avail - avail % group)

    def data_slot_capacity(self) -> int:
        """Data slots that fit into one operational round after the sync
        slot and the minimum request group."""
        used = self.sync_slot_length + self.rr_group_size * self.slot_length
        return max(0, (self.minimum_lwb_round - used) // self.slot_length)

    def validate(self) -> None:
        problems: list[str] = []
        for name, annotation in SimConfig.__annotations__.items():
            value, (_, types, noun) = getattr(self, name), _ANNOTATIONS[annotation]
            pair = annotation.startswith("tuple")
            parts = value if pair and type(value) is tuple else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in parts):
                problems.append(f"{name.upper()} must be finite")
            elif len(parts) != 1 + pair or not {*map(type, parts)} <= types:
                problems.append(f"{name.upper()} must be {noun}, not {value!r}")
        if problems:  # each field is a number of its type from here on
            raise ConfigError("; ".join(problems))
        if self.ipi < self.minimum_lwb_round:
            problems.append(
                f"IPI ({format_duration(self.ipi)}) must be at least "
                f"MINIMUM_LWB_ROUND ({format_duration(self.minimum_lwb_round)})"
            )
        if self.minimum_lwb_round <= 0:
            problems.append("MINIMUM_LWB_ROUND must be positive")
        for name in ("slot_length", "sync_slot_length"):
            if getattr(self, name) < MIN_SLOT_LENGTH:
                problems.append(
                    f"{name.upper()} must be at least {format_duration(MIN_SLOT_LENGTH)}"
                )
        if self.cooloff_period < 0 or self.stabilization_period < 0:
            problems.append("phase periods must not be negative")
        if self.max_payload_len < 0:
            problems.append("MAX_PAYLOAD_LEN must not be negative")
        if self.max_node_number > 65535:  # Sky/Contiki node ids are 16 bit
            problems.append("MAX_NODE_NUMBER must not exceed 65535")
        if not 1 <= self.sink_node_id <= self.max_node_number:
            problems.append(
                f"SINK_NODE_ID {self.sink_node_id} outside [1, {self.max_node_number}]"
            )
        if self.glossy_guard_time < 0:
            problems.append("GLOSSY_GUARD_TIME must not be negative")
        if not 0.0 <= self.loss_probability < 1.0:
            problems.append("LOSS_PROBABILITY must lie in [0, 1)")
        lo, hi = self.drift_ppm_range
        if lo > hi:
            problems.append("DRIFT_PPM_RANGE low bound exceeds high bound")
        if max(abs(lo), abs(hi)) > 1e6:  # a clock stopped or running twice as fast
            problems.append("DRIFT_PPM_RANGE bounds must lie within [-1e6, 1e6] ppm")
        if self.contention_policy not in (POLICY_CAPTURE, POLICY_COLLISION):
            problems.append(
                f"CONTENTION_POLICY must be '{POLICY_CAPTURE}' or '{POLICY_COLLISION}'"
            )
        if self.rr_reduction_trigger not in (TRIGGER_SLOTS, TRIGGER_ROUNDS):
            problems.append(
                f"RR_REDUCTION_TRIGGER must be '{TRIGGER_SLOTS}' or '{TRIGGER_ROUNDS}'"
            )
        if self.seed < 0:
            problems.append("SEED must not be negative")
        if self.queue_capacity < 1:
            problems.append("QUEUE_CAPACITY must be at least 1")
        if self.duration <= 0:
            problems.append("DURATION must be positive")
        if self.slot_length > 0:
            needed = self.sync_slot_length + self.rr_group_size * self.slot_length
            if needed > SHORT_ROUND_US:
                problems.append(
                    "SLOT_LENGTH too large: one sync slot plus one request group "
                    "must fit into a one second round"
                )
            if needed > self.minimum_lwb_round:
                problems.append(
                    "MINIMUM_LWB_ROUND too small for a sync slot plus one "
                    "request group"
                )
        if problems:
            raise ConfigError("; ".join(problems))


FIELDS = tuple(SimConfig.__annotations__)  # the annotated class attributes, in order


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_drift(value: str) -> tuple[float, float]:
    if ":" in value:
        lo_s, hi_s = value.split(":", 1)
        return (float(lo_s), float(hi_s))
    r = abs(float(value))
    return (-r, r)


# annotation as written -> (parse of a config text, the types a value may
# have, their name in an error): a bool is no int here, nor an int subclass
_ANNOTATIONS = {
    "Duration": (parse_duration, {int}, "an int of microseconds"), "int": (int, {int}, "an int"),
    "bool": (_parse_bool, {bool}, "a bool"), "float": (float, {int, float}, "a number"),
    "str": (str.lower, {str}, "a str"),
    "tuple[float, float]": (_parse_drift, {int, float}, "a (low, high) pair of numbers"),
}
# KEY -> (SimConfig field, parse)
CONFIG_KEYS = {
    name.upper(): (name, _ANNOTATIONS[annotation][0])
    for name, annotation in SimConfig.__annotations__.items()
}

VALID_KEYS = sorted(CONFIG_KEYS)


def config_texts(config: SimConfig) -> Iterator[tuple[str, str]]:
    """(KEY, text) of every key, in CONFIG_KEYS order: "KEY = text" lines
    that parse_config reads back to an equal config."""
    for key, (name, parse) in CONFIG_KEYS.items():
        value = getattr(config, name)
        if parse is parse_duration:
            yield key, format_duration(value)
        elif parse is _parse_drift:
            yield key, "%r:%r" % value
        else:
            yield key, str(int(value) if parse is _parse_bool else value)


def parse_config(text: str) -> SimConfig:
    """Parse and validate a config document. Missing keys take defaults."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected KEY = value, got {line!r}")
        key_raw, _, val_raw = line.partition("=")
        key = key_raw.strip().upper()
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(VALID_KEYS)
            )
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key} already set on line {first_line[key]}")
        first_line[key] = lineno
        name, parse = CONFIG_KEYS[key]
        try:
            values[name] = parse(val_raw.strip())
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc

    config = SimConfig(**values)  # type: ignore[arg-type]
    config.validate()
    return config


def ipi_warning(config: SimConfig) -> str:
    """The warning for an IPI that is not a multiple of MINIMUM_LWB_ROUND,
    naming the effective data interval, or "" when it is a multiple."""
    ipi, period = config.ipi, config.minimum_lwb_round
    if not ipi % period:
        return ""
    return (
        "IPI %s is not a multiple of MINIMUM_LWB_ROUND %s; effective IPI for data rounds is %s"
        % tuple(map(format_duration, (ipi, period, ipi - ipi % period)))
    )

"""Time units. All simulation time is kept as integer microseconds."""

from __future__ import annotations

import math

from .errors import ConfigError

US_PER_MS = 1_000
US_PER_S = 1_000_000

_SUFFIXES = (("us", 1), ("ms", US_PER_MS), ("s", US_PER_S))


def parse_duration(text: str) -> int:
    """Parse a duration like "10s", "15ms", "2000us" or a bare number of seconds.

    Returns integer microseconds. Raises ValueError when the text is not a
    number, and ConfigError when the number is not a duration: negative,
    not finite, or not a whole number of microseconds.
    """
    raw = text.strip().lower()
    for suffix, scale in _SUFFIXES:
        if raw.endswith(suffix):
            value = float(raw[: -len(suffix)])
            break
    else:
        value = float(raw) * US_PER_S
        scale = 1
    us = value * scale
    if not math.isfinite(us):
        raise ConfigError(f"duration {text!r} is not finite")
    if us < 0:
        raise ConfigError(f"negative duration: {text!r}")
    rounded = round(us)
    if abs(us - rounded) > 1e-6:
        raise ConfigError(f"duration {text!r} is not a whole number of microseconds")
    return int(rounded)


def format_duration(us: int) -> str:
    """Render integer microseconds with the largest exact unit."""
    if us % US_PER_S == 0:
        return f"{us // US_PER_S}s"
    if us % US_PER_MS == 0:
        return f"{us // US_PER_MS}ms"
    return f"{us}us"

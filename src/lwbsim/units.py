"""Time units. All simulation time is kept as integer microseconds."""

from __future__ import annotations

import math

from .errors import ConfigError

US_PER_MS = 1_000
US_PER_S = 1_000_000
Duration = int  # integer microseconds; a config field so annotated parses with parse_duration

_SUFFIXES = (("us", 1), ("ms", US_PER_MS), ("s", US_PER_S))


def parse_duration(text: str) -> int:
    """Parse a duration like "10s", "15ms", "2000us" or a bare number of seconds.

    Returns integer microseconds, read exactly, never through a float.
    Raises ValueError when the text is not a number, and ConfigError when
    the number is not a duration: negative, not finite (a decimal past the
    float range, as 1e400, counts), or not a whole number of microseconds.
    """
    raw = text.strip().lower()
    for suffix, scale in _SUFFIXES:
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            break
    else:
        scale = US_PER_S
    try:
        number = int(raw)  # exact, and an int never needs the slow decimal import
    except ValueError:
        from decimal import Decimal, InvalidOperation

        try:
            number = Decimal(raw)
        except InvalidOperation:
            float(raw)  # ValueError for a non-number
            raise ConfigError(f"duration {text!r} is out of range") from None
        if not math.isfinite(number):  # as a float: NaN, inf, 1e400
            raise ConfigError(f"duration {text!r} is not finite")
        if number and number.adjusted() < -6:  # below 1 us; a tiny exponent's ratio is slow
            raise ConfigError(f"duration {text!r} is not a whole number of microseconds")
    if number < 0:
        raise ConfigError(f"negative duration: {text!r}")
    numerator, denominator = number.as_integer_ratio()
    us, fraction = divmod(numerator * scale, denominator)
    if fraction:
        raise ConfigError(f"duration {text!r} is not a whole number of microseconds")
    return us


def format_duration(us: int) -> str:
    """Render integer microseconds with the largest exact unit."""
    if us % US_PER_S == 0:
        return f"{us // US_PER_S}s"
    if us % US_PER_MS == 0:
        return f"{us // US_PER_MS}ms"
    return f"{us}us"

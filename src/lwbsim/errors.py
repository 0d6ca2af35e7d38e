"""Exception taxonomy. The command line front end maps these to exit codes."""


class LwbError(Exception):
    """Base class for all errors raised by this package."""


class TopologyError(LwbError):
    """Malformed or invalid topology input."""


class ConfigError(LwbError):
    """Malformed or invalid configuration input."""


class SimulationError(LwbError):
    """Runtime protocol or engine failure."""


class ComparabilityError(LwbError):
    """Two runs cannot be compared because their scenarios differ."""

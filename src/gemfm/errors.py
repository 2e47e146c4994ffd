"""Exception types raised by this package."""


class GemfmError(Exception):
    """Base class for all errors raised by gemfm."""


class DataFormatError(GemfmError):
    """Malformed instance line, field map, or out-of-range feature index."""


class GraphFormatError(GemfmError):
    """Invalid graph construction input or edge-list file."""


class CheckpointError(GemfmError):
    """Unreadable or inconsistent model checkpoint."""


class ConfigError(GemfmError, ValueError):
    """Invalid or contradictory setting or argument; also a ValueError."""


class TrainingDivergedError(GemfmError):
    """Training loss became NaN or infinite."""

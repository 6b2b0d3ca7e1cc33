"""Exception types shared across the package, and the seed rule.

The CLI maps these onto exit codes: configuration/usage problems exit 1,
failed security properties exit 2, model-validity violations exit 3.
"""


class DmqkdError(Exception):
    """Base class for all package errors."""


class ConfigurationError(DmqkdError, ValueError):
    """Invalid parameter combination or malformed configuration input."""


class InvalidSymbolError(ConfigurationError):
    """A logical symbol outside the protocol's allowed set (e.g. a Y-basis decoy)."""


class ScheduleParseError(DmqkdError, ValueError):
    """A waveform schedule that violates the serialization conventions."""


class ModelValidityError(DmqkdError, ValueError):
    """Parameters outside the regime where a model approximation holds."""


class SampleSizeError(DmqkdError, ValueError):
    """Too few samples for a statistical test to be meaningful."""


def check_seed(seed: object) -> None:
    """ConfigurationError unless seed is an int (not a bool) >= 0: the rule of
    McSpec, simulate_frames_mc and run_verification."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed!r}")

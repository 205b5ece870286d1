"""Exception types shared across the package."""


class HipppError(Exception):
    """Base class for all package errors."""


class ParameterError(HipppError, ValueError):
    """An argument violates a documented precondition."""


class StructuralError(HipppError, ValueError):
    """A composite object is missing fields for its kind or wires indices out of range."""


class UndefinedMetricError(HipppError, ValueError):
    """A metric was requested at a point where its denominator vanishes."""


class EnumerationCapError(HipppError, RuntimeError):
    """A combinatorial space exceeds its cap: layer-1 placements, or cut-form endpoint patterns."""


class InternalCheckError(HipppError, RuntimeError):
    """A solver or sampler produced a result that fails post-hoc verification.

    These checks run inline on every solve; a failure indicates a bug, not
    bad user input, so it aborts instead of degrading silently.
    """


class ConfigError(HipppError, ValueError):
    """An experiment config file is malformed; the message names the offending key."""

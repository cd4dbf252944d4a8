"""Exception types shared across the toolkit."""


class SpellerError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SpellerError, ValueError):
    """An argument, configuration value, or input structure is invalid."""


class RateError(ValidationError):
    """A sampling rate that cannot carry the configured band or output rate."""


class PipelineError(SpellerError, RuntimeError):
    """A numeric or data failure occurred while processing a session."""


class BundleError(SpellerError):
    """A session bundle on disk is missing, corrupt, or incompatible."""

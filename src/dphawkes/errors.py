"""Exception types shared across the package."""


class EstimationFailed(Exception):
    """No estimate can be made from the data; the CLI exits 4, a sweep records converged=0."""


class NonConvergence(EstimationFailed, RuntimeError):
    """Moment inversion found no root in the admissible alpha bracket."""


class HorizonTooShort(EstimationFailed, ValueError):
    """Observation horizon below the relation-unaware sensitivity threshold."""


class NoCountedEvents(EstimationFailed, ValueError):
    """No event falls in the series' whole bins, so its sample mean is zero."""


class PreconditionViolated(ValueError):
    """A stated precondition of a bound or calculator does not hold."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""

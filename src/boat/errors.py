"""Exception types shared across the toolkit."""


class BoatError(Exception):
    """Base class for all toolkit errors."""


class ContractError(BoatError, ValueError):
    """An input violated an operation's contract (dimension/role mismatch)."""


class SchemaError(BoatError, ValueError):
    """A tabular input did not match the documented schema."""


class ScalingError(BoatError, ValueError):
    """A column cannot be min-max scaled (constant column)."""


class EstimationError(BoatError, ValueError):
    """An estimator received data it cannot produce an estimate from."""


class PositivityError(EstimationError):
    """A dataset contains only one treatment arm."""


class InsufficientDataError(BoatError, ValueError):
    """Too few observations for the requested check."""


class InitializationError(BoatError, RuntimeError):
    """Sampler could not find a finite starting log-density."""

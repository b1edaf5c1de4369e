"""Exception types shared across the package."""


class PalpmapError(Exception):
    """Base class for all palpmap errors."""


class InvalidInputError(PalpmapError):
    """An argument violates a documented precondition."""


class DegenerateGeometryError(PalpmapError):
    """Geometry too degenerate to solve (collinear points)."""


class NumericalConditioningError(PalpmapError):
    """A factorization failed even after jitter escalation, or a score overflowed."""


class InsufficientDataError(PalpmapError):
    """Not enough valid data to run the requested estimation."""


class OutOfWorkspaceError(PalpmapError):
    """A probe ray does not intersect the phantom surface."""


class ExplorationExhaustedError(PalpmapError):
    """Every candidate grid node has already been probed."""


class ConfigError(PalpmapError):
    """A configuration document is malformed or inconsistent."""

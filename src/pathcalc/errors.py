"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary invalid arguments; the classes here
mark conditions callers may want to handle separately.
"""

__all__ = [
    "PathcalcError",
    "ResolutionExhaustedError",
    "UnsupportedModelError",
    "SchemaError",
]


class PathcalcError(Exception):
    """Base class for package-specific errors."""


class ResolutionExhaustedError(PathcalcError):
    """A requested scale is finer than the discrete data can support."""


class UnsupportedModelError(PathcalcError, ValueError):
    """A model kind has no closed form registered for the operation."""


class SchemaError(PathcalcError):
    """A persisted artifact does not match the expected schema/version."""

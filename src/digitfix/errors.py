"""Error types shared across the package.

Plain ``ValueError`` is used for malformed values (bad digit vectors, domain
violations of a catalog function).  The two classes below exist so the CLI can
map failure modes onto distinct exit codes.
"""

__all__ = ["ConfigurationError", "UnsupportedFunctionError"]


class ConfigurationError(ValueError):
    """Invalid configuration: bad base, bad flag combination, unparsable spec."""


class UnsupportedFunctionError(Exception):
    """No finite search ceiling can be established for the requested function.

    Raised instead of silently running an unbounded search; callers may retry
    with an explicit cap.
    """

"""Exception types shared across the package."""


class UsmError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(UsmError, ValueError):
    """Invalid experiment configuration, descriptor, or family name."""


class SizeError(UsmError, ValueError):
    """Instance too large for an enumeration-based operation."""


class InvalidInstanceError(UsmError, ValueError):
    """Malformed graph or instance data."""


class InvalidSubsetError(UsmError, ValueError):
    """Subset contains elements outside the ground set."""


class InvalidPointError(UsmError, ValueError):
    """Point lies outside the balance-subproblem triangle."""


class DomainError(UsmError, ValueError):
    """Numeric argument outside its documented domain."""

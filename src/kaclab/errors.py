"""Exception hierarchy shared by all kaclab modules, and the integer and
number checks that every numeric configuration field goes through, in the
type that owns the field.

Exit-code mapping used by the CLI: ConfigError -> 2, AccuracyError -> 3,
CapacityError -> 4, any other KaclabError (a failed internal check such as
the sector-leak, translation-invariance or Gibbs range check) -> 5.
"""

import math
from numbers import Integral, Real


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for booleans and all else."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for finite Python and numpy real numbers; False for booleans,
    infinities, NaN and all else."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def check_numbers(**named) -> None:
    """Raise ConfigError naming every value that is not a finite real number."""
    bad = [f"{name} must be a number" for name, value in named.items() if not is_number(value)]
    if bad:
        raise ConfigError(bad)


class KaclabError(Exception):
    """Base class for all kaclab errors."""


class ConfigError(KaclabError):
    """Invalid configuration or invalid operation input.

    Carries the full list of messages so that every schema violation is
    reported at once, not just the first one.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class AccuracyError(KaclabError):
    """A certified tolerance could not be met.

    ``values`` holds whatever partial results were available (e.g. both
    quadrature refinements), so callers can inspect the failure.
    """

    def __init__(self, message, values=None):
        self.values = values
        super().__init__(message)


class CapacityError(KaclabError):
    """Requested problem size exceeds the exact-diagonalization cap."""


class UnsupportedPotentialError(ConfigError):
    """The potential family does not support the requested certified bound."""


class InsufficientDataError(ConfigError):
    """Not enough records to compute a trend/report."""

"""Exception hierarchy and shared numeric tolerance."""

from __future__ import annotations

import os

#: Absolute tolerance used for every probability/weight comparison.
TOL = 1e-9

#: Default ceiling on morphisms enumerated per hom-set query.
DEFAULT_HOM_CAP = 10 ** 5

#: Default ceiling on joint exogenous assignments enumerated (README, "Capacity limits").
DEFAULT_EXO_CAP = 5 * 10 ** 6

#: Environment variable overriding both enumeration caps.
ENUM_CAP_ENV = "ABSAUDIT_ENUM_CAP"


class AbsauditError(Exception):
    """Base class for all library errors."""


class CapacityError(AbsauditError):
    """An enumeration would exceed the configured cap."""


class ModelError(AbsauditError):
    """A semantically invalid model/abstraction or an invalid operation."""


class KernelUndefinedError(ModelError):
    """Raised when a per-variable kernel does not exist."""


class RenormalizationRequiredError(ModelError):
    """Raised when pushing a distribution through a partial outcome map."""


class ParseError(AbsauditError):
    """A text-format error with its position: a file that does not parse.

    A file that parses but describes an invalid model or map (an unknown
    variable, a table that does not normalise, ...) raises no ParseError:
    such faults are the issues of `validate_scm` and `validate_abstraction`.
    """

    def __init__(self, reason: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.reason = reason
        self.line = line
        self.column = column


def check_cap(count: int, default: int, what: str) -> None:
    """Raise CapacityError when an enumeration's `count` exceeds its cap:
    `ABSAUDIT_ENUM_CAP` if set, else `default`.  `what` names the
    enumeration and its count, and opens the message."""
    raw = os.environ.get(ENUM_CAP_ENV, default)
    try:
        limit = int(raw)
    except ValueError as exc:
        raise AbsauditError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if limit <= 0:
        raise AbsauditError(f"{ENUM_CAP_ENV} must be positive, got {limit}")
    if count > limit:
        raise CapacityError(f"{what}, exceeding the enumeration cap of {limit}")

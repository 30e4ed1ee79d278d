"""Exception hierarchy and shared numeric tolerance."""

from __future__ import annotations

import os

#: Absolute tolerance used for every probability/weight comparison.
TOL = 1e-9

#: Default ceiling on morphisms enumerated per hom-set query.
DEFAULT_HOM_CAP = 10 ** 5

#: Default ceiling on joint exogenous assignments enumerated.
DEFAULT_EXO_CAP = 10 ** 7

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
    """A text-format error with its position.

    Both syntactic problems and in-file semantic problems (unknown variable,
    non-normalised table, ...) are reported through this type so that every
    diagnostic carries a line and column.
    """

    def __init__(self, reason: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.reason = reason
        self.line = line
        self.column = column


def enum_cap(default: int) -> int:
    """Effective enumeration cap: the env override if set, else `default`."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise AbsauditError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise AbsauditError(f"{ENUM_CAP_ENV} must be positive, got {value}")
    return value

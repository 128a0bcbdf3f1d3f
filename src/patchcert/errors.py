"""Exception types shared across the package.

Every rejected input raises a distinct subclass so callers (and the CLI
exit-code mapping) can tell usage problems, budget refusals, and file
format problems apart without string matching.
"""

from __future__ import annotations

import math


class PatchCertError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PatchCertError):
    """A value violates a documented precondition."""


class DimensionMismatchError(InvalidInputError):
    """Two objects that must share plane dimensions do not."""


class BudgetExceededError(PatchCertError):
    """An attack would classify more variants than the configured budget.

    `required` counts every in-scope variant in exhaustive mode and the
    requested trials in random mode. The message states a count of 100
    digits or more as the power of ten below it: Python refuses to turn
    an int of over 4,300 digits into a string, and paper-scale attacks
    reach thousands of digits.
    """

    def __init__(self, required: int, budget: int, exact: bool = True,
                 mode: str = "exhaustive"):
        self.required = required
        self.budget = budget
        self.exact = exact
        if required < 10**99:
            count = f"{'' if exact else 'at least '}{required}"
        else:
            # A start at most floor(log10(required)), stepped up exactly.
            k = int((required.bit_length() - 1) * math.log10(2)) - 1
            while 10 ** (k + 1) <= required:
                k += 1
            count = f"at least 10^{k}"
        super().__init__(
            f"{mode} attack needs {count} variants, budget is {budget}"
        )


class UnsupportedOperationError(PatchCertError):
    """The requested operation is undefined for this object.

    Raised, for example, when a certification-only defender is asked for a
    warning decision.
    """


class TableLookupError(PatchCertError):
    """A prediction table has no row for the requested key."""

    def __init__(self, sample_id: str, variant: object):
        self.sample_id = sample_id
        self.variant = variant
        super().__init__(f"no table row for sample {sample_id!r}, variant {variant!r}")


class InvariantViolationError(PatchCertError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class FileFormatError(PatchCertError):
    """Base class for problems in serialized inputs.

    Carries the path and the 1-based line number (0 for whole-file
    problems) so messages stay actionable.
    """

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line else path
        super().__init__(f"{where}: {message}")


class MalformedLineError(FileFormatError):
    """A line is not valid JSON."""


class SchemaViolationError(FileFormatError):
    """A document parses but is missing fields or has wrong types."""


class DuplicateKeyError(FileFormatError):
    """An id or key appears more than once in one file."""


class ValueOutOfRangeError(FileFormatError):
    """A field parses with the right type but an out-of-range value."""

"""Exception types the command line maps to exit codes.

Bad input — a malformed spec or file, a parameter out of range, a group
the method does not apply to — raises a plain :class:`ValueError` whose
message names the offending value; the CLI prints it as
``error: <message>`` and exits 1.  The package's own classes all derive
from :class:`PglambdaError`:

- :class:`GroupValidationError` (also a ``ValueError``, exit 1): a
  multiplication table breaks a group axiom, reported at the first
  offending cell or triple;
- :class:`TooLargeError` (exit 3): a group or graph exceeds a size cap;
- :class:`SearchTimeoutError` (exit 3): an exhaustive search ran out of
  time, carrying the lower bound it had proven;
- :class:`ConstructionFailedError` (exit 2): a certificate failed its
  check, constructive (which would contradict the theorem it implements)
  or from the exact search, or the two methods disagreed on λ.  Only
  ``construct.certify`` raises it: it is the one place that checks a
  certificate, and the constructions only construct, so every failed
  construction exits 2 there, never 1.
"""

from __future__ import annotations

__all__ = [
    "PglambdaError",
    "GroupValidationError",
    "TooLargeError",
    "SearchTimeoutError",
    "ConstructionFailedError",
]


class PglambdaError(Exception):
    """Base class for all errors raised by this package."""


class GroupValidationError(PglambdaError, ValueError):
    """A multiplication table violates one of the group axioms."""


class TooLargeError(PglambdaError):
    """The requested object exceeds the configured size cap."""


class SearchTimeoutError(PglambdaError):
    """An exhaustive search exceeded its time budget.

    ``lower_bound`` is proven: all smaller spans are infeasible.
    """

    def __init__(self, message: str, *, lower_bound: int) -> None:
        super().__init__(message)
        self.lower_bound = lower_bound


class ConstructionFailedError(PglambdaError):
    """A certificate failed its check, or two methods disagreed on λ."""

"""Exceptions shared across the package, and its integer reader and printer."""

from __future__ import annotations


class BsgateError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BsgateError):
    """Raised on malformed complex/weight/grid documents.

    Carries ``line`` and ``col`` (1-based) when the location is known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class NoConsistentRoles(BsgateError):
    """The corners the boundary words record at a double point fit no
    reading of the corner-role pattern."""


class MalformedSystem(BsgateError):
    """A constraint system violates its structural contract."""


class WeightsNotSatisfying(BsgateError):
    """A weight vector offered for assembly violates a constraint."""


class InvalidLocus(BsgateError):
    """A split locus does not resolve on the given complex."""


class BadMove(BsgateError):
    """The requested split exits through outward branching."""


class PreconditionFailed(BsgateError):
    """An operation's documented precondition does not hold."""


class InvariantViolation(BsgateError):
    """An invariant that can only fail through a bug failed at runtime."""

    verdicts: tuple | None = None  # a safe split's (move, Verdict) pairs


class ChartError(BsgateError):
    """Chart-level precondition or grid-format failure."""


def _int(tok: str) -> int:
    # int(tok) for ASCII digits after an optional sign, else ValueError, as
    # int() raises past the digits it converts; int() alone reads '1_0'
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if digits.isascii() and digits.isdigit():
        return int(tok)
    raise ValueError(f"invalid literal for int() with base 10: {tok!r}")


def _decimal(n: int) -> str:
    try:  # str() refuses an int of more digits than int() converts
        return str(n)
    except ValueError:
        return f"(2^{n.bit_length() - 1} or more)"

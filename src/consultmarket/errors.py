"""Exception hierarchy shared across the package.

The split mirrors how failures are reported at the command line: bad input
data, numeric breakdowns, and calls that only make sense in one market
regime are distinguishable by type.
"""

from __future__ import annotations


class ConsultMarketError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ConsultMarketError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class BelowCostFloorError(DomainError):
    """Price at or below the full-offshoring engagement cost n*(c - delta_c)."""


class DataError(ConsultMarketError, ValueError):
    """Malformed or inconsistent input data (CSV rows, config files).

    ``line`` carries the offending 1-based line number when known.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if line is not None:
            loc.append(f"line {line}")
        prefix = f"[{': '.join(loc)}] " if loc else ""
        super().__init__(prefix + message)
        self.path = path
        self.line = line


class NumericError(ConsultMarketError, RuntimeError):
    """A numeric procedure failed (no bracket, non-finite value)."""


class NoBracketError(NumericError):
    """No sign change on the candidate interval; carries both endpoint residuals."""

    def __init__(self, message: str, lo: float, hi: float, f_lo: float, f_hi: float):
        super().__init__(f"{message}: residual({lo!r})={f_lo!r}, residual({hi!r})={f_hi!r}")
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi


class RegimeError(ConsultMarketError, RuntimeError):
    """An operation was invoked in the wrong market regime."""

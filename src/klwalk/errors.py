"""Exception classes shared across the library.

The CLI maps these onto distinct exit codes: parse failures (2),
assumption violations (3) and convergence failures (4).
"""

from __future__ import annotations


class DimensionMismatchError(ValueError):
    """Operands over the same state space were expected."""


class NotUnichainError(RuntimeError):
    """The kernel has no unique invariant distribution."""


class NotErgodicError(RuntimeError):
    """An irreducible/aperiodic (or Dobrushin-contractive) kernel was required."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best certified bracket so far."""

    def __init__(self, message: str, bracket: tuple[float, float], iterations: int):
        super().__init__(message)
        self.bracket = bracket
        self.iterations = iterations

    def __reduce__(self):
        # the default rebuilds from ``args`` (the message alone), which
        # this constructor rejects, so a worker's error would break its pool
        return type(self), (self.args[0], self.bracket, self.iterations)


class ParseError(ValueError):
    """Malformed text input (CSV, JSON config, edge list)."""


class GraphError(ParseError):
    """Malformed, duplicated or disconnected graph input."""

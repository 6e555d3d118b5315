"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class BellkitError(Exception):
    """Base class for every error raised by this package."""


class ScenarioError(BellkitError, ValueError):
    """Invalid scenario or term construction (bad cardinalities, out-of-range indices)."""


class ScenarioMismatchError(BellkitError, ValueError):
    """Two objects were built against incompatible measurement scenarios."""


class UnsupportedScenarioError(BellkitError, ValueError):
    """The operation needs a scenario feature that is absent (e.g. binary outcomes)."""


class UnknownBuiltinError(BellkitError, ValueError):
    """The requested builtin expression name is not registered."""


class ParseError(BellkitError, ValueError):
    """Malformed expression, expansion, or model document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f"line {line}" + (f", column {column}" if column is not None else "")
            location = f" ({location})"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class EnumerationCapError(BellkitError, RuntimeError):
    """The deterministic-strategy space exceeds the configured cap.

    ``size`` is None for a space too large to count exactly.
    """

    def __init__(self, size: int | None, cap: int):
        count = "too many elements to count" if size is None else f"{size} elements"
        super().__init__(f"strategy space has {count}, exceeding the cap of {cap}")
        self.size = size
        self.cap = cap


class DimensionMismatchError(BellkitError, ValueError):
    """State, model, or operator dimensions are inconsistent."""


class NoViolationError(BellkitError, ArithmeticError):
    """The quantum value does not exceed the local bound, so the quantity is undefined."""


class NoRootError(BellkitError, ArithmeticError):
    """A root scan found no sign change on the unit interval."""


class ConfigError(BellkitError, ValueError):
    """Invalid optimizer or analysis configuration."""

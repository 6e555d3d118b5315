"""Named Bell expressions shipped with the toolkit, and g-paper's expansion table."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import UnknownBuiltinError
from .scenario import BellExpression, CorrelatorExpression, Expression, Scenario

if TYPE_CHECKING:  # pathlib and the reader load only where the fixture is found and read
    from pathlib import Path

    from .lhv import FullJointExpansion

TRIPARTITE_BINARY = Scenario.uniform(3, 2, 2)


def _g_paper() -> BellExpression:
    # (settings, outcomes): coefficient; setting 0 is the unprimed measurement
    # of each party (A, B, C), setting 1 the primed one (A', B', C').
    return BellExpression(
        TRIPARTITE_BINARY,
        {
            ((0, 0, 0), (1, 1, 1)): 1,
            ((0, 0, 0), (1, 0, 0)): 5,
            ((0, 0, 0), (0, 0, 1)): 5,
            ((0, 0, 0), (1, 0, 1)): 1,
            ((0, 0, 0), (0, 0, 0)): 4,
            ((0, 0, 0), (0, 1, 0)): 4,
            ((0, 1, 1), (0, 0, 0)): 1,
            ((0, 1, 1), (0, 1, 1)): 1,
            ((0, 1, 1), (0, 0, 1)): -4,
            ((0, 1, 1), (0, 1, 0)): -4,
            ((1, 1, 0), (0, 0, 1)): -1,
            ((1, 1, 0), (1, 1, 1)): -1,
            ((1, 1, 0), (0, 1, 0)): -4,
            ((1, 1, 0), (1, 0, 0)): -4,
            ((1, 0, 1), (1, 0, 0)): -5,
            ((1, 0, 1), (0, 0, 1)): -5,
            ((1, 1, 1), (1, 1, 0)): 1,
            ((1, 1, 1), (0, 0, 1)): 1,
            ((1, 1, 1), (1, 1, 1)): -4,
            ((1, 1, 1), (0, 0, 0)): -4,
        },
    )


def _mermin() -> CorrelatorExpression:
    # Signed linear form E(A,B',C') + E(A',B,C') + E(A',B',C) - E(A,B,C); the
    # customary inequality takes its absolute value, which the analysis layer
    # applies when magnitudes are requested.
    return CorrelatorExpression(
        TRIPARTITE_BINARY, {(0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (0, 0, 0): -1}
    )


def g_paper_expansion_fixture() -> FullJointExpansion:
    """The shipped g-paper expansion table, read by this module's loader from
    where :func:`g_paper_expansion_fixture_path` finds it, and parsed."""
    from .exprformat import parse_expansion

    return parse_expansion(__spec__.loader.get_data(str(g_paper_expansion_fixture_path())).decode())


def g_paper_expansion_fixture_path() -> Path:
    """Path of the shipped table, the one place that locates it: ``data/``
    next to this module.  It names a file only for a package installed from a
    directory or a wheel; under a zip import it points into the archive."""
    from pathlib import Path

    return Path(__file__).with_name("data") / "g_paper_expansion.fixture"


# name -> (factory, whether analyses report the expression by |value|)
_BUILTINS = {"g-paper": (_g_paper, False), "mermin": (_mermin, True)}


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTINS))


def _builtin(name: str) -> tuple:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownBuiltinError(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
        ) from None


def builtin_expression(name: str) -> Expression:
    """Construct a fresh instance of a builtin expression."""
    factory, _ = _builtin(name)
    return factory()


def builtin_magnitude(name: str) -> bool:
    """Whether analyses of this builtin report magnitudes by default."""
    _, magnitude = _builtin(name)
    return magnitude

"""Named Bell expressions shipped with the toolkit, and g-paper's expansion table."""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

from .errors import UnknownBuiltinError
from .exprformat import parse_expansion
from .lhv import FullJointExpansion
from .scenario import (
    BellExpression,
    CorrelatorExpression,
    Expression,
    MarginalTerm,
    Scenario,
    make_correlator_expression,
    make_expression,
)

TRIPARTITE_BINARY = Scenario.uniform(3, 2, 2)

# (coefficient, settings, outcomes); setting 0 is the unprimed measurement of
# each party (A, B, C), setting 1 the primed one (A', B', C').
_G_PAPER_TERMS = (
    (1, (0, 0, 0), (1, 1, 1)),
    (5, (0, 0, 0), (1, 0, 0)),
    (5, (0, 0, 0), (0, 0, 1)),
    (1, (0, 0, 0), (1, 0, 1)),
    (4, (0, 0, 0), (0, 0, 0)),
    (4, (0, 0, 0), (0, 1, 0)),
    (1, (0, 1, 1), (0, 0, 0)),
    (1, (0, 1, 1), (0, 1, 1)),
    (-4, (0, 1, 1), (0, 0, 1)),
    (-4, (0, 1, 1), (0, 1, 0)),
    (-1, (1, 1, 0), (0, 0, 1)),
    (-1, (1, 1, 0), (1, 1, 1)),
    (-4, (1, 1, 0), (0, 1, 0)),
    (-4, (1, 1, 0), (1, 0, 0)),
    (-5, (1, 0, 1), (1, 0, 0)),
    (-5, (1, 0, 1), (0, 0, 1)),
    (1, (1, 1, 1), (1, 1, 0)),
    (1, (1, 1, 1), (0, 0, 1)),
    (-4, (1, 1, 1), (1, 1, 1)),
    (-4, (1, 1, 1), (0, 0, 0)),
)


def _g_paper() -> BellExpression:
    return make_expression(
        TRIPARTITE_BINARY,
        [MarginalTerm(settings, outcomes, c) for c, settings, outcomes in _G_PAPER_TERMS],
    )


def _mermin() -> CorrelatorExpression:
    # Signed linear form E(A,B',C') + E(A',B,C') + E(A',B',C) - E(A,B,C); the
    # customary inequality takes its absolute value, which the analysis layer
    # applies when magnitudes are requested.
    return make_correlator_expression(
        TRIPARTITE_BINARY,
        [((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1), ((0, 0, 0), -1)],
    )


_G_PAPER_FIXTURE = "data/g_paper_expansion.fixture"


def g_paper_expansion_fixture() -> FullJointExpansion:
    """The shipped g-paper expansion table, parsed."""
    text = files(__package__).joinpath(_G_PAPER_FIXTURE).read_text(encoding="utf-8")
    return parse_expansion(text)


def g_paper_expansion_fixture_path() -> Path:
    """Filesystem path of the shipped table (packages installed from a directory)."""
    return Path(str(files(__package__).joinpath(_G_PAPER_FIXTURE)))


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

"""Line-oriented text format for Bell expressions and full-joint expansions.

Documents are UTF-8; a line ends at LF, CRLF or CR, and LF is emitted.
``#`` starts a comment (to end of line) and blank lines are ignored.  The
first significant line must be the header::

    scenario <parties> <settings> <outcomes>

declaring uniform cardinalities: every party has the same number of settings
and every setting the same number of outcomes.  Term lines follow, all of one
kind per document::

    <coeff> P(A0 B1 C0 | 1 0 1)     joint-probability term
    <coeff> E(A0 B1 C1)             correlator term (binary outcomes only)
    <coeff> L(010011)               full-joint expansion term

``<coeff>`` is an optionally signed integer or fraction ``n/d``.  Party
tokens use consecutive uppercase letters starting at ``A``, each followed by
a setting index; in a ``P(...)`` line the fields after ``|`` list one outcome
label per party.  An ``L(...)`` key lists one outcome digit per
(party, setting) slot in party-major, setting-minor order, so the tripartite
two-setting case reads ``L(<a><a'><b><b'><c><c'>)``; this compact form
requires single-digit outcome labels.

``parse_expression`` and ``parse_expansion`` read a document in one pass,
straight to an expression's term map or an expansion's grid: each line is
matched, range checked and merged as it is read, and the first bad line is
the error.
Duplicate keys merge by rational addition; each emits a
:class:`DuplicateTermWarning`, in line order, but only once the whole
document has parsed, so a document that fails warns about nothing.

Serialization is canonical: terms sorted by key, coefficients in lowest terms
with an explicit sign.  ``parse_expression(serialize_expression(e))``
reproduces the coefficient map of ``e`` exactly, and serialized fixtures diff
stably line by line.
"""

from __future__ import annotations

import re
import sys
import warnings
from fractions import Fraction
from itertools import chain

from .errors import ParseError, ScenarioError, UnsupportedScenarioError
from .lhv import DEFAULT_ENUMERATION_CAP, FullJointExpansion, _zero_grid
from .scenario import BellExpression, CorrelatorExpression, Expression, Scenario, _scenario_text


class DuplicateTermWarning(UserWarning):
    """A document repeated a term key; the coefficients were merged."""


_HEADER_RE = re.compile(r"^scenario\s+(\d+)\s+(\d+)\s+(\d+)\s*$")
_TERM_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)\s+([PEL])\(([^()]*)\)\s*$")
_TOKEN_RE = re.compile(r"\S+")


def _party_letter(party: int) -> str:
    if party >= 26:
        raise UnsupportedScenarioError("the text format supports at most 26 parties")
    return chr(ord("A") + party)


def _located_int(digits: str, line_no: int, column: int) -> int:
    """``int(digits)``, refused at its line and column past the interpreter's
    limit on the digits of an integer read from text."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"number too long: {len(digits.lstrip('+-'))} digits, "
            f"more than {sys.get_int_max_str_digits()}",
            line_no,
            column,
        ) from None


def _located_tokens(part: str, offset: int, line_no: int, count: int, what: str) -> list:
    """The whitespace-separated tokens of a field with their 1-based columns,
    exactly ``count`` of them; ``offset`` is the field's start in the line."""
    tokens = [(m.group(0), offset + m.start() + 1) for m in _TOKEN_RE.finditer(part)]
    if len(tokens) != count:
        raise ParseError(f"expected {count} {what}, got {len(tokens)}", line_no, offset + 1)
    return tokens


def _parse_party_tokens(
    scenario: Scenario, part: str, offset: int, line_no: int
) -> tuple:
    """Parse 'A0 B1 C0'-style setting tokens, reporting real columns."""
    tokens = _located_tokens(part, offset, line_no, scenario.parties, "party tokens")
    settings = []
    for party, (token, column) in enumerate(tokens):
        expected = _party_letter(party)
        if not (token[0] == expected and token[1:].isdecimal()):
            raise ParseError(
                f"expected token {expected}<setting>, got {token!r}", line_no, column
            )
        setting = _located_int(token[1:], line_no, column + 1)
        if setting >= scenario.settings_per_party[party]:
            raise ParseError(
                f"setting {setting} out of range in token {token!r}", line_no, column
            )
        settings.append(setting)
    return tuple(settings)


def _parse_outcome_tokens(
    scenario: Scenario, settings: tuple, part: str, offset: int, line_no: int
) -> tuple:
    tokens = _located_tokens(part, offset, line_no, scenario.parties, "outcome labels")
    outcomes = []
    for party, (token, column) in enumerate(tokens):
        if not token.isdecimal():
            raise ParseError(f"outcome label must be an integer, got {token!r}", line_no, column)
        outcome = _located_int(token, line_no, column)
        if outcome >= scenario.outcomes_per_setting[party][settings[party]]:
            raise ParseError(
                f"outcome {token!r} out of range for party {_party_letter(party)} "
                f"setting {settings[party]}",
                line_no,
                column,
            )
        outcomes.append(outcome)
    return tuple(outcomes)


def _parse_assignment_digits(
    scenario: Scenario, digits: str, offset: int, line_no: int
) -> tuple:
    slot_count = scenario.slot_offsets[-1]
    if len(digits) != slot_count:
        raise ParseError(
            f"expected {slot_count} outcome digits, got {len(digits)}", line_no, offset + 1
        )
    flat = tuple(map(int, digits))
    for i, (outcome, count) in enumerate(zip(flat, scenario.slot_outcomes)):
        if outcome >= count:
            party, setting = scenario.slots()[i]
            raise ParseError(
                f"outcome digit {digits[i]!r} out of range for party {_party_letter(party)} "
                f"setting {setting}",
                line_no,
                offset + i + 1,
            )
    return flat


def _check_assignment_digits(scenario: Scenario) -> None:
    """Refuse a scenario whose assignments have no ``L(...)`` key: one with a
    setting of more than 10 outcomes.  Each distinct row object is read once,
    so a header's one repeated row costs one pass, however many parties."""
    if max(max(row) for row, _ in scenario.distinct_rows) > 10:
        raise UnsupportedScenarioError("assignment digit keys need outcome labels 0-9")


def _assignment_keys(scenario: Scenario, assignments) -> list:
    """The ``L(...)`` key of each assignment, which reports use too: one digit per slot.

    Refused for the whole scenario by :func:`_check_assignment_digits`,
    whichever labels the assignments hold, when there is any to list.  The
    check runs once per listing, not once per key.
    """
    if assignments:
        _check_assignment_digits(scenario)
    return ["".join(map(str, chain.from_iterable(assignment))) for assignment in assignments]


def _parse(text: str, kinds: str) -> tuple:
    """(scenario, term kind or None, merged term map) of a document, in one pass.

    Every rejection carries a 1-based line number (and a column where one is
    meaningful); the first bad line is the error, and term kinds must not mix.
    Only once the whole document has parsed is a kind outside ``kinds`` refused,
    at its first term line, and then each repeated key warned about.
    """
    scenario = None
    kind = None
    merged: dict = {}
    first_line: dict = {}
    duplicates: list = []
    magnitude = Fraction(0)
    # str.splitlines would also end a line at a form feed, U+2028 and the like
    for line_no, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.partition("#")[0]
        if not line.strip():
            continue
        if scenario is None:
            header = _HEADER_RE.match(line)
            if header is None:
                raise ParseError(
                    "expected header 'scenario <parties> <settings> <outcomes>'", line_no, 1
                )
            parties, settings, outcomes = (
                _located_int(header.group(i), line_no, header.start(i) + 1) for i in (1, 2, 3)
            )
            try:
                _party_letter(parties - 1)  # the 26-party limit
                scenario = Scenario.uniform(parties, settings, outcomes)
            except (ScenarioError, UnsupportedScenarioError) as exc:
                raise ParseError(str(exc), line_no, 1) from None
            continue
        if _HEADER_RE.match(line):
            raise ParseError("duplicate scenario header", line_no, 1)
        match = _TERM_RE.match(line)
        if match is None:
            raise ParseError(
                "malformed term line; expected '<coeff> P(...)', 'E(...)' or 'L(...)'",
                line_no,
                1,
            )
        numerator, _, denominator = match.group(1).partition("/")
        column = match.start(1) + 1
        try:
            coefficient = Fraction(
                _located_int(numerator, line_no, column),
                _located_int(denominator or "1", line_no, column + len(numerator) + 1),
            )
        except ZeroDivisionError:
            raise ParseError(
                f"coefficient {match.group(1)!r} has a zero denominator",
                line_no,
                match.start(1) + 1,
            ) from None
        # every bound, quantum value and expansion entry is at most this sum
        magnitude += abs(coefficient)
        if magnitude > sys.float_info.max:
            raise ParseError("term coefficient magnitudes sum past the largest float", line_no, 1)
        term_kind = match.group(2)
        body = match.group(3)
        body_offset = match.start(3)
        if kind is None:
            kind, kind_line = term_kind, line_no
        elif term_kind != kind:
            raise ParseError(
                f"cannot mix {kind}(...) and {term_kind}(...) terms in one document",
                line_no,
                match.start(2) + 1,
            )
        if term_kind == "P":
            if body.count("|") != 1:
                raise ParseError(
                    "expected one '|' separating settings from outcomes",
                    line_no,
                    body_offset + 1,
                )
            settings_part, outcomes_part = body.split("|")
            settings = _parse_party_tokens(scenario, settings_part, body_offset, line_no)
            outcomes = _parse_outcome_tokens(
                scenario,
                settings,
                outcomes_part,
                body_offset + len(settings_part) + 1,
                line_no,
            )
            key = (settings, outcomes)
        elif term_kind == "E":
            if not scenario.is_binary:
                raise ParseError(
                    "correlator terms need a binary scenario", line_no, match.start(2) + 1
                )
            key = _parse_party_tokens(scenario, body, body_offset, line_no)
        else:
            digits = body.strip()
            if not digits.isdecimal():
                raise ParseError(
                    "L(...) expects a run of outcome digits", line_no, body_offset + 1
                )
            key = _parse_assignment_digits(
                scenario, digits, body_offset + body.index(digits), line_no
            )
        if key in merged:
            merged[key] += coefficient
            duplicates.append((line_no, first_line[key]))
        else:
            merged[key] = coefficient
            first_line[key] = line_no
    if scenario is None:
        raise ParseError("document has no scenario header", 1, 1)
    if kind is not None and kind not in kinds:
        if kind == "L":
            raise ParseError(
                "document holds full-joint L(...) terms; use parse_expansion", kind_line
            )
        raise ParseError("document holds expression terms; use parse_expression", kind_line)
    for line_no, first in duplicates:
        warnings.warn(
            f"duplicate term at line {line_no} merges with line {first}",
            DuplicateTermWarning,
            stacklevel=3,
        )
    return scenario, kind, merged


def parse_expression(text: str) -> Expression:
    """Parse a P- or E-document; empty documents yield an empty probability form."""
    scenario, kind, terms = _parse(text, "PE")
    form = CorrelatorExpression if kind == "E" else BellExpression
    # every key was range-checked as it was read; a merge may have cancelled one
    return form._from_valid_terms(scenario, {key: c for key, c in terms.items() if c})


def parse_expansion(text: str) -> FullJointExpansion:
    """Parse an L-document into a complete (zero-filled) expansion, capped as
    ``expand_full_joint`` caps its listing."""
    scenario, _, terms = _parse(text, "L")
    grid, scale, scaled = _zero_grid(scenario, terms.values(), DEFAULT_ENUMERATION_CAP)
    for flat, value in zip(terms, scaled):
        grid[flat] = value
    grid.flags.writeable = False  # so the expansion keeps it without a copy
    return FullJointExpansion(scenario, grid, scale)


def _format_coefficient(value: Fraction) -> str:
    text = str(value)  # lowest terms by construction
    return f"+{text}" if value > 0 else text


def _header_line(scenario: Scenario) -> str:
    if scenario.uniform_cardinalities() is None:
        raise UnsupportedScenarioError("the text format only covers uniform scenarios")
    _party_letter(scenario.parties - 1)  # the 26-party limit
    return _scenario_text(scenario)


def serialize_expression(expr: Expression) -> str:
    """Canonical text: header, then terms sorted by key, LF-terminated."""
    lines = [_header_line(expr.scenario)]
    correlator = isinstance(expr, CorrelatorExpression)
    for key in sorted(expr.terms):
        settings, outcomes = (key, ()) if correlator else key
        tokens = " ".join(f"{_party_letter(p)}{s}" for p, s in enumerate(settings))
        labels = " ".join(map(str, outcomes))
        body = f"E({tokens})" if correlator else f"P({tokens} | {labels})"
        lines.append(f"{_format_coefficient(expr.terms[key])} {body}")
    return "\n".join(lines) + "\n"


def serialize_expansion(
    expansion: FullJointExpansion, include_zeros: bool = False
) -> str:
    """Canonical text for an expansion, sorted by assignment."""
    lines = [_header_line(expansion.scenario)]
    listed = [(a, c) for a, c in expansion.items() if include_zeros or c != 0]
    keys = _assignment_keys(expansion.scenario, [a for a, _ in listed])
    for key, (_, coefficient) in zip(keys, listed):
        lines.append(f"{_format_coefficient(coefficient)} L({key})")
    return "\n".join(lines) + "\n"

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    BellExpression,
    CorrelatorExpression,
    DuplicateTermWarning,
    MarginalTerm,
    ParseError,
    Scenario,
    UnsupportedScenarioError,
    builtin_expression,
    make_expression,
    parse_expansion,
    parse_expression,
    serialize_expansion,
    serialize_expression,
    expand_full_joint,
)
from bellkit.exprformat import _assignment_keys

TRI = Scenario.uniform(3, 2, 2)


class TestParseExpression:
    def test_single_probability_term(self):
        expr = parse_expression("scenario 3 2 2\n+5 P(A0 B0 C0 | 1 0 0)\n")
        assert isinstance(expr, BellExpression)
        assert expr.term_count == 1
        assert expr.coefficient((0, 0, 0), (1, 0, 0)) == 5

    def test_single_correlator_term(self):
        expr = parse_expression("scenario 3 2 2\n-1 E(A0 B0 C0)\n")
        assert isinstance(expr, CorrelatorExpression)
        assert expr.coefficient((0, 0, 0)) == -1

    def test_fraction_coefficients(self):
        expr = parse_expression("scenario 3 2 2\n-3/2 P(A1 B1 C1 | 0 0 0)\n")
        assert expr.coefficient((1, 1, 1), (0, 0, 0)) == Fraction(-3, 2)

    def test_comments_blank_lines_and_crlf(self):
        text = "# leading comment\r\n\r\nscenario 3 2 2\r\n+1 P(A0 B0 C0 | 0 0 0)  # inline\r\n"
        expr = parse_expression(text)
        assert expr.term_count == 1

    def test_out_of_range_setting_reports_line_and_token(self):
        with pytest.raises(ParseError, match="A2") as excinfo:
            parse_expression("scenario 3 2 2\n+1 P(A2 B0 C0 | 1 0 0)\n")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 6

    def test_out_of_range_outcome_reports_token(self):
        with pytest.raises(ParseError, match="outcome '3' out of range") as excinfo:
            parse_expression("scenario 3 2 2\n+1 P(A0 B0 C0 | 1 3 0)\n")
        assert excinfo.value.line == 2

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="malformed term line") as excinfo:
            parse_expression("scenario 3 2 2\n+1 Q(A0 B0 C0)\n")
        assert excinfo.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError, match="expected header") as excinfo:
            parse_expression("+1 P(A0 B0 C0 | 0 0 0)\n")
        assert excinfo.value.line == 1

    def test_duplicate_header_rejected(self):
        with pytest.raises(ParseError, match="duplicate scenario header"):
            parse_expression("scenario 3 2 2\nscenario 3 2 2\n")

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError, match="no scenario header"):
            parse_expression("# nothing here\n")

    def test_mixed_term_kinds_rejected(self):
        text = "scenario 3 2 2\n+1 P(A0 B0 C0 | 0 0 0)\n+1 E(A0 B0 C0)\n"
        with pytest.raises(ParseError, match="cannot mix") as excinfo:
            parse_expression(text)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize(
        "line,match,column",
        [
            ("+1/0 P(A0 B0 C0 | 0 0 0)", "coefficient '\\+1/0' has a zero denominator", 1),
            ("+1 P(A\u00b2 B0 C0 | 0 0 0)", "expected token A<setting>", 6),
            ("+1 P(A0 B0 C0 | \u00b2 0 0)", "outcome label must be an integer", 17),
            ("+1 L(\u00b200000)", "L\\(...\\) expects a run of outcome digits", 6),
            *(
                pytest.param(line, "^expected one '\\|' separating settings from outcomes", 6,
                             id=name)
                for line, name in [
                    ("+1 P(A0 B0 C0 0 0 0)", "no-bar"),
                    ("+1 P(A0 B0 | C0 | 0 0 0)", "two-bars"),
                ]
            ),
            # past Python's 4300-digit limit on reading an integer from text
            *(
                pytest.param(line % ("0" * 5000), "number too long: 5001 digits", column, id=name)
                for line, column, name in [
                    ("+1%s P(A0 B0 C0 | 0 0 0)", 1, "long-numerator"),
                    ("-1/1%s P(A0 B0 C0 | 0 0 0)", 4, "long-denominator"),
                    ("+1 P(A0%s B0 C0 | 0 0 0)", 7, "long-setting"),
                    ("+1 P(A0 B0 C0 | 0%s 0 0)", 17, "long-outcome"),
                ]
            ),
        ],
    )
    def test_malformed_documents_are_located(self, line, match, column):
        parse = parse_expansion if "L(" in line else parse_expression
        with pytest.raises(ParseError, match=match) as excinfo:
            parse(f"scenario 3 2 2\n{line}\n")
        assert (excinfo.value.line, excinfo.value.column) == (2, column)

    def test_wrong_party_letter(self):
        with pytest.raises(ParseError, match="expected token B"):
            parse_expression("scenario 3 2 2\n+1 P(A0 A0 C0 | 0 0 0)\n")

    def test_duplicate_keys_merge_with_warning(self):
        text = "scenario 3 2 2\n+1 P(A0 B0 C0 | 0 0 0)\n+2 P(A0 B0 C0 | 0 0 0)\n"
        with pytest.warns(DuplicateTermWarning, match="line 3"):
            expr = parse_expression(text)
        assert expr.coefficient((0, 0, 0), (0, 0, 0)) == 3

    @pytest.mark.parametrize(
        "kept,cancelled",
        [("P(A1 B1 C1 | 1 1 1)", "P(A0 B0 C0 | 0 0 0)"), ("E(A1 B1 C1)", "E(A0 B0 C0)")],
    )
    def test_keys_that_cancel_are_dropped(self, kept, cancelled):
        text = f"scenario 3 2 2\n+1 {kept}\n+1 {cancelled}\n-1 {cancelled}\n"
        with pytest.warns(DuplicateTermWarning, match="line 4"):
            expr = parse_expression(text)
        assert expr.term_count == 1
        assert list(expr.terms.values()) == [1]

    @pytest.mark.parametrize(
        "term,bad_line,parse,match,line",
        [
            ("+1 E(A0 B0 C0)", "+1 E(A0 B0)", parse_expression, "3 party tokens", 4),
            ("+1 L(000000)", "+1 L(0000)", parse_expansion, "6 outcome digits", 4),
            # the bad line wins over the wrong kind, which the whole document shows
            ("+1 L(000000)", "+1 L(0000)", parse_expression, "6 outcome digits", 4),
            ("+1 L(000000)", "", parse_expression, "use parse_expansion", 2),
        ],
    )
    def test_a_failing_document_warns_of_no_duplicate(self, term, bad_line, parse, match, line):
        text = f"scenario 3 2 2\n{term}\n{term}\n{bad_line}\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match=match) as excinfo:
                parse(text)
        assert excinfo.value.line == line
        assert not [w for w in caught if issubclass(w.category, DuplicateTermWarning)]

    def test_expansion_document_is_rejected(self):
        with pytest.raises(ParseError, match="parse_expansion"):
            parse_expression("scenario 3 2 2\n+1 L(000000)\n")

    def test_header_only_parses_to_empty_expression(self):
        expr = parse_expression("scenario 3 2 2\n")
        assert isinstance(expr, BellExpression)
        assert expr.term_count == 0

    @pytest.mark.parametrize(
        "line,key",
        [
            ("+1 P(A0 B1 C0 | 1 0 1)", ((0, 1, 0), (1, 0, 1))),
            ("+1 E(A1 B0 C1)", (1, 0, 1)),
            ("+1 L(010011)", ((0, 1), (0, 0), (1, 1))),
        ],
    )
    def test_each_term_carries_the_key_its_form_stores(self, line, key):
        text = f"scenario 3 2 2\n{line}\n"
        if "L(" in line:
            terms = dict(parse_expansion(text).items())
        else:
            terms = parse_expression(text).terms
        assert [k for k, c in terms.items() if c] == [key]

    def test_more_than_26_parties_refused_at_the_header(self):
        with pytest.raises(ParseError, match=r"at most 26 parties \(line 2, column 1\)"):
            parse_expression("# wide\nscenario 27 2 2\n")

    def test_a_header_count_past_the_digit_limit_is_located(self):
        with pytest.raises(ParseError, match=r"5000 digits, more than 4300 \(line 1, column 12\)"):
            parse_expression("scenario 3 1%s 2\n" % ("0" * 4999))

    def test_coefficient_magnitudes_summing_past_the_largest_float(self):
        big = "1" + "0" * 308
        assert parse_expression(f"scenario 1 2 2\n+{big} P(A0 | 0)\n")
        with pytest.raises(ParseError, match=r"largest float \(line 3, column 1\)"):
            parse_expression(f"scenario 1 2 2\n+{big} P(A0 | 0)\n-{big} P(A0 | 1)\n")


class TestSerializeExpression:
    def test_empty_expression_serializes_to_header_only(self):
        assert serialize_expression(make_expression(TRI, [])) == "scenario 3 2 2\n"

    def test_an_empty_expression_past_26_parties_is_refused(self):
        expr = make_expression(Scenario.uniform(27, 1, 2), [])
        with pytest.raises(UnsupportedScenarioError, match="at most 26 parties"):
            serialize_expression(expr)

    def test_lowest_terms_and_explicit_sign(self):
        expr = make_expression(
            TRI, [MarginalTerm((0, 0, 0), (0, 0, 0), Fraction(6, 4))]
        )
        assert "+3/2 P(A0 B0 C0 | 0 0 0)" in serialize_expression(expr)

    def test_terms_sorted_by_key(self):
        expr = parse_expression(
            "scenario 3 2 2\n+1 P(A1 B1 C1 | 0 0 0)\n+1 P(A0 B0 C0 | 1 1 1)\n"
        )
        lines = serialize_expression(expr).splitlines()
        assert lines[1] == "+1 P(A0 B0 C0 | 1 1 1)"
        assert lines[2] == "+1 P(A1 B1 C1 | 0 0 0)"

    def test_g_paper_round_trips_exactly(self):
        expr = builtin_expression("g-paper")
        text = serialize_expression(expr)
        assert len(text.splitlines()) == 21
        assert parse_expression(text) == expr

    def test_mermin_round_trips_exactly(self):
        expr = builtin_expression("mermin")
        assert parse_expression(serialize_expression(expr)) == expr

    def test_non_uniform_scenario_unsupported(self):
        lopsided = Scenario(2, (1, 2), ((2,), (2, 2)))
        with pytest.raises(UnsupportedScenarioError):
            serialize_expression(make_expression(lopsided, []))

    def test_lf_endings_emitted(self):
        text = serialize_expression(builtin_expression("g-paper"))
        assert "\r" not in text
        assert text.endswith("\n")


@st.composite
def random_bell_expressions(draw):
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, 1) for _ in range(3))),
                st.tuples(*(st.integers(0, 1) for _ in range(3))),
                st.fractions(min_value=-20, max_value=20),
            ),
            max_size=12,
        )
    )
    return make_expression(
        TRI, [MarginalTerm(s, o, c) for s, o, c in terms if c != 0]
    )


class TestRoundTripProperty:
    @given(expr=random_bell_expressions())
    @settings(max_examples=80, deadline=None)
    def test_parse_of_serialize_is_identity(self, expr):
        assert parse_expression(serialize_expression(expr)) == expr

    @given(
        coefficients=st.lists(
            st.fractions(min_value=-20, max_value=20), min_size=4, max_size=4
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_correlator_round_trip(self, coefficients):
        keys = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        expr = CorrelatorExpression(
            TRI, {k: c for k, c in zip(keys, coefficients) if c != 0}
        )
        if expr.term_count == 0:
            return  # an empty document parses to the probability form
        assert parse_expression(serialize_expression(expr)) == expr


class TestExpansionFormat:
    def test_round_trip(self, g_expr):
        expansion = expand_full_joint(g_expr)
        text = serialize_expansion(expansion)
        assert parse_expansion(text) == expansion

    @pytest.mark.parametrize(
        "text",
        [
            # 2^61 on 64 of 256 entries: the entries' magnitudes sum past 2^62
            # once parsed, though the one term's does not when computed
            "scenario 2 4 2\n+2305843009213693952 P(A0 B0 | 0 0)\n",
            # halves that add to integers on every assignment
            "scenario 1 2 2\n+1/2 E(A0)\n+1/2 E(A1)\n",
        ],
        ids=["past-int64-once-parsed", "integers-from-halves"],
    )
    def test_round_trip_across_representations(self, text):
        expansion = expand_full_joint(parse_expression(text))
        parsed = parse_expansion(serialize_expansion(expansion))
        assert (parsed.grid.dtype, parsed.scale) != (expansion.grid.dtype, expansion.scale)
        assert parsed == expansion

    def test_l_line_parsing(self):
        expansion = parse_expansion("scenario 3 2 2\n-4 L(010000)\n")
        assert expansion.coefficient(((0, 1), (0, 0), (0, 0))) == -4
        # unlisted assignments are zero-filled
        assert expansion.coefficient(((0, 0), (0, 0), (0, 0))) == 0
        assert expansion.grid.size == 64

    def test_l_digit_count_checked(self):
        with pytest.raises(ParseError, match="expected 6 outcome digits"):
            parse_expansion("scenario 3 2 2\n+1 L(00000)\n")

    def test_l_digit_range_checked(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_expansion("scenario 3 2 2\n+1 L(000002)\n")

    def test_expression_document_rejected(self):
        with pytest.raises(ParseError, match="parse_expression"):
            parse_expansion("scenario 3 2 2\n+1 P(A0 B0 C0 | 0 0 0)\n")

    def test_two_digit_outcome_labels_have_no_l_key(self):
        expr = parse_expression("scenario 1 2 12\n+1 P(A0 | 11)\n-1 P(A1 | 3)\n")
        with pytest.raises(UnsupportedScenarioError, match="labels 0-9"):
            serialize_expansion(expand_full_joint(expr))
        ten = Scenario.uniform(1, 2, 10)
        assert _assignment_keys(ten, [((9, 3),)]) == ["93"]
        # refused from the scenario, whichever labels the assignment holds
        with pytest.raises(UnsupportedScenarioError):
            _assignment_keys(Scenario.uniform(1, 2, 11), [((1, 3),)])

    def test_include_zeros_lists_every_assignment(self):
        expansion = parse_expansion("scenario 3 2 2\n+1 L(000000)\n")
        text = serialize_expansion(expansion, include_zeros=True)
        assert len(text.splitlines()) == 65
        sparse = serialize_expansion(expansion)
        assert len(sparse.splitlines()) == 2


# characters str.splitlines ends a line at besides LF, CR and CRLF; the text
# format reads each of them as whitespace
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def documents_with_other_breaks(draw):
    """(plain, broken): one ``scenario 3 2 2`` document twice, the second with
    characters of ``_OTHER_BREAKS`` in its comments and between its tokens.
    Some terms read setting 2 or a ``Q(...)`` key, so some documents fail."""
    gaps = st.text(" " + _OTHER_BREAKS, min_size=1, max_size=3)
    notes = st.text("ab #" + _OTHER_BREAKS, max_size=4)
    rows = [["scenario", "3", "2", "2"]]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            rows.append([])  # a comment line
            continue
        settings = draw(st.lists(st.integers(0, 1 + (draw(st.integers(0, 5)) == 0)),
                                 min_size=3, max_size=3))
        outcomes = draw(st.lists(st.integers(0, 1), min_size=3, max_size=3))
        kind = draw(st.sampled_from("PPPPQ"))
        tokens = [f"{letter}{s}" for letter, s in zip("ABC", settings)]
        tokens += ["|", *map(str, outcomes)]
        tokens[0], tokens[-1] = f"{kind}({tokens[0]}", f"{tokens[-1]})"
        rows.append([draw(st.sampled_from(["+1", "-2", "3/4"])), *tokens])
    plain, broken = [], []
    for row in rows:
        comment = draw(st.booleans()) or not row
        plain.append(" ".join(row) + (" # ab" if comment else ""))
        spaced = row[:1] + [draw(gaps) + token for token in row[1:]]
        note = f" #{draw(notes)}a{draw(notes)}" if comment else ""
        broken.append("".join(spaced) + note)
    return "\n".join(plain) + "\n", "\n".join(broken) + "\n"


def _parsed_or_line(text):
    """The expression a document parses to, or the line its error names."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateTermWarning)
            return parse_expression(text)
    except ParseError as exc:
        return exc.line


@given(documents=documents_with_other_breaks())
@settings(max_examples=150, deadline=None)
def test_only_lf_crlf_and_cr_end_a_line(documents):
    plain, broken = documents
    assert _parsed_or_line(broken) == _parsed_or_line(plain)
    crlf = broken.replace("\n", "\r\n")
    assert _parsed_or_line(crlf) == _parsed_or_line(crlf.replace("\r\n", "\r"))
    assert _parsed_or_line(crlf) == _parsed_or_line(plain)


def test_a_form_feed_between_tokens_is_whitespace():
    text = "scenario 3 2 2\n+1 P(A0 B0\f C0 | 0 0 0)\n"
    assert parse_expression(text) == parse_expression(text.replace("\f", ""))

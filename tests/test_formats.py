"""Round trips for every on-disk format the tools read and write."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liewords import automata as au
from liewords.bundled import get_word
from liewords.counting import (
    LinearRepresentation,
    counting_representation,
    minimize_representation,
    representation_from_text,
    representation_to_text,
)
from liewords.errors import FormatError, ToolError
from liewords.words import (
    dfao_to_text,
    morphism,
    morphism_to_text,
    parse_dfao,
    parse_morphism,
)


def test_morphism_format():
    m = morphism("012", {"0": "012", "1": "02", "2": "1"})
    text = morphism_to_text(m)
    assert text.splitlines()[0] == "alphabet: 0 1 2"
    assert parse_morphism(text) == m


def test_dfao_format():
    d = get_word("vtm").dfao
    text = dfao_to_text(d)
    assert text.splitlines()[0] == "base: 2"
    assert parse_dfao(text) == d
    assert dfao_to_text(parse_dfao(text)) == text


def test_multitrack_format():
    a = au.conjoin([au.add_predicate("i", "n", "z", 2), au.lt_predicate("i", "z", 2)])
    text = au.to_text(a)
    head = text.splitlines()
    assert head[0] == "base: 2"
    assert head[1] == "tracks: i n z"
    b = au.from_text(text)
    assert au.to_text(b) == text
    assert au.minimize(a) == au.minimize(b)


def test_linear_representation_format(tm_library):
    rep = minimize_representation(counting_representation(tm_library["lie"]))
    text = representation_to_text(rep)
    lines = text.splitlines()
    assert lines[0] == "base: 2"
    assert lines[1].startswith("dimension:")
    assert representation_from_text(text) == rep


MTDFA = au.to_text(au.lt_predicate("x", "y", 2))
LINREP = representation_to_text(
    LinearRepresentation(
        2,
        (Fraction(1), Fraction(-1, 2)),
        (
            ((Fraction(1), Fraction(0)), (Fraction(2, 3), Fraction(1))),
            ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(5))),
        ),
        (Fraction(3), Fraction(0)),
    )
)


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


MTDFA_ERRORS = [
    ("", "first line must declare 'base: k'"),
    ("base: 2\n", "line 1: second line must declare 'tracks: ...'"),
    (MTDFA[: MTDFA.index("0,1 -> 1")], "line 3: state 0 needs 4 transitions"),
    ("base: 2\ntracks: x\nstate 0\n0 -> 0\n", "line 3: state 0 needs 2 transitions"),
    (_edit(MTDFA, "base: 2", "base: two"), "line 1: expected an integer, got 'two'"),
    (_edit(MTDFA, "1,0 -> 2", "1,0 -> x"), "line 6: expected an integer, got 'x'"),
    (_edit(MTDFA, "state 1 accepting", "state one accepting"), "line 8: expected an integer, got 'one'"),
    (_edit(MTDFA, "1,0 -> 2", "1,2 -> 2"), "line 6: digit outside 0..1"),
    (_edit(MTDFA, "1,0 -> 2", "1 -> 2"), "line 6: expected 2 digits, got 1"),
    (_edit(MTDFA, "1,0 -> 2", "1,0 -> 3"), "line 6: transition to undeclared state 3"),
    (_edit(MTDFA, "1,0 -> 2", "0,0 -> 2"), "line 6: second transition for 0,0"),
    (_edit(MTDFA, "tracks: x y", "tracks: y x"), "line 2: tracks must be distinct and sorted"),
    (_edit(MTDFA, "state 1 accepting", "state 1 final"), "line 8: bad state line 'state 1 final'"),
    ("base: 2\ntracks: x\n", "line 1: no states declared"),
]


@pytest.mark.parametrize("text, message", MTDFA_ERRORS, ids=[m for _, m in MTDFA_ERRORS])
def test_multitrack_parse_errors_name_the_line(text, message):
    with pytest.raises(FormatError) as info:
        au.from_text(text)
    assert str(info.value) == message


LINREP_ERRORS = [
    ("", "input ends where 'base:' was expected"),
    (LINREP[: LINREP.index("w:")], "line 9: input ends where 'w:' was expected"),
    (LINREP[: LINREP.index("matrix 1:")], "line 6: input ends where 'matrix 1:' was expected"),
    (_edit(LINREP, "dimension: 2", "dimension: 2.5"), "line 2: expected an integer, got '2.5'"),
    (_edit(LINREP, "v: 1 -1/2", "v: 1 -1/x"), "line 3: entries must be rationals p/q, got '1 -1/x'"),
    (_edit(LINREP, "v: 1 -1/2", "v: 1 1/0"), "line 3: entries must be rationals p/q, got '1 1/0'"),
    (_edit(LINREP, "v: 1 -1/2", "v: 1"), "line 3: expected 2 entries, got 1"),
    (_edit(LINREP, "  0 1", "  0 1 7"), "line 8: expected 2 entries, got 3"),
    (_edit(LINREP, "matrix 1:", "matrix 2:"), "line 7: expected 'matrix 1:'"),
    (LINREP + "w: 1 1\n", "line 11: unexpected line after 'w:'"),
]


@pytest.mark.parametrize("text, message", LINREP_ERRORS, ids=[m for _, m in LINREP_ERRORS])
def test_linear_representation_parse_errors_name_the_line(text, message):
    with pytest.raises(FormatError) as info:
        representation_from_text(text)
    assert str(info.value) == message


TOKENS = ["0", "1", "2", "3", "-1", "x", "1/2", "1/0", ",", "->", ":", "state", "accepting", "matrix", ""]


@st.composite
def _mutations(draw, text):
    """text with a few random edits: lines deleted, duplicated or swapped,
    tokens replaced, or the text cut short."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "token", "cut"]))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            parts = lines[i].split(" ")
            k = draw(st.integers(min_value=0, max_value=len(parts) - 1))
            parts[k] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(parts)
        else:
            lines[i] = lines[i][: draw(st.integers(min_value=0, max_value=len(lines[i])))]
            del lines[i + 1 :]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@given(_mutations(MTDFA))
def test_mutated_multitrack_text_parses_or_raises(text):
    try:
        a = au.from_text(text)
    except ToolError:
        return
    assert au.from_text(au.to_text(a)) == a


@given(_mutations(LINREP))
def test_mutated_linear_representation_parses_or_raises(text):
    try:
        r = representation_from_text(text)
    except ToolError:
        return
    assert representation_from_text(representation_to_text(r)) == r

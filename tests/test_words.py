import hashlib
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liewords.bundled import get_word
from liewords.errors import (
    FormatError,
    NotProlongable,
    ToolError,
    UnknownLetter,
    WindowExceeded,
)
from liewords.words import (
    Morphism,
    WordGenerator,
    dfao_eval,
    digits_msd,
    dfao_to_text,
    fixed_point_prefix,
    morphism,
    morphism_to_text,
    parse_dfao,
    parse_morphism,
    saturation_window,
)


def test_morphism_apply():
    m = morphism("01", {"0": "01", "1": "10"})
    assert m.apply("0") == "01"
    assert m.apply("011") == "011010"
    assert m.is_prolongable_on("0")
    assert m.is_prolongable_on("1")


def test_morphism_validates_rules():
    with pytest.raises(UnknownLetter):
        Morphism(("0", "1"), (("0", "01"),))
    with pytest.raises(UnknownLetter):
        morphism("01", {"0": "01", "1": "12"})
    with pytest.raises(UnknownLetter):
        morphism("00", {"0": "0"})


def test_fixed_point_prefix_thue_morse():
    m = morphism("01", {"0": "01", "1": "10"})
    assert fixed_point_prefix(m, "0", 16).letters == "0110100110010110"


def test_fixed_point_needs_prolongable_seed():
    m = morphism("01", {"0": "10", "1": "0"})
    with pytest.raises(NotProlongable):
        fixed_point_prefix(m, "0", 8)
    with pytest.raises(UnknownLetter):
        fixed_point_prefix(m, "x", 8)


def test_digits_msd():
    assert digits_msd(0, 2) == []
    assert digits_msd(13, 2) == [1, 1, 0, 1]
    assert digits_msd(13, 3) == [1, 1, 1]


@given(st.integers(min_value=0, max_value=4096))
def test_thue_morse_dfao_is_bit_parity(n):
    d = get_word("thue-morse").dfao
    assert dfao_eval(d, n) == str(bin(n).count("1") % 2)


@given(st.integers(min_value=0, max_value=2000))
def test_dfao_matches_morphic_prefix(n):
    word = get_word("vtm")
    assert dfao_eval(word.dfao, n) == word.prefix(n + 1).letters[n]


def test_generator_prefix_is_consistent():
    fib = get_word("fibonacci")
    short = fib.prefix(30).letters
    long = fib.prefix(200).letters
    assert long.startswith(short)
    assert long.startswith("010010100100101001010")


def test_prefix_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("LIEWORDS_CACHE_DIR", str(tmp_path))
    m = morphism("01", {"0": "01", "1": "10"})
    a = WordGenerator("cache-probe", morphism=m, seed="0")
    text = a.prefix(64).letters
    files = os.listdir(tmp_path)
    digest = hashlib.sha256(a.definition().encode()).hexdigest()
    assert files == ["%s-64.txt" % digest]
    b = WordGenerator("cache-probe", morphism=m, seed="0")
    assert b.prefix(64).letters == text


def test_prefix_cache_is_keyed_by_rules_not_name(tmp_path, monkeypatch):
    monkeypatch.setenv("LIEWORDS_CACHE_DIR", str(tmp_path))
    fib = morphism("01", {"0": "01", "1": "0"})
    tm = morphism("01", {"0": "01", "1": "10"})
    WordGenerator("w.rules", morphism=fib, seed="0").prefix(64)
    swapped = WordGenerator("w.rules", morphism=tm, seed="0").prefix(64).letters
    assert swapped == fixed_point_prefix(tm, "0", 64).letters
    coded = WordGenerator("w.rules", morphism=tm, seed="0", coding={"0": "a", "1": "b"})
    assert coded.prefix(64).letters == swapped.translate(str.maketrans("01", "ab"))
    assert len(os.listdir(tmp_path)) == 3


def test_saturation_window_stabilizes():
    tm = get_word("thue-morse")
    w, certified = saturation_window(tm, 12)
    assert certified
    small = tm.prefix(w).letters
    big = tm.prefix(2 * w).letters
    blocks = lambda s: {s[i : i + 12] for i in range(len(s) - 11)}
    assert blocks(small) == blocks(big)


def test_saturation_window_respects_cap():
    tm = get_word("thue-morse")
    with pytest.raises(WindowExceeded):
        saturation_window(tm, 12, start=4, cap=8)


def test_cantor_generator_is_heuristic():
    cantor = get_word("cantor")
    _, certified = saturation_window(cantor, 6)
    assert not certified


def test_morphism_text_round_trip():
    m = morphism("abc", {"a": "ab", "b": "ca", "c": "bb"})
    again = parse_morphism(morphism_to_text(m))
    assert again == m


def test_parse_morphism_requires_header():
    with pytest.raises(ValueError):
        parse_morphism("0 -> 01\n1 -> 10\n")


def test_dfao_text_round_trip():
    d = get_word("twelve").dfao
    again = parse_dfao(dfao_to_text(d))
    assert again == d
    for n in range(50):
        assert dfao_eval(again, n) == dfao_eval(d, n)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_morphism, "alphabet: 0 1\n0 -> 01\n", "line 1: no rule for letter '1'"),
        (parse_morphism, "alphabet: 0 1\n0 -> 01\n2 -> 0\n", "line 3: rule for undeclared letter '2'"),
        (parse_morphism, "alphabet: 0 1\n0 -> 01\n1 -> 0\n0 -> 10\n", "line 4: second rule for letter '0'"),
        (parse_dfao, "base: x\n", "line 1: expected an integer, got 'x'"),
        (parse_dfao, "base: 1\nstate 0 output a\n0 -> 0\n", "line 1: base must be at least 2"),
        (parse_dfao, "base: 2\n\n0 -> 0\n", "line 3: transition before any state: '0 -> 0'"),
        (parse_dfao, "base: 2\nstate 0 output a\n0 -> 0\n1 -> 1\n", "line 4: transition to undeclared state 1"),
        (parse_dfao, "base: 2\nstate 0 output a\n0 -> 0\n", "line 2: state 0 needs one transition per digit"),
        (parse_dfao, "base: 2\nstate 0 a\n", "line 2: bad state line 'state 0 a'"),
    ],
)
def test_parse_errors_name_the_line(parse, text, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == message
    assert isinstance(info.value, ToolError) and isinstance(info.value, ValueError)

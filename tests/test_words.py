import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from liewords.bundled import get_word
from liewords.complexity import complexity_table
from liewords.errors import (
    FormatError,
    NotProlongable,
    ToolError,
    UnknownLetter,
    WindowExceeded,
    WindowTooSmall,
)
from liewords.words import (
    Dfao,
    Morphism,
    WordGenerator,
    dfao_eval,
    dfao_morphism,
    dfao_prefix,
    digits_msd,
    dfao_to_text,
    exact_factors,
    factor_blocks,
    fixed_point_prefix,
    growing_letters,
    morphism,
    morphism_to_text,
    parse_dfao,
    parse_morphism,
    saturation_window,
    two_factor_closure,
)

from oracles import blocks, closure_in_rounds, growing_by_lengths, provable_prefix_length


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


def test_prefix_cache_round_trip():
    m = morphism("01", {"0": "01", "1": "10"})
    a = WordGenerator("cache-probe", morphism=m, seed="0")
    text = a.prefix(64).letters
    assert a.prefix(16).letters == text[:16]
    assert a.prefix(64).letters == text
    b = WordGenerator("cache-probe", morphism=m, seed="0")
    assert b.prefix(64).letters == text


def test_prefix_cache_is_keyed_by_rules_not_name():
    fib = morphism("01", {"0": "01", "1": "0"})
    tm = morphism("01", {"0": "01", "1": "10"})
    WordGenerator("w.rules", morphism=fib, seed="0").prefix(64)
    swapped = WordGenerator("w.rules", morphism=tm, seed="0").prefix(64).letters
    assert swapped == fixed_point_prefix(tm, "0", 64).letters
    coded = WordGenerator("w.rules", morphism=tm, seed="0", coding={"0": "a", "1": "b"})
    assert coded.prefix(64).letters == swapped.translate(str.maketrans("01", "ab"))


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
        (parse_dfao, "base: 2\nstate 0 output a\n0 -> 0\n0 -> 0\n", "line 4: second transition for 0"),
        (parse_dfao, "base: 2\nstate 0 output a\nstate 0 output b\n", "line 3: state 0 declared twice"),
    ],
)
def test_parse_errors_name_the_line(parse, text, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == message
    assert isinstance(info.value, ToolError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "rules, growing",
    [
        ({"a": "ab", "b": "b"}, "a"),
        ({"a": "aab", "b": "b"}, "a"),
        ({"a": "b", "b": "ac", "c": "c"}, "ab"),
        ({"0": "01", "1": "0"}, "01"),
    ],
)
def test_growing_letters_on_the_letter_graph(rules, growing):
    assert growing_letters(morphism("".join(rules), rules)) == frozenset(growing)


@st.composite
def _morphisms(draw):
    """Rules on 2-4 letters, prolongable on a, with images of length 1-3."""
    letters = "abcd"[: draw(st.integers(min_value=2, max_value=4))]
    rules = {c: draw(st.text(alphabet=letters, min_size=1, max_size=3)) for c in letters}
    rules["a"] = "a" + draw(st.text(alphabet=letters, min_size=1, max_size=2))
    return rules


@given(_morphisms())
def test_growing_letters_match_image_lengths(rules):
    m = morphism("".join(rules), rules)
    assert growing_letters(m) == growing_by_lengths(rules)


@given(_morphisms(), st.booleans())
def test_exact_factors_equal_blocks_of_a_provable_prefix(rules, coded):
    m = morphism("".join(rules), rules)
    pairs, _ = closure_in_rounds(rules, "a")
    assume({c for ab in pairs for c in ab} <= growing_by_lengths(rules))
    max_n = 10
    length = provable_prefix_length(rules, "a", max_n)
    assume(length <= 1 << 17)
    coding = {"a": "0", "b": "1", "c": "0", "d": "1"} if coded else None
    gen = WordGenerator("h", morphism=m, seed="a", coding=coding)
    assert two_factor_closure(m, "a") == pairs
    prefix = gen.prefix(length).letters
    for n in range(max_n + 1):
        assert exact_factors(gen, n) == blocks(prefix, n), n


def _dfao_cases():
    return [get_word(name).dfao for name in ("thue-morse", "vtm", "cantor", "twelve")] + [
        # the initial state is left on digit 0, so leading zeros would matter
        Dfao(
            base=2,
            transitions=((1, 2), (2, 0), (1, 1)),
            outputs=("a", "b", "c"),
            letters=("a", "b", "c"),
        )
    ]


def _dfao_rules(d):
    m, seed, _ = dfao_morphism(d)
    return m.rule_map, seed


@pytest.mark.parametrize("d", _dfao_cases())
def test_dfao_words_take_the_exact_path(d):
    rules, seed = _dfao_rules(d)
    length = provable_prefix_length(rules, seed, 10)
    prefix = dfao_prefix(d, length).letters
    gen = WordGenerator("dfao", dfao=d)
    for n in range(11):
        members, window = factor_blocks(gen, n, start=4, cap=8)
        assert window == 0
        assert members == blocks(prefix, n), n


@st.composite
def _dfaos(draw):
    base = draw(st.integers(min_value=2, max_value=3))
    states = draw(st.integers(min_value=1, max_value=4))
    transitions = tuple(
        tuple(draw(st.integers(0, states - 1)) for _ in range(base)) for _ in range(states)
    )
    outputs = tuple(draw(st.sampled_from("xy")) for _ in range(states))
    return Dfao(base, transitions, outputs, ("x", "y"))


@given(_dfaos())
def test_exact_factors_of_random_dfaos(d):
    rules, seed = _dfao_rules(d)
    length = provable_prefix_length(rules, seed, 8)
    assume(length <= 1 << 14)
    prefix = dfao_prefix(d, length).letters
    gen = WordGenerator("dfao", dfao=d)
    for n in range(9):
        assert exact_factors(gen, n) == blocks(prefix, n), n


def test_non_growing_letter_takes_the_window_fallback():
    gen = WordGenerator("runs", morphism=morphism("ab", {"a": "aab", "b": "b"}), seed="a")
    members, window = factor_blocks(gen, 3)
    assert window >= 1024
    assert members == blocks(gen.prefix(window).letters, 3)
    with pytest.raises(WindowExceeded):
        factor_blocks(gen, 6, start=4, cap=8)
    with pytest.raises(ToolError, match="does not grow"):
        exact_factors(gen, 3)


def test_exact_factors_refuse_past_the_letter_budget():
    tm = WordGenerator("tm", morphism=morphism("01", {"0": "01", "1": "10"}), seed="0")
    with pytest.raises(WindowExceeded, match="letter budget of 33554432 letters"):
        exact_factors(tm, 1 << 26)
    assert exact_factors(tm, 3) == {"001", "010", "011", "100", "101", "110"}


def _no_prefix(length):
    raise AssertionError("a prefix was built")


@pytest.mark.parametrize("growing", [True, False])
def test_window_schedule_is_checked_before_any_prefix(growing):
    rules = {"0": "01", "1": "10"} if growing else {"0": "001", "1": "1"}
    gen = WordGenerator("w", morphism=morphism("01", rules), seed="0")
    gen.prefix = _no_prefix
    with pytest.raises(WindowTooSmall, match="got -4"):
        factor_blocks(gen, 3, start=-4)
    for call in (factor_blocks, saturation_window):
        with pytest.raises(WindowExceeded, match="window cap 32 is below the window start 64"):
            call(gen, 3, start=64, cap=32)


def test_window_past_the_cap_is_not_reported_as_read():
    gen = WordGenerator("runs", morphism=morphism("ab", {"a": "aab", "b": "b"}), seed="a")
    gen.prefix = _no_prefix
    with pytest.raises(WindowExceeded, match="length 20 needs a window of 32, past the window cap 16"):
        factor_blocks(gen, 20, start=4, cap=16)


@pytest.mark.parametrize("start", [0, -4])
def test_window_schedule_refuses_a_start_below_one(start):
    gen = WordGenerator("runs", morphism=morphism("ab", {"a": "aab", "b": "b"}), seed="a")
    with pytest.raises(WindowTooSmall):
        factor_blocks(gen, 3, start=start)
    with pytest.raises(WindowTooSmall):
        saturation_window(gen, 3, start=start)
    # a start of 0 is passed on, not read as "not given"
    with pytest.raises(WindowTooSmall):
        complexity_table(gen, [3], start=start)

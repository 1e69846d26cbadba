import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from liewords.bundled import get_word
from liewords.complexity import complexity_table
from liewords import words
from liewords.errors import (
    FormatError,
    NotProlongable,
    ToolError,
    UnknownLetter,
    WindowExceeded,
)
from liewords.words import (
    Dfao,
    _MorphicWord,
    _exact_spans,
    _span_blocks,
    Morphism,
    WordGenerator,
    dfao_eval,
    dfao_morphism,
    digits_msd,
    dfao_to_text,
    exact_factors,
    factor_spans,
    fixed_point_prefix,
    growing_letters,
    is_primitive_morphism,
    morphism,
    morphism_to_text,
    parse_dfao,
    parse_morphism,
    saturation_window,
)

from oracles import (
    blocks,
    closure_in_rounds,
    dfao_prefix,
    growing_by_cycles,
    primitive_by_matrix_powers,
    provable_prefix_length,
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
    assert fixed_point_prefix(m, "0", 16) == "0110100110010110"


def test_fixed_point_needs_prolongable_seed():
    m = morphism("01", {"0": "10", "1": "0"})
    with pytest.raises(NotProlongable):
        fixed_point_prefix(m, "0", 8)
    with pytest.raises(UnknownLetter):
        fixed_point_prefix(m, "x", 8)


def test_the_default_seed_is_the_first_prolongable_letter():
    assert WordGenerator("w", morphism=morphism("ab", {"a": "b", "b": "ba"})).seed == "b"
    with pytest.raises(NotProlongable, match="not prolongable on any letter"):
        WordGenerator("w", morphism=morphism("01", {"0": "10", "1": "0"}))


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
    assert dfao_eval(word.dfao, n) == word.prefix(n + 1)[n]


def test_generator_prefix_is_consistent():
    fib = get_word("fibonacci")
    short = fib.prefix(30)
    long = fib.prefix(200)
    assert long.startswith(short)
    assert long.startswith("010010100100101001010")


def test_prefix_cache_round_trip():
    m = morphism("01", {"0": "01", "1": "10"})
    a = WordGenerator("cache-probe", morphism=m, seed="0")
    text = a.prefix(64)
    assert a.prefix(16) == text[:16]
    assert a.prefix(64) == text
    b = WordGenerator("cache-probe", morphism=m, seed="0")
    assert b.prefix(64) == text


def test_prefix_cache_is_keyed_by_rules_not_name():
    fib = morphism("01", {"0": "01", "1": "0"})
    tm = morphism("01", {"0": "01", "1": "10"})
    WordGenerator("w.rules", morphism=fib, seed="0").prefix(64)
    swapped = WordGenerator("w.rules", morphism=tm, seed="0").prefix(64)
    assert swapped == fixed_point_prefix(tm, "0", 64)
    coded = WordGenerator("w.rules", morphism=tm, seed="0", coding={"0": "a", "1": "b"})
    assert coded.prefix(64) == swapped.translate(str.maketrans("01", "ab"))


def test_coded_letters_are_single_characters():
    tm = morphism("01", {"0": "01", "1": "10"})
    with pytest.raises(UnknownLetter, match="got 'ab'"):
        WordGenerator("w", morphism=tm, seed="0", coding={"0": "ab", "1": "c"})
    # a DFAO may output a longer string; its word may not
    d = Dfao(2, ((0, 1), (1, 0)), ("ab", "c"), ("ab", "c"))
    with pytest.raises(UnknownLetter, match="got 'ab'"):
        WordGenerator("w", dfao=d)


def test_saturation_window_stabilizes():
    tm = get_word("thue-morse")
    w, certified = saturation_window(tm, 12)
    assert certified
    small = tm.prefix(w)
    big = tm.prefix(2 * w)
    blocks = lambda s: {s[i : i + 12] for i in range(len(s) - 11)}
    assert blocks(small) == blocks(big)


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
        # gains a letter only every second step, on a cycle through all letters
        ({"a": "bb", "b": "a"}, "ab"),
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


@st.composite
def _rule_sets(draw, alphabet="abcd"):
    """Rules on 1 to len(alphabet) letters with images of length 1-3,
    prolongable or not."""
    letters = alphabet[: draw(st.integers(min_value=1, max_value=len(alphabet)))]
    return {c: draw(st.text(alphabet=letters, min_size=1, max_size=3)) for c in letters}


@given(_rule_sets())
def test_growing_letters_match_the_cycle_oracle(rules):
    m = morphism("".join(rules), rules)
    assert growing_letters(m) == growing_by_cycles(rules)


@given(_rule_sets("abcde"))
def test_primitivity_matches_the_matrix_power_oracle(rules):
    m = morphism("".join(rules), rules)
    assert is_primitive_morphism(m) == primitive_by_matrix_powers(rules)


@given(_morphisms(), st.booleans())
def test_exact_factors_equal_blocks_of_a_provable_prefix(rules, coded):
    m = morphism("".join(rules), rules)
    pairs, _ = closure_in_rounds(rules, "a")
    assume({c for ab in pairs for c in ab} <= growing_by_cycles(rules))
    max_n = 10
    length = provable_prefix_length(rules, "a", max_n)
    assume(length <= 1 << 17)
    coding = {"a": "0", "b": "1", "c": "0", "d": "1"} if coded else None
    gen = WordGenerator("h", morphism=m, seed="a", coding=coding)
    assert set(gen._morphic_word().pairs) == pairs
    prefix = gen.prefix(length)
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
    prefix = dfao_prefix(d, length)
    gen = WordGenerator("dfao", dfao=d)
    assert gen._morphic_word().growing
    for n in range(11):
        assert exact_factors(gen, n) == blocks(prefix, n), n


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
    prefix = dfao_prefix(d, length)
    gen = WordGenerator("dfao", dfao=d)
    assert gen.prefix(length) == prefix
    for n in range(9):
        assert exact_factors(gen, n) == blocks(prefix, n), n


_RUNS = morphism("ab", {"a": "aab", "b": "b"})


def test_non_growing_letter_takes_the_closure():
    gen = WordGenerator("runs", morphism=_RUNS, seed="a")
    assert not gen._morphic_word().growing
    spans = factor_spans(gen, 3)
    assert {starts for _, starts in spans} == {1}
    assert exact_factors(gen, 3) == blocks(gen.prefix(1 << 16), 3)


def test_closure_mends_the_doubling_window_rows():
    gen = WordGenerator("runs3", morphism=morphism("ab", {"a": "aaab", "b": "b"}), seed="a")
    assert [len(exact_factors(gen, n)) for n in (7, 8, 9)] == [25, 32, 40]
    assert [row.p for row in complexity_table(gen, range(7, 10))] == [25, 32, 40]


def test_exact_factors_refuse_past_the_letter_budget():
    tm = WordGenerator("tm", morphism=morphism("01", {"0": "01", "1": "10"}), seed="0")
    with pytest.raises(WindowExceeded, match="letter budget of 33554432 letters"):
        exact_factors(tm, 1 << 26)
    assert exact_factors(tm, 3) == {"001", "010", "011", "100", "101", "110"}


def test_closure_refuses_past_the_letter_budget(monkeypatch):
    gen = WordGenerator("runs", morphism=_RUNS, seed="a")
    monkeypatch.setattr(words, "LETTER_BUDGET", 100)
    # 13 factors of length 5 hold 65 letters, 17 of length 6 hold 102
    assert len(exact_factors(gen, 5)) == 13
    with pytest.raises(WindowExceeded, match="length 6 holds more than the letter budget of 100"):
        exact_factors(gen, 6)
    with pytest.raises(WindowExceeded, match="length 101 holds more"):
        exact_factors(gen, 101)


def test_saturation_window_refuses_past_the_letter_budget(monkeypatch):
    tm = WordGenerator("tm", morphism=morphism("01", {"0": "01", "1": "10"}), seed="0")
    assert saturation_window(tm, 3) == (8, True)
    # the images for length 3 hold 6 letters, the prefix 8
    monkeypatch.setattr(words, "LETTER_BUDGET", 7)
    with pytest.raises(WindowExceeded, match="within the letter budget of 7 letters"):
        saturation_window(tm, 3)



def test_prefix_refuses_past_the_letter_budget(monkeypatch):
    tm = WordGenerator("tm", morphism=morphism("01", {"0": "01", "1": "10"}), seed="0")
    with pytest.raises(WindowExceeded, match="prefix of 4000000000 letters is past the letter budget"):
        tm.prefix(4_000_000_000)
    monkeypatch.setattr(words, "LETTER_BUDGET", 8)
    assert tm.prefix(8) == "01101001"
    with pytest.raises(WindowExceeded, match="prefix of 9 letters is past the letter budget of 8"):
        tm.prefix(9)

@st.composite
def _non_growing_morphisms(draw):
    """Rules on 2-3 letters, prolongable on a, with images of length 1-3,
    and a letter of the word that does not grow."""
    letters = "abc"[: draw(st.integers(min_value=2, max_value=3))]
    rules = {c: draw(st.text(alphabet=letters, min_size=1, max_size=3)) for c in letters}
    rules["a"] = "a" + draw(st.text(alphabet=letters, min_size=1, max_size=2))
    pairs, _ = closure_in_rounds(rules, "a")
    assume(not {c for ab in pairs for c in ab} <= growing_by_cycles(rules))
    return rules


def _fixed_point_blocks(rules, n, want, cap=1 << 22):
    """Length-n blocks of sigma^k(a), cut at `cap` letters, for the least
    k whose blocks hold `want` (or the last k tried).  Blocks of a prefix
    are factors, so a non-factor in `want` never stops this early.  A cut
    at 2^16 letters is not always enough: ccccca, a factor of the fixed
    point of a -> abc, b -> bba, c -> c, first occurs past it."""
    s = "a"
    for _ in range(400):
        found = blocks(s, n)
        if found >= want or len(s) >= cap:
            break
        s = "".join([rules[c] for c in s[:cap]])[:cap]
    return found


@given(_non_growing_morphisms(), st.booleans())
def test_closure_equals_blocks_of_fixed_point_prefixes(rules, coded):
    coding = {"a": "0", "b": "1", "c": "0"} if coded else None
    gen = WordGenerator("h", morphism=morphism("".join(rules), rules), seed="a", coding=coding)
    word = gen._morphic_word()
    for n in range(1, 7):
        members = word.closure(n)
        assert members == _fixed_point_blocks(rules, n, members), n
        if coded:
            members = {v.translate(word.table) for v in members}
        assert exact_factors(gen, n) == members, n


_BUNDLED = ("thue-morse", "vtm", "cantor", "fibonacci", "tribonacci", "twelve")


@pytest.mark.parametrize("name", _BUNDLED)
def test_closure_equals_the_growing_path_on_bundled_words(name):
    gen = get_word(name)
    word = _MorphicWord(gen.morphism, gen.seed, gen.coding)
    assert word.growing
    for n in range(1, 101):
        members = word.closure(n)
        if word.table is not None:
            members = {v.translate(word.table) for v in members}
        assert members == exact_factors(gen, n), n


def _pair_spans(word, n):
    """One span (sigma^m(a) + sigma^m(b)[:n-1], |sigma^m(a)|) per 2-factor
    ab, coded: each image interior read once per 2-factor it begins."""
    images = word.images_for(n)
    spans = [(images[a] + images[b][: n - 1], len(images[a])) for a, b in word.pairs]
    if word.table is not None:
        spans = [(s.translate(word.table), starts) for s, starts in spans]
    return spans


@pytest.mark.parametrize("name", _BUNDLED)
def test_exact_spans_read_each_image_interior_once(name):
    word = get_word(name)._morphic_word()
    for n in range(1, 101):
        images = word.images_for(n)
        spans = _exact_spans(word, n)
        interiors = sum(max(0, len(images[a]) - n + 1) for a in word.letters)
        crossings = sum(min(len(images[a]), n - 1) for a, _ in word.pairs)
        assert sum(starts for _, starts in spans) == interiors + crossings, n
        assert _span_blocks(spans, n) == _span_blocks(_pair_spans(word, n), n), n


def test_an_image_of_n_minus_one_letters_has_no_interior_span():
    # at n = 90 fibonacci's images are sigma^m(0), 144 letters, and
    # sigma^m(1), 89 letters: no block of length 90 fits inside the latter
    word = get_word("fibonacci")._morphic_word()
    images = word.images_for(90)
    assert (len(images["0"]), len(images["1"])) == (144, 89)
    spans = _exact_spans(word, 90)
    assert [span for span in spans if span[0] in images.values()] == [(images["0"], 55)]
    assert [starts for _, starts in spans] == [55] + [89] * len(word.pairs)
    assert len(_span_blocks(spans, 90)) == 91

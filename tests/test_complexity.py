import ast
import json
import random
from collections import Counter
from functools import lru_cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liewords
from liewords import complexity
from liewords.bundled import get_word
from liewords.complexity import (
    FactorSet,
    _parikh_codes,
    _rotation_invariant,
    abelian_complexity,
    complexity_table,
    cyclic_complexity,
    factor_set,
    first_difference_margin,
    least_rotation,
    lie_complexity,
    rows_to_json,
    rows_to_tsv,
    saturated_factor_set,
    unbounded_exponent_scan,
)
from liewords.errors import EmptyWord, InvalidParameter, UncertifiedData
from liewords.words import WordGenerator, exact_factors, morphism, saturation_window

from oracles import (
    blocks,
    booth_counts,
    booth_least_rotation,
    naive_abelian_count,
    naive_cyclic_count,
    naive_lie_count,
    provable_prefix_length,
    sam_lie_counts,
)


# splits that force each path: every code crowded, so every head takes the
# invariant first; and no code crowded, so heads take substring tests only
_EVERY_CODE, _NO_CODE = 0, 10**9


def test_factor_set_by_hand():
    fs = factor_set("0110", 2)
    assert fs.members == {"01", "11", "10"}
    assert fs.n == 2 and not fs.certified


def test_least_rotation_examples():
    assert least_rotation("bca") == "abc"
    assert least_rotation("10") == "01"
    assert least_rotation("0101") == "0101"
    with pytest.raises(EmptyWord):
        least_rotation("")


@given(st.text(alphabet="012", min_size=1, max_size=12))
def test_least_rotation_is_minimum_of_orbit(v):
    rotations = {v[t:] + v[:t] for t in range(len(v))}
    assert least_rotation(v) == min(rotations)


@st.composite
def _rotation_words(draw):
    """Words up to length 300 over abc: random, powers u^k, near-powers
    u^k x, and concatenations of long single-letter runs."""
    kind = draw(st.sampled_from(("random", "power", "near-power", "runs")))
    if kind == "random":
        return draw(st.text(alphabet="abc", min_size=1, max_size=300))
    if kind == "runs":
        runs = draw(
            st.lists(
                st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=120)),
                min_size=1,
                max_size=8,
            )
        )
        return "".join(c * r for c, r in runs)[:300]
    x = draw(st.text(alphabet="abc", min_size=1, max_size=3)) if kind == "near-power" else ""
    u = draw(st.text(alphabet="abc", min_size=1, max_size=12))
    k = draw(st.integers(min_value=1, max_value=(300 - len(x)) // len(u)))
    return u * k + x


def _orbit(v):
    return [v[t:] + v[:t] for t in range(len(v))]


@given(_rotation_words())
def test_least_rotation_matches_booth_oracle(v):
    got = least_rotation(v)
    assert got == booth_least_rotation(v)
    assert got == min(_orbit(v))


def test_least_rotation_on_long_runs_and_powers():
    for v in (
        "a" * 20000,
        "ab" * 10000,
        "a" * 9999 + "b",
        "ab" * 5000 + "c",
        ("a" * 50 + "b") * 200,
    ):
        assert least_rotation(v) == booth_least_rotation(v)


def test_counts_on_periodic_window():
    fs = factor_set("0101010101", 2)
    assert lie_complexity(fs) == 1
    assert cyclic_complexity(fs) == 1
    assert abelian_complexity(fs) == 1


def test_counts_on_thue_morse_row_two():
    fs = saturated_factor_set(get_word("thue-morse"), 2)
    assert len(fs.members) == 4
    assert lie_complexity(fs) == 3
    assert cyclic_complexity(fs) == 3
    assert abelian_complexity(fs) == 3


def test_length_zero_class_counts_once():
    fs = factor_set("0110", 0)
    assert lie_complexity(fs) == 1
    assert cyclic_complexity(fs) == 1
    assert abelian_complexity(fs) == 1


def test_complexity_table_thue_morse_head():
    rows = complexity_table(get_word("thue-morse"), range(0, 5))
    got = [(r.n, r.p, r.c, r.a, r.L) for r in rows]
    assert got == [
        (0, 1, 1, 1, 1),
        (1, 2, 2, 2, 2),
        (2, 4, 3, 3, 3),
        (3, 6, 2, 2, 2),
        (4, 10, 4, 3, 2),
    ]
    assert all(r.certified for r in rows)


@given(st.integers(min_value=1, max_value=40))
def test_lie_count_matches_naive_oracle(n):
    tm = get_word("thue-morse")
    fs = saturated_factor_set(tm, n)
    window = tm.prefix(saturation_window(tm, n)[0])
    assert lie_complexity(fs) == naive_lie_count(window, n)


# random ternary strings, and powers of short blocks with a random tail,
# so that periodic factors such as 0101 are common
_ternary = st.text(alphabet="012", max_size=40)
_periodic = st.builds(
    lambda block, reps, tail: (block * reps + tail)[:40],
    st.text(alphabet="012", min_size=1, max_size=4),
    st.integers(min_value=2, max_value=20),
    st.text(alphabet="012", max_size=8),
)


# binary strings put their factors in a few big Parikh buckets; strings
# over 8 to 12 letters leave almost every bucket a single factor; a
# one-letter power is a single factor whose class is whole
_binary = st.text(alphabet="01", max_size=60)
_wide = st.integers(min_value=8, max_value=12).flatmap(
    lambda k: st.text(alphabet="abcdefghijkl"[:k], max_size=60)
)
_letter_powers = st.builds(
    lambda c, k: c * k, st.sampled_from("abc"), st.integers(min_value=1, max_value=40)
)
_counted = st.one_of(_ternary, _periodic, _binary, _wide, _letter_powers)


@given(_counted, st.data())
def test_class_counts_match_naive_orbits(s, data):
    n = data.draw(st.integers(min_value=0, max_value=min(12, len(s))))
    fs = factor_set(s, n)
    assert lie_complexity(fs) == naive_lie_count(s, n)
    assert cyclic_complexity(fs) == naive_cyclic_count(s, n)


@given(_counted, st.data())
def test_abelian_count_matches_counter_oracle(s, data):
    n = data.draw(st.integers(min_value=0, max_value=len(s)))
    assert abelian_complexity(factor_set(s, n)) == naive_abelian_count(s, n)


@st.composite
def _rotation_subsets(draw):
    """A length n and a set of length-n words: random subsets of the
    rotations of a few words over 1 to 3 letters, among them random words,
    periodic words such as (ab)^k and letter powers.  Of each word's
    rotations all are taken, or a run of consecutive ones, or any."""
    n = draw(st.integers(min_value=1, max_value=12))
    alphabet = "abc"[: draw(st.integers(min_value=1, max_value=3))]
    members = set()
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("random", "periodic", "letter-power")))
        if kind == "random":
            w = draw(st.text(alphabet=alphabet, min_size=n, max_size=n))
        elif kind == "periodic":
            w = (draw(st.text(alphabet=alphabet, min_size=1, max_size=3)) * n)[:n]
        else:
            w = draw(st.sampled_from(alphabet)) * n
        orbit = [w[t:] + w[:t] for t in range(n)]
        take = draw(st.sampled_from(("all", "arc", "any")))
        if take == "all":
            members.update(orbit)
        elif take == "arc":
            # consecutive rotations, one path of rotate-by-one
            i = draw(st.integers(min_value=0, max_value=n - 1))
            members.update((orbit * 2)[i : i + draw(st.integers(min_value=1, max_value=n))])
        else:
            members |= draw(st.sets(st.sampled_from(orbit), min_size=1))
    return n, frozenset(members)


@settings(max_examples=400)
@given(_rotation_subsets())
def test_arc_counts_match_booth_counts(case):
    n, members = case
    fs = FactorSet(n, members, True)
    _, c, a, L = booth_counts(members, n)
    assert lie_complexity(fs) == L
    assert abelian_complexity(fs) == a
    for split in (complexity._CROWDED_HEADS, _EVERY_CODE, _NO_CODE):
        with mock.patch.object(complexity, "_CROWDED_HEADS", split):
            assert cyclic_complexity(fs) == c


@pytest.mark.parametrize(
    "members, c, L",
    [
        # one class, cut into the arcs 0011 and 1100 by the missing 0110, 1001
        ({"0011", "1100"}, 1, 0),
        # the whole class of 01 squared, a cycle of period 2
        ({"0101", "1010"}, 1, 1),
        # a letter power, its own only rotation
        ({"0000"}, 1, 1),
        # two classes, each one arc of three of its four rotations
        ({"0011", "0110", "1100", "0001", "0010", "0100"}, 2, 0),
    ],
)
def test_arcs_and_cycles_at_length_four(members, c, L):
    fs = FactorSet(4, frozenset(members), True)
    assert cyclic_complexity(fs) == c
    assert lie_complexity(fs) == L


# 40 letters, among them the digits that the invariant's numerals use
_FORTY = "0123456789abcdefghijklmnopqrstuvwxyzABCD"


@given(st.integers(min_value=1, max_value=40), st.data())
def test_rotation_invariant_is_equal_on_all_rotations(size, data):
    # 1 to 36 letters take one base-b digit each, 37 to 40 take two
    letters = _FORTY[:size]
    v = data.draw(st.text(alphabet=letters, min_size=1, max_size=30))
    table, b, modulus = _rotation_invariant(letters, len(v))
    assert len({pow(int(u.translate(table), b), len(v), modulus) for u in _orbit(v)}) == 1


def _recorded(monkeypatch, name):
    """The arguments of each call of complexity.<name>, from here on."""
    calls = []
    fn = getattr(complexity, name)

    def recording(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(complexity, name, recording)
    return calls


@pytest.mark.parametrize(
    "members, c, L",
    [
        # arcs of the class of 001011 and of its complement's, 110100: one
        # Parikh code and, at even n, one invariant value
        ({"001011", "010110", "110100", "101001"}, 2, 0),
        # two arcs of the class of 000111, cut by the missing 011100, 100011
        ({"000111", "001110", "111000", "110001"}, 1, 0),
        # arc heads 0011 and 0101 share a code, not an invariant value
        ({"0011", "0110", "0101"}, 2, 0),
    ],
)
def test_arc_heads_are_told_apart_by_substring_tests(monkeypatch, members, c, L):
    rotations = _recorded(monkeypatch, "least_rotation")
    invariants = _recorded(monkeypatch, "_rotation_invariant")
    n = len(next(iter(members)))
    fs = FactorSet(n, frozenset(members), True)
    assert cyclic_complexity(fs) == c
    assert lie_complexity(fs) == L
    assert (c, L) == booth_counts(members, n)[1::2]
    # two heads, within the split: substring tests only
    assert invariants == []
    monkeypatch.setattr(complexity, "_CROWDED_HEADS", _EVERY_CODE)
    assert cyclic_complexity(fs) == c
    assert invariants == [(["0", "1"], n)]
    assert rotations == []


def test_counts_over_forty_letters_match_booth_counts(monkeypatch):
    # the letter powers bring all 40 letters in, so each letter takes two
    # base-36 digits; three permutations of one word share a Parikh code:
    # two arcs of one class, one arc of another and a whole third class
    rotations = _recorded(monkeypatch, "least_rotation")
    invariants = _recorded(monkeypatch, "_rotation_invariant")
    members = {c * 6 for c in _FORTY}
    members.update(_orbit("AB0zC1")[0:2] + _orbit("AB0zC1")[3:5])
    members.update(_orbit("0zAB1C")[0:3] + _orbit("zA0B1C"))
    fs = FactorSet(6, frozenset(members), True)
    _, c, a, L = booth_counts(members, 6)
    assert cyclic_complexity(fs) == c == 43
    # the shared code holds three arc heads, within the split
    assert invariants == []
    # past the split, the two arcs of one class share an invariant value
    monkeypatch.setattr(complexity, "_CROWDED_HEADS", 2)
    assert cyclic_complexity(fs) == c
    assert len(invariants) == 1
    assert rotations == []
    assert (abelian_complexity(fs), lie_complexity(fs)) == (a, L) == (41, 41)


def _complement(v):
    return v.translate(str.maketrans("01", "10"))


def _necklaces(n, ones):
    """The least rotation of each class of length-n words with `ones` 1s."""
    return sorted({min(_orbit("".join(w))) for w in product("01", repeat=n) if w.count("1") == ones})


def _crowded_sets():
    """Length-n sets whose arc heads crowd one Parikh code past the split."""
    # a word and its complement share an invariant value at even n.  Each
    # class gets two one-word arcs: the self-complementary 00001111,
    # 00101101 and 00110011 a word and its complement, the others a word
    # and another's complement ((01)^4 is left out: its complement is its
    # rotate-by-one)
    eight = [v for v in _necklaces(8, 4) if v != "01010101"]
    pairs = set(eight) | {_complement(v) for v in eight}
    # n = 64: 2**64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417 is
    # smooth, so K**64 takes few values modulo its small factors.  Heads
    # start arcs of two rotations of balanced words and of their
    # complements; 0^16 1^16 0^16 1^16 is its complement's rotation, so
    # its two arcs are one class
    rng = random.Random(64)
    words = ["0" * 16 + "1" * 16 + "0" * 16 + "1" * 16]
    for _ in range(8):
        w = "".join(rng.sample("0" * 32 + "1" * 32, 64))
        words += [w, _complement(w)]
    wide = {u for w in words for u in _orbit(w)[:2]}
    wide.update(_orbit(words[0])[16:18])
    # two arcs of the class of 000001111, among nine one-word classes of
    # its code
    arcs = set(_orbit("000001111")[0:2] + _orbit("000001111")[4:6])
    arcs.update(_necklaces(9, 4)[1:10])
    return [(8, frozenset(pairs)), (64, frozenset(wide)), (9, frozenset(arcs))]


@pytest.mark.parametrize("n, members", _crowded_sets(), ids=["pairs", "n64", "two-arcs"])
def test_crowded_codes_match_booth_counts(monkeypatch, n, members):
    invariants = _recorded(monkeypatch, "_rotation_invariant")
    fs = FactorSet(n, members, True)
    _, c, _, L = booth_counts(members, n)
    assert (cyclic_complexity(fs), lie_complexity(fs)) == (c, L)
    assert invariants == [(["0", "1"], n)]
    monkeypatch.setattr(complexity, "_CROWDED_HEADS", _NO_CODE)
    assert cyclic_complexity(fs) == c
    assert len(invariants) == 1


@st.composite
def _spans(draw):
    """Texts over up to 12 letters, a factor length n that each text can
    hold, and for each text a number of block starts it has room for."""
    texts = draw(
        st.lists(st.text(alphabet="abcdefghijkl", min_size=1, max_size=40), min_size=1, max_size=5)
    )
    n = draw(st.integers(min_value=0, max_value=min(map(len, texts))))
    return [(t, draw(st.integers(min_value=1, max_value=len(t) - n + 1))) for t in texts], n


@given(_spans())
def test_span_codes_are_parikh_vectors(case):
    spans, n = case
    letters = sorted(set().union(*(t for t, _ in spans)))
    codes = _parikh_codes(spans, n, letters)
    assert set(codes) == {t[i : i + n] for t, starts in spans for i in range(starts)}
    for v, code in codes.items():
        digits = []
        for _ in letters:
            code, d = divmod(code, n + 1)
            digits.append(d)
        assert code == 0
        assert {c: d for c, d in zip(letters, digits) if d} == Counter(v)


# twelve's 181,485 factors up to n = 100 take Booth's scan about 14 s, so
# it is checked on a sample of lengths
_TWELVE_NS = (0, 1, 2, 3, 4, 5, 7, 10, 20, 30, 40, 50, 60, 70, 80, 90, 99, 100)


@pytest.mark.parametrize(
    "name", ["thue-morse", "vtm", "cantor", "fibonacci", "tribonacci", "twelve"]
)
def test_table_matches_booth_counts_on_exact_sets(monkeypatch, name):
    gen = get_word(name)
    rows = complexity_table(gen, range(101))
    # the invariant split, taken by every code or by none, changes no row
    for split in (_EVERY_CODE, _NO_CODE):
        monkeypatch.setattr(complexity, "_CROWDED_HEADS", split)
        assert complexity_table(gen, range(101)) == rows, split
    for row in rows:
        if name != "twelve" or row.n in _TWELVE_NS:
            expected = booth_counts(exact_factors(gen, row.n), row.n)
            assert (row.p, row.c, row.a, row.L) == expected, row.n


@lru_cache(maxsize=None)
def _booth_row(name, n):
    gen = get_word(name)
    return booth_counts(exact_factors(gen, n), n)


@settings(max_examples=60)
@given(
    st.sampled_from(["thue-morse", "vtm", "cantor", "fibonacci", "tribonacci"]),
    st.lists(st.integers(min_value=0, max_value=60), max_size=12),
)
def test_table_of_any_lengths_matches_booth_counts(name, ns):
    # gaps split the lengths into runs, each read at its top and walked down
    rows = complexity_table(get_word(name), ns)
    assert [row.n for row in rows] == sorted(ns)
    for row in rows:
        assert (row.p, row.c, row.a, row.L) == _booth_row(name, row.n), row.n


def test_rows_match_booth_counts_at_larger_n():
    fib = get_word("fibonacci")
    for row in complexity_table(fib, range(201)):
        assert (row.p, row.c, row.a, row.L) == booth_counts(exact_factors(fib, row.n), row.n)
    for name, ns in [
        ("thue-morse", [128, 150, 200, 256]),
        ("vtm", [128, 200]),
        ("tribonacci", [128, 200]),
        ("twelve", [128]),
    ]:
        gen = get_word(name)
        for row in complexity_table(gen, ns):
            expected = booth_counts(exact_factors(gen, row.n), row.n)
            assert (row.p, row.c, row.a, row.L) == expected, (name, row.n)


def test_complexity_table_refuses_a_negative_length_first(monkeypatch):
    def unread(generator, n):
        raise AssertionError("spans read for length %d" % n)

    monkeypatch.setattr(complexity, "factor_spans", unread)
    with pytest.raises(InvalidParameter):
        complexity_table(get_word("thue-morse"), [3, 2, -1, 0])


@pytest.mark.parametrize("image, max_n", [("aab", 12), ("aaab", 9)])
def test_closure_rows_match_booth_counts(image, max_n):
    # `a -> aab, b -> b` and `a -> aaab, b -> b` have a non-growing letter,
    # so their rows come from the closure; up to max_n the first 2^16
    # letters hold every factor
    gen = WordGenerator("runs", morphism=morphism("ab", {"a": image, "b": "b"}), seed="a")
    prefix = gen.prefix(1 << 16)
    for row in complexity_table(gen, range(max_n + 1)):
        expected = booth_counts(blocks(prefix, row.n), row.n)
        assert (row.p, row.c, row.a, row.L) == expected, row.n


def test_lie_counts_match_suffix_automaton_on_fibonacci():
    fib = get_word("fibonacci")
    w, certified = saturation_window(fib, 120)
    assert certified
    counts = sam_lie_counts(fib.prefix(w), 120)
    rows = complexity_table(fib, range(0, 121))
    assert [r.L for r in rows] == counts


def test_margin_on_certified_rows():
    rows = complexity_table(get_word("thue-morse"), range(0, 10))
    for prev, row in zip(rows, rows[1:]):
        margin = first_difference_margin(row, prev.p)
        assert margin == row.p - prev.p + 1 - row.L
        assert margin >= 0


def test_margin_refuses_uncertified_data():
    rows = complexity_table(get_word("cantor"), range(0, 3))
    assert not rows[2].certified
    with pytest.raises(UncertifiedData):
        first_difference_margin(rows[2], rows[1].p)
    assert first_difference_margin(rows[2], rows[1].p, strict=False) >= 0


def test_power_scan_separates_words():
    assert unbounded_exponent_scan(get_word("cantor"), 4, 4) == ["0"]
    assert unbounded_exponent_scan(get_word("fibonacci"), 4, 4) == []
    assert unbounded_exponent_scan(get_word("thue-morse"), 4, 4) == []


def test_power_scan_finds_squares_in_thue_morse():
    roots = unbounded_exponent_scan(get_word("thue-morse"), 2, 2)
    assert "0" in roots and "01" in roots


def test_per_w_estimate_shrinks_with_schedule():
    cantor = get_word("cantor")
    loose = len(unbounded_exponent_scan(cantor, 4, 2))
    tight = len(unbounded_exponent_scan(cantor, 4, 4))
    assert tight <= loose
    assert tight == 1


def test_power_scan_finds_cantors_run_of_30000_zeros():
    # the first run of 30,000 zeros starts at position 59,049: no prefix
    # shorter than 89,049 letters holds 0^30000
    assert unbounded_exponent_scan(get_word("cantor"), 1, 30000) == ["0"]


def _brute_force_scan(prefix, max_root_len, exponent):
    """The least rotations, by Booth's algorithm, of the primitive blocks y
    of the prefix with |y| <= max_root_len and y^exponent a block too."""
    found = {
        booth_least_rotation(y)
        for ell in range(1, max_root_len + 1)
        for y in blocks(prefix, ell)
        if (y + y).find(y, 1) == ell and y * exponent in prefix
    }
    return sorted(found, key=lambda y: (len(y), y))


@pytest.mark.parametrize(
    "name", ["thue-morse", "vtm", "cantor", "fibonacci", "tribonacci", "twelve"]
)
def test_power_scan_matches_brute_force_on_a_provable_prefix(name):
    gen = get_word(name)
    rules = gen.morphism.rule_map
    for exponent in (2, 3, 4):
        # every factor of length <= 4 * exponent is a block of this prefix
        prefix = gen.prefix(provable_prefix_length(rules, gen.seed, 4 * exponent))
        expected = _brute_force_scan(prefix, 4, exponent)
        assert unbounded_exponent_scan(gen, 4, exponent) == expected, exponent


def test_tsv_shape_and_determinism():
    rows = complexity_table(get_word("fibonacci"), range(0, 4))
    text = rows_to_tsv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n\tp\tc\ta\tL\tcertified"
    assert len(lines) == 5
    assert text == rows_to_tsv(complexity_table(get_word("fibonacci"), range(0, 4)))


def test_json_round_trips_values():
    rows = complexity_table(get_word("fibonacci"), range(0, 4))
    data = json.loads(rows_to_json(rows))["rows"]
    assert data[2]["n"] == 2 and data[2]["p"] == 3
    assert all(set(d) == {"n", "p", "c", "a", "L", "certified"} for d in data)


@pytest.mark.parametrize(
    "name", ["thue-morse", "vtm", "cantor", "fibonacci", "tribonacci", "twelve"]
)
def test_bundled_exact_sets_equal_blocks_of_a_provable_prefix(name):
    gen = get_word(name)
    rules = gen.morphism.rule_map
    for n in range(101):
        prefix = gen.prefix(provable_prefix_length(rules, gen.seed, n))
        assert exact_factors(gen, n) == factor_set(prefix, n).members, n


@pytest.mark.parametrize(
    "name, max_n",
    [("thue-morse", 24), ("vtm", 20), ("fibonacci", 30), ("tribonacci", 24), ("twelve", 8)],
)
def test_lie_complexity_takes_no_least_rotation(monkeypatch, name, max_n):
    # the factor sets algebra-check reads, each counted by Booth rotations
    calls = _recorded(monkeypatch, "least_rotation")

    def no_invariant(letters, n):
        raise AssertionError("rotation invariant taken at n=%d" % n)

    def no_substring_test(words):
        raise AssertionError("substring tests taken")

    monkeypatch.setattr(complexity, "_rotation_invariant", no_invariant)
    monkeypatch.setattr(complexity, "_distinct_classes", no_substring_test)
    for n in range(max_n + 1):
        fs = saturated_factor_set(get_word(name), n)
        assert lie_complexity(fs) == booth_counts(fs.members, n)[3], (name, n)
    assert calls == []


@pytest.mark.parametrize("module", ["complexity", "words"])
def test_direct_route_imports_nothing_from_the_rank_route(module):
    path = liewords.__path__[0] + "/%s.py" % module
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {"algebra", "linalg", "liewords.algebra", "liewords.linalg"} & imported

import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liewords.bundled import get_word
from liewords.complexity import (
    _parikh_codes,
    abelian_complexity,
    complexity_table,
    cyclic_complexity,
    factor_set,
    first_difference_margin,
    least_rotation,
    lie_complexity,
    per_w_estimate,
    rows_to_json,
    rows_to_tsv,
    saturated_factor_set,
    unbounded_exponent_scan,
)
from liewords.errors import EmptyWord, UncertifiedData
from liewords.words import WordGenerator, exact_factors, morphism, saturation_window

from oracles import (
    blocks,
    booth_counts,
    booth_least_rotation,
    naive_abelian_count,
    naive_cyclic_count,
    naive_lie_count,
    sam_lie_counts,
)


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


def test_least_rotation_custom_order():
    # rank map reverses the usual order of the two letters
    order = {"0": 1, "1": 0}
    assert least_rotation("01", order) == "10"


def test_least_rotation_reports_unranked_letter():
    with pytest.raises(KeyError, match="letter 'b' has no declared rank"):
        least_rotation("ab", {"a": 0})


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


# distinct ranks, negative and with gaps allowed
_ranks = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6), min_size=3, max_size=3, unique=True
)


@given(_rotation_words(), _ranks)
def test_least_rotation_custom_order_matches_booth_oracle(v, ranks):
    order = dict(zip("abc", ranks))
    key = lambda w: [order[c] for c in w]
    got = least_rotation(v, order)
    assert got == booth_least_rotation(v, order)
    assert key(got) == min(map(key, _orbit(v)))


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
    window = tm.prefix(saturation_window(tm, n)[0]).letters
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
def test_table_matches_booth_counts_on_exact_sets(name):
    gen = get_word(name)
    for row in complexity_table(gen, _TWELVE_NS if name == "twelve" else range(101)):
        expected = booth_counts(exact_factors(gen, row.n), row.n)
        assert (row.p, row.c, row.a, row.L) == expected, row.n


def test_window_fallback_rows_match_booth_counts():
    # `a -> aab, b -> b` has a non-growing letter, so its rows come from
    # the doubling window
    gen = WordGenerator("runs", morphism=morphism("ab", {"a": "aab", "b": "b"}), seed="a")
    for row in complexity_table(gen, range(13)):
        window, _ = saturation_window(gen, row.n)
        expected = booth_counts(blocks(gen.prefix(window).letters, row.n), row.n)
        assert (row.p, row.c, row.a, row.L) == expected, row.n


def test_lie_counts_match_suffix_automaton_on_fibonacci():
    fib = get_word("fibonacci")
    w, certified = saturation_window(fib, 120)
    assert certified
    counts = sam_lie_counts(fib.prefix(w).letters, 120)
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
    assert unbounded_exponent_scan(get_word("cantor"), 4, 4, 8192) == ["0"]
    assert unbounded_exponent_scan(get_word("fibonacci"), 4, 4, 8192) == []
    assert unbounded_exponent_scan(get_word("thue-morse"), 4, 4, 8192) == []


def test_power_scan_finds_squares_in_thue_morse():
    roots = unbounded_exponent_scan(get_word("thue-morse"), 2, 2, 4096)
    assert "0" in roots and "01" in roots


def test_per_w_estimate_shrinks_with_schedule():
    cantor = get_word("cantor")
    loose = per_w_estimate(cantor, 4, (2,), 8192)
    tight = per_w_estimate(cantor, 4, (2, 3, 4), 8192)
    assert tight <= loose
    assert tight == 1


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
def test_exact_sets_equal_doubling_window_sets(name):
    gen = get_word(name)
    for n in range(101):
        window, _ = saturation_window(gen, n)
        assert exact_factors(gen, n) == factor_set(gen.prefix(window), n).members, n


def test_exact_route_ignores_the_window_schedule():
    tm = get_word("thue-morse")
    rows = complexity_table(tm, range(0, 40), start=4, cap=8)
    assert rows == complexity_table(tm, range(0, 40))
    fs = saturated_factor_set(tm, 39, start=4, cap=8)
    assert fs.window == 0 and fs.certified

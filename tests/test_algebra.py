import ast
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import liewords
from liewords.algebra import (
    algebra_report,
    algebra_rows_to_tsv,
    commutator_span,
    factor_sets_up_to,
    lie_via_algebra,
    split_rows,
)
from liewords.bundled import get_word
from liewords.complexity import FactorSet, lie_complexity
from liewords.linalg import RowBasis, signed_incidence_rank

from oracles import blocks, literal_commutator_span, rank_mod

PRIME = 2**31 - 1

# the words and largest lengths of the benchmark's algebra-check operations
ALGEBRA_CHECK = (("thue-morse", 24), ("vtm", 20), ("fibonacci", 30), ("tribonacci", 24), ("twelve", 8))


def _dense(pair, width):
    row = [0] * width
    p, q = pair
    if p is not None:
        row[p] += 1
    if q is not None:
        row[q] -= 1
    return row


def test_row_basis_exact_rank():
    b = RowBasis(2)
    assert b.insert((Fraction(1), Fraction(2))) is None
    assert b.insert((Fraction(2), Fraction(4))) == [Fraction(2)]
    assert b.rank == 1


def test_row_basis_does_not_lose_precision():
    # these rows collapse under float arithmetic but are independent
    big = 10**20
    b = RowBasis(2)
    b.insert((Fraction(1), Fraction(big)))
    b.insert((Fraction(1), Fraction(big + 1)))
    assert b.rank == 2


def test_row_basis_checks_the_width():
    b = RowBasis(3)
    b.insert((1, 0, 0))
    for vec in ((1, 1), (1, 1, 0, 0)):
        with pytest.raises(ValueError, match="vector width"):
            b.insert(vec)
        with pytest.raises(ValueError, match="vector width"):
            b.coords(vec)
    assert b.coords((2, 0, 0)) == [2]


def test_commutator_span_on_fibonacci():
    fs_by_len = factor_sets_up_to(get_word("fibonacci"), 2)
    span = commutator_span(fs_by_len, 2)
    # factors 00, 01, 10: the one usable bracket is 01 - 10 up to sign
    assert span.rank == 1


def test_rank_route_equals_direct_count():
    for name in ("thue-morse", "fibonacci"):
        gen = get_word(name)
        fs_by_len = factor_sets_up_to(gen, 10)
        for n in range(0, 11):
            assert lie_via_algebra(fs_by_len, n) == lie_complexity(fs_by_len[n])


def test_report_rows_are_consistent():
    rows = algebra_report(get_word("tribonacci"), 8)
    assert [r.n for r in rows] == list(range(9))
    for r in rows:
        assert r.lie_algebra == r.dim_v - r.dim_w
        assert r.match
    text = algebra_rows_to_tsv(rows)
    assert text.splitlines()[0] == "n\tdimV\tdimW\tL_algebra\tL_direct\tmatch"


def test_dimension_of_full_slice():
    rows = algebra_report(get_word("thue-morse"), 4)
    # dim V_n is the factor count p(n)
    assert [r.dim_v for r in rows] == [1, 2, 4, 6, 10]


def test_incidence_rank_matches_exact_echelon():
    # the words and lengths of algebra-check, cut to what an echelon can do quickly
    for name, max_n in (
        ("thue-morse", 10),
        ("vtm", 10),
        ("fibonacci", 10),
        ("tribonacci", 10),
        ("twelve", 6),
    ):
        fs_by_len = factor_sets_up_to(get_word(name), max_n)
        for n in range(max_n + 1):
            factors = tuple(sorted(fs_by_len[n].members))
            rows = [
                _dense(v, len(factors))
                for i in range(1, n // 2 + 1)
                for v in split_rows(factors, fs_by_len[i], fs_by_len[n - i])
            ]
            echelon = RowBasis(len(factors))
            for row in rows:
                echelon.insert(row)
            rank = commutator_span(fs_by_len, n).rank
            assert rank == echelon.rank, (name, n)
            assert rank == rank_mod(rows, len(factors), PRIME), (name, n)


def _assert_span_is_literal(fs_by_len, n):
    span = commutator_span(fs_by_len, n)
    assert (span.rank, span.generator_count) == literal_commutator_span(fs_by_len, n, PRIME)


@pytest.mark.parametrize("name, max_n", ALGEBRA_CHECK)
def test_commutator_span_equals_the_literal_pairs_on_bundled_words(name, max_n):
    fs_by_len = factor_sets_up_to(get_word(name), max_n)
    for n in range(max_n + 1):
        _assert_span_is_literal(fs_by_len, n)


# a finite word over 1 to 4 letters
finite_words = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.text(alphabet="abcd"[:k], min_size=1, max_size=14)
)


@given(finite_words)
def test_commutator_span_equals_the_literal_pairs_on_finite_words(w):
    fs_by_len = {m: FactorSet(m, frozenset(blocks(w, m)), True) for m in range(len(w) + 1)}
    for n in range(len(w) + 1):
        _assert_span_is_literal(fs_by_len, n)


@st.composite
def unclosed_families(draw):
    """Random subsets of Sigma^m for m = 0..top, not closed under factors."""
    letters = "abc"[: draw(st.integers(min_value=1, max_value=3))]
    top = draw(st.integers(min_value=0, max_value=6))
    return {
        m: FactorSet(
            m,
            frozenset(draw(st.sets(st.text(alphabet=letters, min_size=m, max_size=m), max_size=16))),
            True,
        )
        for m in range(top + 1)
    }


@given(unclosed_families())
def test_commutator_span_equals_the_literal_pairs_on_unclosed_families(fs_by_len):
    for n in fs_by_len:
        _assert_span_is_literal(fs_by_len, n)


@st.composite
def incidence_rows(draw):
    width = draw(st.integers(min_value=2, max_value=10))
    index = st.integers(min_value=0, max_value=width - 1)
    edge = st.tuples(index, index).filter(lambda e: e[0] != e[1])
    single = st.one_of(st.tuples(index, st.none()), st.tuples(st.none(), index))
    rows = draw(st.lists(st.one_of(edge, single, st.just((None, None))), max_size=20))
    return width, rows


@given(incidence_rows())
def test_signed_incidence_rank_matches_rational_rank(case):
    width, rows = case
    echelon = RowBasis(width)
    for row in rows:
        echelon.insert(_dense(row, width))
    assert signed_incidence_rank(rows, width) == echelon.rank


def test_signed_incidence_rank_refuses_other_rows():
    with pytest.raises(ValueError, match="not a signed incidence row"):
        signed_incidence_rank([(0, 1), (1, 1)], 2)


def test_rank_route_takes_only_factor_sets_and_the_direct_count_from_complexity():
    # no rotation, Parikh code or least rotation: the routes stay independent
    with open(liewords.__path__[0] + "/algebra.py") as fh:
        tree = ast.parse(fh.read())
    taken = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "complexity"
        for alias in node.names
    }
    assert taken == {"FactorSet", "saturated_factor_set", "lie_complexity"}

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liewords import automata as au
from liewords import counting
from liewords.bundled import PIPELINE_WORDS, get_word
from liewords.counting import (
    LinearRepresentation,
    counting_representation,
    minimize_representation,
    representation_from_text,
    representation_to_text,
    sup_value,
    to_dfao,
)
from liewords.errors import (
    InfiniteCount,
    NonIntegerOutput,
    StateCapExceeded,
    UnknownTrack,
)
from liewords.golden import closed_form
from liewords.words import Dfao, dfao_eval
from oracles import count_direct, eval_int, evaluate, two_pass_minimize_representation


def test_count_direct_equals_position_scan(tm_library):
    lie = tm_library["lie"]
    for n in range(0, 24):
        scanned = len(au.accepted_values(lie, {"n": n}, "i", 512))
        assert count_direct(lie, n) == scanned
        assert scanned == closed_form("thue-morse", n)


def test_count_direct_needs_the_standard_tracks(tm_library):
    with pytest.raises(UnknownTrack):
        count_direct(tm_library["factoreq"], 3)
    with pytest.raises(UnknownTrack):
        counting_representation(tm_library["factoreq"])


def test_divergent_predicates_fail_loudly(tm_library):
    with pytest.raises(InfiniteCount):
        count_direct(tm_library["allconj"], 2)
    with pytest.raises(InfiniteCount):
        counting_representation(tm_library["allconj"])
    with pytest.raises(InfiniteCount):
        counting_representation(tm_library["lexleast"])


def test_representation_matches_direct_path(tm_library):
    lie = tm_library["lie"]
    rep = counting_representation(lie)
    for n in range(0, 400):
        assert eval_int(rep, n) == count_direct(lie, n)


def test_representation_entries_are_nonnegative_integers(tm_library):
    rep = counting_representation(tm_library["lie"])
    for m in rep.matrices:
        for row in m:
            for x in row:
                assert x == int(x) and x >= 0


def test_minimization_preserves_values_and_shrinks(tm_library):
    rep = counting_representation(tm_library["lie"])
    small = minimize_representation(rep)
    assert small.dimension <= rep.dimension
    again = minimize_representation(small)
    assert again.dimension == small.dimension
    for n in range(0, 200):
        assert evaluate(small, n) == evaluate(rep, n)


def test_dfao_agrees_with_representation(tm_library):
    rep = minimize_representation(counting_representation(tm_library["lie"]))
    d = to_dfao(rep)
    for n in range(0, 1024):
        assert int(dfao_eval(d, n)) == eval_int(rep, n)
    assert sup_value(d) == 3


_LIBRARY_FIXTURES = {
    "thue-morse": "tm_library",
    "vtm": "vtm_library",
    "cantor": "cantor_library",
    "twelve": "twelve_library",
}


@pytest.mark.parametrize("name", PIPELINE_WORDS)
def test_pipeline_dfao_matches_brute_force(name, request):
    from liewords.complexity import lie_complexity, saturated_factor_set

    word = get_word(name)
    lie = request.getfixturevalue(_LIBRARY_FIXTURES[name])["lie"]
    d = to_dfao(minimize_representation(counting_representation(lie)))
    for n in range(0, 65):
        assert int(dfao_eval(d, n)) == lie_complexity(saturated_factor_set(word, n))


def test_state_cap_respected(tm_library, monkeypatch):
    rep = minimize_representation(counting_representation(tm_library["lie"]))
    monkeypatch.setattr(counting, "_DFAO_STATE_CAP", 1)
    with pytest.raises(StateCapExceeded):
        to_dfao(rep)


def test_non_integer_rep_rejected():
    rep = LinearRepresentation(
        2,
        (Fraction(1, 2),),
        ((( Fraction(1),),), ((Fraction(1),),)),
        (Fraction(1),),
    )
    assert evaluate(rep, 0) == Fraction(1, 2)
    with pytest.raises(NonIntegerOutput):
        eval_int(rep, 0)
    with pytest.raises(NonIntegerOutput):
        to_dfao(rep)


def test_representation_text_round_trip(tm_library):
    rep = minimize_representation(counting_representation(tm_library["lie"]))
    again = representation_from_text(representation_to_text(rep))
    assert again == rep
    assert representation_to_text(again) == representation_to_text(rep)


def test_sup_value_matches_observed_outputs(cantor_library):
    # the zero digit out of the initial state pads; its target values
    # only count when reached again later
    d = to_dfao(minimize_representation(counting_representation(cantor_library["lie"])))
    outputs = {int(dfao_eval(d, n)) for n in range(200)}
    assert sup_value(d) == max(outputs) == 3


def test_sup_value_follows_digit_zero_out_of_a_revisited_initial_state():
    # "1" leads back to the initial state 2, and "10" on to state 1,
    # whose output 4 is the largest that a canonical string reads
    d = Dfao(2, ((0, 2), (2, 2), (1, 2)), ("5", "4", "2"), ("2", "4", "5"), initial=2)
    assert dfao_eval(d, 2) == "4"
    assert sup_value(d) == 4


@st.composite
def _dfaos(draw):
    """DFAOs in base 2 or 3 with 1 to 5 states, outputs 0..9 and any
    initial state."""
    base = draw(st.integers(2, 3))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    rows = tuple(tuple(draw(state) for _ in range(base)) for _ in range(n))
    outputs = tuple(str(draw(st.integers(0, 9))) for _ in range(n))
    return Dfao(base, rows, outputs, tuple(sorted(set(outputs))), draw(state))


@given(_dfaos())
def test_sup_value_is_the_largest_value_read(d):
    # a canonical string reaches each state it can reach within
    # n_states digits
    values = [int(dfao_eval(d, k)) for k in range(d.base ** (d.n_states + 1))]
    assert sup_value(d) == max(values)


@pytest.mark.parametrize("library", ["tm_library", "vtm_library", "cantor_library"])
def test_minimized_lie_representation_matches_the_two_pass_reduction(library, request):
    rep = counting_representation(request.getfixturevalue(library)["lie"])
    want = representation_to_text(two_pass_minimize_representation(rep))
    assert representation_to_text(minimize_representation(rep)) == want


@st.composite
def representations(draw):
    """Dimension 1-6, base 2-3, entries 0-2; v is all zero in about half
    the draws, so the dimension-0 reduction runs."""
    d = draw(st.integers(min_value=1, max_value=6))
    base = draw(st.integers(min_value=2, max_value=3))
    row = st.lists(st.integers(0, 2), min_size=d, max_size=d).map(
        lambda xs: tuple(Fraction(x) for x in xs)
    )
    v = (Fraction(0),) * d if draw(st.booleans()) else draw(row)
    matrices = tuple(tuple(draw(row) for _ in range(d)) for _ in range(base))
    return LinearRepresentation(base, v, matrices, draw(row))


@given(representations())
def test_minimize_representation_matches_the_two_pass_reduction(rep):
    want = representation_to_text(two_pass_minimize_representation(rep))
    assert representation_to_text(minimize_representation(rep)) == want

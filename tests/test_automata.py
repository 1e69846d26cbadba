import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liewords import automata as au
from liewords.bundled import get_word
from liewords.errors import CompileBlowup, UnknownTrack
from liewords.words import Dfao, dfao_eval, digits_msd
from oracles import (
    bfs_trim,
    column_digits,
    column_symbol,
    loop_coreachable,
    loop_det_by_sets,
    loop_normalize_padding,
    loop_product,
    loop_project,
    loop_submap,
    moore_minimal,
)

small = st.integers(min_value=0, max_value=300)
bases = st.integers(min_value=2, max_value=4)


@given(small, small, bases)
def test_eq_lt_leq_against_integers(x, y, base):
    assert au.accepts(au.eq_predicate("x", "y", base), {"x": x, "y": y}) == (x == y)
    assert au.accepts(au.lt_predicate("x", "y", base), {"x": x, "y": y}) == (x < y)
    assert au.accepts(au.leq_predicate("x", "y", base), {"x": x, "y": y}) == (x <= y)


@given(small, small, small, bases)
def test_add_against_integers(x, y, z, base):
    a = au.add_predicate("x", "y", "z", base)
    assert au.accepts(a, {"x": x, "y": y, "z": z}) == (x + y == z)


@given(st.integers(min_value=0, max_value=60), bases)
def test_const_predicate(v, base):
    a = au.const_predicate("x", 17, base)
    assert au.accepts(a, {"x": v}) == (v == 17)


def test_const_predicate_reads_the_digits():
    # 10**30 has 100 binary digits: a leading-zero state, one state per
    # digit read and a dead state
    a = au.const_predicate("x", 10**30, 2)
    assert a.n_states == 102
    assert [au.accepts(a, {"x": 10**30 + d}) for d in (-1, 0, 1)] == [False, True, False]


def test_seq_letter_predicate_matches_word():
    tm = get_word("thue-morse")
    a = au.seq_letter_predicate(tm.dfao, "i", "1")
    prefix = tm.prefix(200)
    for i in range(200):
        assert au.accepts(a, {"i": i}) == (prefix[i] == "1")


def test_seq_letter_predicate_reads_leading_zeros_as_padding():
    # the initial state moves on digit 0, so padded_dfao adds a padding
    # state, and leading zero columns must not change acceptance
    d = Dfao(2, ((1, 2), (2, 0), (1, 1)), ("a", "b", "c"), ("a", "b", "c"))
    for letter in d.letters:
        a = au.seq_letter_predicate(d, "i", letter)
        for i in range(64):
            columns = [(digit,) for digit in digits_msd(i, 2)]
            for zeros in range(3):
                got = au.accepts_string(a, [(0,)] * zeros + columns)
                assert got == (dfao_eval(d, i) == letter)


def test_combine_aligns_track_sets():
    a = au.lt_predicate("x", "y", 2)
    b = au.eq_predicate("y", "z", 2)
    c = au.combine(a, b, "and")
    assert c.tracks == ("x", "y", "z")
    assert au.accepts(c, {"x": 2, "y": 5, "z": 5})
    assert not au.accepts(c, {"x": 2, "y": 5, "z": 4})
    assert not au.accepts(c, {"x": 7, "y": 5, "z": 5})


@given(small, small)
def test_de_morgan(x, y):
    a = au.lt_predicate("x", "y", 2)
    b = au.eq_predicate("x", "y", 2)
    lhs = au.complement(au.combine(a, b, "and"))
    rhs = au.combine(au.complement(a), au.complement(b), "or")
    assert au.equivalent(lhs, rhs)
    assert au.accepts(lhs, {"x": x, "y": y}) == (not (x < y and x == y))


def test_double_complement_is_identity():
    for build in (au.lt_predicate, au.leq_predicate, au.eq_predicate):
        a = build("x", "y", 3)
        assert au.equivalent(au.complement(au.complement(a)), a)


def test_projection_against_bounded_witness_search():
    base = 2
    inner = au.conjoin(
        [au.add_predicate("x", "y", "z", base), au.lt_predicate("x", "z", base)]
    )
    proj = au.project(inner, "x")
    assert proj.tracks == ("y", "z")
    for y in range(40):
        for z in range(40):
            witness = any(
                x + y == z and x < z for x in range(z + 2)
            )
            assert au.accepts(proj, {"y": y, "z": z}) == witness


def test_projection_of_absent_track_is_identity():
    a = au.lt_predicate("x", "y", 2)
    assert au.project(a, "q") is a


def test_forall_via_complements():
    a = au.leq_predicate("x", "y", 2)
    assert au.is_empty(au.forall(a, "x"))
    b = au.accept_all(2, ("x", "y"))
    assert au.is_universal(au.forall(b, "x"))


def test_forall_bounded_hypothesis():
    # Ax (x <= n => x <= m) holds exactly when n <= m
    base = 2
    guard = au.leq_predicate("x", "n", base)
    body = au.leq_predicate("x", "m", base)
    f = au.forall(au.combine(au.complement(guard), body, "or"), "x")
    for n in range(12):
        for m in range(12):
            assert au.accepts(f, {"n": n, "m": m}) == (n <= m)


def test_minimize_is_idempotent_and_canonical():
    a = au.conjoin(
        [au.lt_predicate("x", "y", 2), au.lt_predicate("y", "z", 2)]
    )
    m1 = au.minimize(a)
    m2 = au.minimize(m1)
    assert au.to_text(m1) == au.to_text(m2)
    assert au.equivalent(a, m1)


def test_equivalent_constructions_share_canonical_form():
    lt = au.minimize(au.lt_predicate("x", "y", 2))
    via_leq = au.minimize(au.complement(au.leq_predicate("y", "x", 2)))
    assert au.to_text(lt) == au.to_text(via_leq)


def test_padding_closure():
    a = au.add_predicate("x", "y", "z", 2)
    for x, y in ((3, 5), (0, 0), (9, 1)):
        z = x + y
        ds = {t: digits_msd(v, 2) for t, v in (("x", x), ("y", y), ("z", z))}
        width = max(len(d) for d in ds.values())
        cols = []
        for i in range(width):
            cols.append(
                tuple(
                    ds[t][i - (width - len(ds[t]))] if i >= width - len(ds[t]) else 0
                    for t in a.tracks
                )
            )
        assert au.accepts_string(a, cols)
        assert au.accepts_string(a, [(0,) * len(a.tracks)] * 3 + cols)


def test_rename_tracks():
    a = au.lt_predicate("x", "y", 2)
    b = au.rename_tracks(a, {"x": "p", "y": "q"})
    assert b.tracks == ("p", "q")
    assert au.accepts(b, {"p": 3, "q": 7})
    assert not au.accepts(b, {"p": 7, "q": 3})


def test_accepts_requires_all_tracks():
    a = au.lt_predicate("x", "y", 2)
    with pytest.raises(UnknownTrack):
        au.accepts(a, {"x": 1})


def test_accepted_values_scan():
    a = au.lt_predicate("x", "y", 2)
    assert au.accepted_values(a, {"y": 5}, "x", 20) == [0, 1, 2, 3, 4]


def test_text_round_trip_preserves_language():
    a = au.conjoin([au.add_predicate("x", "y", "z", 3), au.lt_predicate("y", "z", 3)])
    b = au.from_text(au.to_text(a))
    assert b.tracks == a.tracks
    assert au.equivalent(a, b)
    assert au.to_text(b) == au.to_text(a)


def test_arithmetic_bulk_samples():
    rng = random.Random(7)
    for base in (2, 3):
        add = au.add_predicate("x", "y", "z", base)
        lt = au.lt_predicate("x", "y", base)
        for _ in range(500):
            x = rng.randrange(0, 1 << 16)
            y = rng.randrange(0, 1 << 16)
            z = rng.randrange(0, 1 << 17)
            assert au.accepts(add, {"x": x, "y": y, "z": z}) == (x + y == z)
            assert au.accepts(add, {"x": x, "y": y, "z": x + y})
            assert au.accepts(lt, {"x": x, "y": y}) == (x < y)


def test_large_projection_falls_back_to_reversal(twelve_library):
    """The wide-alphabet library build exercises the double-reversal
    projection path; spot check the result against the actual word."""
    feq = twelve_library["factoreq"]
    prefix = get_word("twelve").prefix(2200)
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(0, 40)
        i = rng.randrange(0, 2000)
        j = rng.randrange(0, 2000)
        expected = prefix[i : i + n] == prefix[j : j + n]
        assert au.accepts(feq, {"i": i, "j": j, "n": n}) == expected


@st.composite
def raw_tables(draw, max_states=6, copies=1, base=None, track_sets=(("x",), ("x", "y"))):
    """A total table over one of track_sets (by default 1 or 2 tracks) in
    the given base, or base 2 or 3.  With copies > 1 each state comes in
    up to that many copies, whose transitions lead to random copies of
    the same targets, so many states are equivalent."""
    if base is None:
        base = draw(st.integers(min_value=2, max_value=3))
    tracks = draw(st.sampled_from(track_sets))
    nsym = base ** len(tracks)
    k = draw(st.integers(min_value=1, max_value=max_states))
    targets = st.lists(st.integers(0, k - 1), min_size=nsym, max_size=nsym)
    shape = [draw(targets) for _ in range(k)]
    acc = draw(st.sets(st.integers(0, k - 1)))
    c = draw(st.integers(min_value=1, max_value=copies))
    n = k * c
    rows = tuple(
        tuple(t * c + draw(st.integers(0, c - 1)) for t in shape[q // c]) for q in range(n)
    )
    accepting = frozenset(q for q in range(n) if q // c in acc)
    initial = draw(st.integers(0, n - 1))
    return au.MultiTrackDfa(base, tracks, rows, accepting, initial)


def _columns(a, values):
    ds = [digits_msd(v, a.base) for v in values]
    width = max(len(d) for d in ds)
    padded = [[0] * (width - len(d)) + d for d in ds]
    return list(zip(*padded))


@settings(max_examples=60)
@given(raw_tables())
def test_normalize_padding_closes_raw_tables_under_zero_columns(a):
    # only tables whose minimal form is not fixed by the zero column take
    # the subset construction; the package itself never builds one
    assume(au.minimize(a).transitions[0][0] != 0)
    norm = au.normalize_padding(a)
    assert norm.transitions[norm.initial][0] == norm.initial
    assert au.to_text(norm) == au.to_text(loop_normalize_padding(a))
    # a tuple is accepted iff some zero padding of its shortest columns is;
    # within n_states zero columns the padded start state repeats
    rows = a.transitions.tolist()
    starts, q = set(), a.initial
    for _ in range(a.n_states + 1):
        starts.add(q)
        q = rows[q][0]
    for values in itertools.product(range(64), repeat=len(a.tracks)):
        states = starts
        for col in _columns(a, values):
            sym = column_symbol(col, a.base)
            states = {rows[q][sym] for q in states}
        assert au.accepts(norm, dict(zip(a.tracks, values))) == bool(states & a.accepting)


@given(raw_tables(max_states=8, copies=5))
def test_minimize_matches_moore_oracle(a):
    m = au.minimize(a)
    assert au.to_text(m) == au.to_text(moore_minimal(a))
    assert au.to_text(au.minimize(m)) == au.to_text(m)


def _no_trim(table, start):
    raise AssertionError("minimize trimmed a table numbered breadth first")


CHUNK_SIZES = [au.CHUNK_CELLS, 1, 2, 5]


@pytest.mark.parametrize("cells", CHUNK_SIZES)
@settings(max_examples=40)
@given(a=raw_tables(max_states=8, copies=3))
def test_minimize_takes_numbered_tables_as_they_are(cells, a):
    # every trimmed, breadth-first numbered table skips the trim, at
    # check spans of one cell, a few cells and the whole table
    numbered = bfs_trim(a)
    want = au.to_text(moore_minimal(a))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(au, "CHUNK_CELLS", cells)
        mp.setattr(au, "_reachable", _no_trim)
        assert au.to_text(au.minimize(numbered)) == want


ONE_CLAUSE_OFF = {
    # state 2 is found before state 1
    "gap": ((2, 1), (0, 1), (1, 0)),
    # state 1 is first seen in its own row, so it is unreachable
    "own row": ((0, 0), (1, 2), (2, 1)),
    # state 2 is first seen in a row after its own
    "later row": ((0, 1), (0, 0), (1, 2)),
    # the last state never occurs
    "unreachable last": ((0, 1), (1, 0), (0, 1)),
}


@pytest.mark.parametrize("cells", CHUNK_SIZES)
@pytest.mark.parametrize("clause", sorted(ONE_CLAUSE_OFF))
def test_tables_off_the_numbering_by_one_clause_are_trimmed(cells, clause, monkeypatch):
    monkeypatch.setattr(au, "CHUNK_CELLS", cells)
    rows = ONE_CLAUSE_OFF[clause]
    assert not au._numbered(np.array(rows, dtype=np.int32))
    for accepting in ({0}, {1}, {2}, {1, 2}):
        a = au.MultiTrackDfa(2, ("x",), rows, frozenset(accepting), 0)
        assert au.to_text(au.minimize(a)) == au.to_text(moore_minimal(a))


def test_minimize_restarts_after_a_hash_collision(monkeypatch):
    # with all multipliers 1 the key is acceptance plus the sum of the
    # successor blocks, so states 0 and 1 (successors in blocks 0,1 and
    # 1,0) collide although they differ on the word "1"; with one cell
    # per chunk the exact check meets them in different chunks
    a = au.MultiTrackDfa(2, ("x",), ((0, 2), (2, 0), (1, 2)), frozenset({2}), 0)
    attempts = []
    real = au._multipliers

    def degenerate_first(width, attempt):
        attempts.append(attempt)
        if attempt == 0:
            return np.ones(width, dtype=np.uint64)
        return real(width, attempt)

    monkeypatch.setattr(au, "_multipliers", degenerate_first)
    for cells in (au.CHUNK_CELLS, 1):
        monkeypatch.setattr(au, "CHUNK_CELLS", cells)
        attempts.clear()
        m = au.minimize(a)
        assert attempts == [0, 1]
        assert m.n_states == 3
        assert au.to_text(m) == au.to_text(moore_minimal(a))


def test_tables_are_read_only_int32_compared_by_value():
    rows = ((0, 2), (2, 0), (1, 2))
    a = au.MultiTrackDfa(2, ("x",), rows, frozenset({2}), 0)
    b = au.MultiTrackDfa(2, ("x",), np.array(rows, dtype=np.int32), frozenset({2}), 0)
    assert a.transitions.dtype == np.int32 and a.transitions.shape == (3, 2)
    assert a.transitions.flags.c_contiguous
    assert a == b and hash(a) == hash(b)
    assert a != au.MultiTrackDfa(2, ("x",), ((0, 2), (2, 0), (1, 1)), frozenset({2}), 0)
    assert a != au.MultiTrackDfa(2, ("x",), rows, frozenset({1}), 0)
    assert a != au.MultiTrackDfa(2, ("y",), rows, frozenset({2}), 0)
    with pytest.raises(ValueError):
        a.transitions[0, 0] = 1
    assert au.from_text(au.to_text(a)) == a


def test_pair_and_edge_codes_do_not_overflow_int32():
    # 50,000 states: the product's pair codes p*n + q reach 2.5e9, past
    # int32
    n = 50_000
    q = np.arange(n)
    rows = np.stack([2 * q % n, (2 * q + 1) % n], axis=1)
    a = au.MultiTrackDfa(2, ("x",), rows, frozenset(range(0, n, 2)), 0)
    assert au.combine(a, a, "and") == au.minimize(a)
    # every state reaches n-1 within 16 digits
    last = au.MultiTrackDfa(2, ("x",), rows, frozenset({n - 1}), 0)
    assert au._live(last).all()


@given(raw_tables(max_states=8, copies=3))
def test_live_states_against_the_coreachability_oracle(a):
    # exact on minimal automata, a superset on raw tables
    m = au.minimize(a)
    assert au._live(m).tolist() == loop_coreachable(m)
    coreachable = loop_coreachable(a)
    assert au._live(a)[coreachable].all()
    assert au.is_empty(a) == (not coreachable[a.initial])


@given(raw_tables(max_states=8, copies=3))
def test_reachable_numbers_states_as_the_dictionary_search(a):
    rows, old = au._reachable(a.transitions, a.initial)
    assert np.array_equal(rows, bfs_trim(a).transitions)
    # number k stands for old state old[k]
    assert old[0] == a.initial
    assert np.array_equal(a.transitions[old], old[rows])


def _raw_product(a, b, op):
    """The unminimized product that combine(a, b, op) builds."""
    seen = []
    real = au.minimize

    def record(x):
        seen.append(x)
        return real(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(au, "minimize", record)
        out = au.combine(a, b, op)
    return seen[0], out


@st.composite
def table_pairs(draw):
    base = draw(st.integers(min_value=2, max_value=3))
    a = draw(raw_tables(max_states=6, copies=2, base=base))
    b = draw(raw_tables(max_states=6, copies=2, base=base, track_sets=(("y",), ("x", "y"), ("y", "z"))))
    return a, b, draw(st.sampled_from(["and", "or"]))


@given(table_pairs())
def test_combine_matches_the_pair_by_pair_product(pair):
    a, b, op = pair
    raw, _ = _raw_product(a, b, op)
    join = all if op == "and" else any
    rows, accepting = loop_product(
        (a.transitions, a.initial, loop_submap(raw.tracks, a.tracks, a.base)),
        (b.transitions, b.initial, loop_submap(raw.tracks, b.tracks, b.base)),
        lambda p, q: join((p in a.accepting, q in b.accepting)),
    )
    assert raw.transitions.tolist() == [list(row) for row in rows]
    assert raw.accepting == accepting


WIDE = (("x", "y"), ("x", "y", "z"))


@settings(max_examples=60)
@given(raw_tables(max_states=6, copies=2, track_sets=(("x",),) + WIDE))
def test_project_matches_the_subset_by_subset_oracle(a):
    for track in a.tracks:
        assert au.to_text(au.project(a, track)) == au.to_text(loop_project(a, track))


@settings(max_examples=100)
@given(raw_tables(max_states=6, copies=2, track_sets=WIDE))
def test_forward_and_reversal_projections_agree(a):
    for track in a.tracks:
        nfa = au._GuessNfa(a, track)
        forward = au._project_forward(nfa, au.STATE_CAP)
        assert au.to_text(au._project_reversal(nfa)) == au.to_text(forward)


@pytest.mark.parametrize("cells", [1, 40, 300])
@settings(max_examples=30)
@given(pair=table_pairs())
def test_small_chunks_give_the_same_automata(cells, pair):
    # one item per chunk, and chunks of a few items that end inside a
    # breadth-first level
    a, b, op = pair
    raw, combined = _raw_product(a, b, op)
    normalized = au.normalize_padding(a)
    projected = [au.project(a, t) for t in a.tracks]
    reversal = [au._project_reversal(au._GuessNfa(a, t)) for t in a.tracks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(au, "CHUNK_CELLS", cells)
        assert _raw_product(a, b, op) == (raw, combined)
        assert au.normalize_padding(a) == normalized
        assert [au.project(a, t) for t in a.tracks] == projected
        assert [au._project_reversal(au._GuessNfa(a, t)) for t in a.tracks] == reversal


def test_subset_chunks_number_subsets_like_the_one_by_one_construction(monkeypatch):
    # the guess NFA of a random 3-track table, forward: the chunked rows
    # equal the subset-by-subset rows at every chunk size
    rng = random.Random(11)
    base, n = 2, 12
    rows = tuple(tuple(rng.randrange(n) for _ in range(base**3)) for _ in range(n))
    a = au.MultiTrackDfa(base, ("x", "y", "z"), rows, frozenset({1, 5, 7}), 0)
    nfa = au._GuessNfa(a, "y")
    step_one = lambda subset: nfa.forward(subset[None, :])[0]
    want = loop_det_by_sets(nfa.initial, step_one, nfa.accepting)
    for cells in (1, nfa.n_red * n, 3 * nfa.n_red * n, au.CHUNK_CELLS):
        monkeypatch.setattr(au, "CHUNK_CELLS", cells)
        got = au._det_by_sets(nfa.initial, nfa.forward, nfa.n_red, nfa.accepting, au.STATE_CAP)
        assert (got[0].tolist(), got[1]) == ([list(row) for row in want[0]], want[1])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
def test_packed_acceptance_matches_the_one_by_one_construction(n):
    # n below, at and past a multiple of 8: acceptance is read from packed
    # keys whose last byte has 8 - n % 8 padding bits
    rng = random.Random(n)
    for _ in range(5):
        rows = tuple(tuple(rng.randrange(n) for _ in range(4)) for _ in range(n))
        accepting = frozenset(q for q in range(n) if rng.random() < 0.3) | {n - 1}
        nfa = au._GuessNfa(au.MultiTrackDfa(2, ("x", "y"), rows, accepting, rng.randrange(n)), "y")
        for start, step, final in (
            (nfa.initial, nfa.forward, nfa.accepting),
            (nfa.accepting, nfa.backward, nfa.initial),
        ):
            want = loop_det_by_sets(start, lambda subset: step(subset[None, :])[0], final)
            got = au._det_by_sets(start, step, nfa.n_red, final, au.STATE_CAP)
            assert (got[0].tolist(), got[1]) == ([list(row) for row in want[0]], want[1])


def test_columns_decode_symbols_like_the_digit_loop():
    for base in range(2, 7):
        for m in range(5):
            cols = au._columns(base, m)
            # m = 0 is one symbol with no digits
            assert cols.shape == (base**m, m)
            assert cols.tolist() == [column_digits(s, base, m) for s in range(base**m)]
            assert not cols.flags.writeable


def test_symbol_cap_fires_on_every_call(monkeypatch):
    au._columns(3, 4)
    au.add_predicate("x", "y", "z", 3)
    monkeypatch.setattr(au, "_SYMBOL_CAP", 3**4 - 1)
    # cached before the patch, refused after it
    with pytest.raises(CompileBlowup, match="more than 80 symbols"):
        au._columns(3, 4)
    assert au._columns(3, 3).shape == (27, 3)
    with pytest.raises(CompileBlowup):
        au.combine(au.add_predicate("x", "y", "z", 3), au.eq_predicate("z", "w", 3), "and")

"""Multi-track automata over base-k digit columns.

An automaton reads tuples of digits, one per named track, most significant
column first.  Acceptance is by value: every automaton built here is
padding invariant (prepending all-zero columns never changes acceptance),
so a tuple of naturals is accepted iff any common-length digit string for
it is.  Operations return minimized automata with a canonical breadth
first state numbering, which makes textual equality an equivalence test.

There is one of each core algorithm.  `minimize` is Moore's partition
refinement on hashed signatures (after Valmari's refinement-based
minimization, and the automaton core of Walnut): each round hashes every
state's acceptance bit and successor blocks into one 64-bit key with
fixed odd multipliers and numbers the keys with np.unique.  When the
block count stops growing, an exact check confirms that every state's
signature equals that of its block's first state; a hash collision fails
the check, and refinement restarts from the acceptance partition with
the next multipliers.  Every subset construction (projection, padding
normalization) runs `_det_by_sets` over boolean state vectors, and every
product (`combine`, and the sequence atoms in `logic`) runs `_product`.

Tracks are kept sorted by name; combining automata with different track
sets implicitly cylindrifies (the automaton simply does not read the
extra tracks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BaseMismatch, CompileBlowup, FormatError, UnknownLetter, UnknownTrack
from .words import Dfao, _base_header, _numbered_lines, _parse_int, _read_states, digits_msd


@dataclass(frozen=True)
class MultiTrackDfa:
    base: int
    tracks: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]
    initial: int = 0

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def n_symbols(self) -> int:
        return self.base ** len(self.tracks)


# the most states any automaton operation may build; read at call time
STATE_CAP = 10**6


def _check_cap(count: int, cap: int):
    if count > cap:
        raise CompileBlowup("automaton grew past the state cap (%d states)" % count)


def sym_of(digits: Sequence[int], base: int) -> int:
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


def digits_of(sym: int, base: int, m: int) -> tuple[int, ...]:
    out = [0] * m
    for i in range(m - 1, -1, -1):
        sym, out[i] = divmod(sym, base)
    return tuple(out)


def _submap(all_tracks: Sequence[str], sub_tracks: Sequence[str], base: int) -> list[int]:
    """For each symbol over all_tracks, the induced symbol over sub_tracks."""
    positions = [all_tracks.index(t) for t in sub_tracks]
    m = len(all_tracks)
    n_all = base**m
    out = []
    for sym in range(n_all):
        digs = digits_of(sym, base, m)
        out.append(sym_of([digs[p] for p in positions], base))
    return out


# ---------------------------------------------------------------------------
# minimization and canonical form


def _table(a: MultiTrackDfa) -> np.ndarray:
    return np.asarray(a.transitions, dtype=np.intp).reshape(a.n_states, a.n_symbols)


def _bfs_order(table: np.ndarray, start: int) -> np.ndarray:
    """States reachable from start, in breadth-first order of discovery
    (by parent, then by symbol), one level per step."""
    seen = np.zeros(len(table), dtype=bool)
    seen[start] = True
    levels = [np.array([start], dtype=np.intp)]
    while True:
        targets = table[levels[-1]].ravel()
        targets = targets[~seen[targets]]
        if not len(targets):
            return np.concatenate(levels)
        _, first = np.unique(targets, return_index=True)
        level = targets[np.sort(first)]
        seen[level] = True
        levels.append(level)


def _multipliers(width: int, attempt: int) -> np.ndarray:
    """Odd 64-bit multipliers for the row hash, fixed per attempt: the
    splitmix64 outputs for counters attempt*width .. (attempt+1)*width-1
    (numpy.random is not used: importing it costs milliseconds and
    megabytes on every command)."""
    x = np.arange(attempt * width, (attempt + 1) * width, dtype=np.uint64) + np.uint64(1)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31)) | np.uint64(1)


def _refine(rows: np.ndarray, acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Language-equivalence classes by hashed Moore refinement (see the
    module docstring): (block of each state, first state of each block).
    Equal signatures get equal keys, so a collision can only merge
    blocks, which the exact check catches."""
    attempt = 0
    while True:
        mults = _multipliers(rows.shape[1] + 1, attempt)
        head = acc.astype(np.uint64) * mults[0]
        _, first, block = np.unique(acc, return_index=True, return_inverse=True)
        while True:
            keys = head + block.astype(np.uint64)[rows] @ mults[1:]
            _, new_first, block = np.unique(keys, return_index=True, return_inverse=True)
            grown = len(new_first) > len(first)
            first = new_first
            if not grown:
                break
        sig = block[rows]
        rep = first[block]
        if np.array_equal(acc[rep], acc) and np.array_equal(sig[rep], sig):
            return block, first
        attempt += 1


def minimize(a: MultiTrackDfa) -> MultiTrackDfa:
    """Trim, merge language-equivalent states, renumber breadth first.

    The result is canonical: any two automata with the same language
    over the same tracks minimize to identical objects."""
    table = _table(a)
    live = _bfs_order(table, a.initial)
    _check_cap(len(live), STATE_CAP)
    index = np.zeros(a.n_states, dtype=np.intp)
    index[live] = np.arange(len(live))
    rows = index[table[live]]
    acc = np.isin(live, list(a.accepting))
    block, first = _refine(rows, acc)

    quotient = block[rows[first]]
    order = _bfs_order(quotient, int(block[0]))
    renum = np.zeros(len(first), dtype=np.intp)
    renum[order] = np.arange(len(order))
    # rows refer to one int object per state, as the Python-built tables
    # do, instead of one per cell: a cell then costs 8 bytes, not 40
    ids = list(range(len(order)))
    canon = renum[quotient[order]]
    final_rows = tuple(tuple(map(ids.__getitem__, row.tolist())) for row in canon)
    final_acc = frozenset(np.flatnonzero(acc[first[order]]).tolist())
    return MultiTrackDfa(a.base, a.tracks, final_rows, final_acc, 0)


def _coreachable(a: MultiTrackDfa) -> frozenset[int]:
    preds: list[list[int]] = [[] for _ in range(a.n_states)]
    for q, row in enumerate(a.transitions):
        for t in set(row):
            preds[t].append(q)
    seen = set(a.accepting)
    stack = list(a.accepting)
    while stack:
        q = stack.pop()
        for p in preds[q]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return frozenset(seen)


def normalize_padding(a: MultiTrackDfa) -> MultiTrackDfa:
    """Close the language under leading all-zero columns, both ways.

    Afterwards a string is accepted iff any string with the same track
    values is, so acceptance depends on values only.  All primitive
    constructions here are already padding invariant, in which case this
    is the identity (checked cheaply on the minimal automaton: the
    initial state must be fixed by the zero column).
    """
    a = minimize(a)
    if a.transitions[a.initial][0] == a.initial:
        return a
    n = a.n_states
    chain = []
    q = a.initial
    while q not in chain:
        chain.append(q)
        q = a.transitions[q][0]
    table = _table(a)

    # subsets get one extra slot, n, for the sentinel "input so far is all
    # zero columns"; it carries the zero-closure states with it so
    # acceptance of 0^j s needs no lookahead
    initial = np.zeros(n + 1, dtype=bool)
    initial[chain + [n]] = True
    accepting = np.zeros(n + 1, dtype=bool)
    accepting[list(a.accepting)] = True
    syms = np.arange(a.n_symbols)[:, None]

    def step_all(subset: np.ndarray) -> np.ndarray:
        out = np.zeros((a.n_symbols, n + 1), dtype=bool)
        out[syms, table[np.flatnonzero(subset[:n])].T] = True
        if subset[n]:
            out[0, chain + [n]] = True
        return out

    rows, acc_ids = _det_by_sets(initial, step_all, accepting, STATE_CAP)
    return minimize(MultiTrackDfa(a.base, a.tracks, tuple(rows), acc_ids, 0))


# ---------------------------------------------------------------------------
# primitive predicates


def accept_all(base: int, tracks: Iterable[str] = ()) -> MultiTrackDfa:
    tracks = tuple(sorted(tracks))
    nsym = base ** len(tracks)
    return MultiTrackDfa(base, tracks, ((0,) * nsym,), frozenset({0}), 0)

def reject_all(base: int, tracks: Iterable[str] = ()) -> MultiTrackDfa:
    tracks = tuple(sorted(tracks))
    nsym = base ** len(tracks)
    return MultiTrackDfa(base, tracks, ((0,) * nsym,), frozenset(), 0)


def _two_track(base, x, y, table, accepting):
    """Helper for comparison automata; table maps (state, cmp) -> state
    where cmp is -1, 0, 1 for the current digit comparison."""
    if x == y:
        raise UnknownTrack("comparison needs two distinct tracks")
    tracks = tuple(sorted((x, y)))
    xi = tracks.index(x)
    n = len(table)
    rows = []
    for q in range(n):
        row = []
        for sym in range(base * base):
            dx, dy = digits_of(sym, base, 2) if xi == 0 else digits_of(sym, base, 2)[::-1]
            cmp_ = (dx > dy) - (dx < dy)
            row.append(table[q][cmp_])
        rows.append(tuple(row))
    return minimize(MultiTrackDfa(base, tracks, tuple(rows), frozenset(accepting), 0))


def eq_predicate(x: str, y: str, base: int) -> MultiTrackDfa:
    # state 0: equal so far; state 1: differ somewhere
    table = [{-1: 1, 0: 0, 1: 1}, {-1: 1, 0: 1, 1: 1}]
    return _two_track(base, x, y, table, {0})


def lt_predicate(x: str, y: str, base: int) -> MultiTrackDfa:
    # msd comparison: the first differing column decides; 1 = less, 2 = greater
    table = [{-1: 1, 0: 0, 1: 2}, {-1: 1, 0: 1, 1: 1}, {-1: 2, 0: 2, 1: 2}]
    return _two_track(base, x, y, table, {1})


def leq_predicate(x: str, y: str, base: int) -> MultiTrackDfa:
    table = [{-1: 1, 0: 0, 1: 2}, {-1: 1, 0: 1, 1: 1}, {-1: 2, 0: 2, 1: 2}]
    return _two_track(base, x, y, table, {0, 1})


def const_predicate(x: str, value: int, base: int) -> MultiTrackDfa:
    """Track x equals the given constant."""
    if value < 0:
        raise ValueError("constants are naturals")
    dead = value + 1
    rows = []
    for v in range(value + 1):
        row = []
        for d in range(base):
            nxt = v * base + d
            row.append(nxt if nxt <= value else dead)
        rows.append(tuple(row))
    rows.append((dead,) * base)
    return minimize(MultiTrackDfa(base, (x,), tuple(rows), frozenset({value}), 0))


def add_predicate(x: str, y: str, z: str, base: int) -> MultiTrackDfa:
    """x + y = z, columns msd first.

    The live balance value(x) + value(y) - value(z) over the consumed
    prefix can only finish at zero from balances 0 and -1; anything else
    is a dead end.
    """
    if len({x, y, z}) != 3:
        raise UnknownTrack("addition needs three distinct tracks")
    tracks = tuple(sorted((x, y, z)))
    pos = {t: i for i, t in enumerate(tracks)}
    balances = {0: 0, -1: 1}
    dead = 2
    rows = []
    for b in (0, -1):
        row = []
        for sym in range(base**3):
            digs = digits_of(sym, base, 3)
            nb = base * b + digs[pos[x]] + digs[pos[y]] - digs[pos[z]]
            row.append(balances.get(nb, dead))
        rows.append(tuple(row))
    rows.append((dead,) * base**3)
    return minimize(MultiTrackDfa(base, tracks, tuple(rows), frozenset({0}), 0))


def padded_dfao(d: Dfao) -> tuple[tuple[tuple[int, ...], ...], int, tuple[str, ...]]:
    """Transitions, initial state and per-state outputs with the initial
    state fixed by digit 0, adding a padding state when needed."""
    if d.transitions[d.initial][0] == d.initial:
        return d.transitions, d.initial, d.outputs
    rows = [tuple([0] + [d.transitions[d.initial][e] + 1 for e in range(1, d.base)])]
    for q in range(d.n_states):
        rows.append(tuple(d.transitions[q][e] + 1 for e in range(d.base)))
    return tuple(rows), 0, (d.outputs[d.initial],) + tuple(d.outputs)


def seq_letter_predicate(d: Dfao, track: str, letter: str) -> MultiTrackDfa:
    """Positions n with d's output at n equal to the given letter.

    Leading zero digits are transparent even when d's initial state is
    not fixed by digit 0.
    """
    if letter not in d.letters:
        raise UnknownLetter("letter %r not among outputs %r" % (letter, d.letters))
    rows, initial, outputs = padded_dfao(d)
    accepting = frozenset(q for q in range(len(rows)) if outputs[q] == letter)
    return minimize(MultiTrackDfa(d.base, (track,), rows, accepting, initial))


# ---------------------------------------------------------------------------
# boolean combinations, projection, renaming


def _product(
    left: tuple[Sequence[Sequence[int]], int, Sequence[int]],
    right: tuple[Sequence[Sequence[int]], int, Sequence[int]],
    accept: Callable[[int, int], bool],
) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """Reachable part of the product of two transition tables.

    Each side is (table, start state, symbol map): symbol s of the product
    moves that side on map[s].  A pair of states accepts when accept(p, q)
    holds.  Pairs are numbered breadth first from the pair of starts."""
    (ta, ia, map_a), (tb, ib, map_b) = left, right
    index = {(ia, ib): 0}
    order = [(ia, ib)]
    rows = []
    for p, q in order:
        ra, rb = ta[p], tb[q]
        row = []
        for sa, sb in zip(map_a, map_b):
            pair = (ra[sa], rb[sb])
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
                _check_cap(len(order), STATE_CAP)
            row.append(index[pair])
        rows.append(tuple(row))
    accepting = frozenset(i for i, (p, q) in enumerate(order) if accept(p, q))
    return tuple(rows), accepting


def combine(a: MultiTrackDfa, b: MultiTrackDfa, op: str) -> MultiTrackDfa:
    """Product automaton; op is 'and' or 'or'.  Missing tracks on either
    side are simply not read by that side."""
    if a.base != b.base:
        raise BaseMismatch("bases %d and %d" % (a.base, b.base))
    if op not in ("and", "or"):
        raise ValueError("op must be 'and' or 'or'")
    base = a.base
    tracks = tuple(sorted(set(a.tracks) | set(b.tracks)))
    join = all if op == "and" else any
    rows, accepting = _product(
        (a.transitions, a.initial, _submap(tracks, a.tracks, base)),
        (b.transitions, b.initial, _submap(tracks, b.tracks, base)),
        lambda p, q: join((p in a.accepting, q in b.accepting)),
    )
    return minimize(MultiTrackDfa(base, tracks, rows, accepting, 0))


def conjoin(automata: Sequence[MultiTrackDfa]) -> MultiTrackDfa:
    """Fold a conjunction smallest first to keep intermediates small."""
    if not automata:
        raise ValueError("need at least one operand")
    todo = sorted(automata, key=lambda x: x.n_states)
    out = todo[0]
    for nxt in todo[1:]:
        out = combine(out, nxt, "and")
    return out


def complement(a: MultiTrackDfa) -> MultiTrackDfa:
    # the automaton is total, so flipping acceptance suffices; the state
    # graph is untouched and the numbering stays canonical
    full = frozenset(range(a.n_states))
    return MultiTrackDfa(a.base, a.tracks, a.transitions, full - a.accepting, a.initial)


class _GuessNfa:
    """The automaton with one track's digits guessed nondeterministically,
    restricted to states that can still reach acceptance."""

    def __init__(self, a: MultiTrackDfa, track: str):
        base = a.base
        m = len(a.tracks)
        p = a.tracks.index(track)
        self.base = base
        self.kept = tuple(t for t in a.tracks if t != track)
        self.n_red = base ** len(self.kept)
        self.n = a.n_states
        pow_low = base ** (m - 1 - p)
        reds = np.arange(self.n_red)
        hi, lo = np.divmod(reds, pow_low)
        # guess_cols[red] = the full symbols matching reduced symbol red
        self.guess_cols = (
            (hi[:, None] * base + np.arange(base)[None, :]) * pow_low + lo[:, None]
        )
        self.trans = _table(a)
        useful = _coreachable(a)
        self.useful = np.zeros(self.n, dtype=bool)
        self.useful[list(useful)] = True
        closure = {a.initial}
        stack = [a.initial]
        zero_syms = [int(s) for s in self.guess_cols[0]]
        while stack:
            q = stack.pop()
            for s in zero_syms:
                t = a.transitions[q][s]
                if t not in closure:
                    closure.add(t)
                    stack.append(t)
        self.initial = np.zeros(self.n, dtype=bool)
        self.initial[[q for q in closure if self.useful[q]]] = True
        self.accepting = np.zeros(self.n, dtype=bool)
        self.accepting[[q for q in a.accepting if self.useful[q]]] = True

    def forward_all(self, subset: np.ndarray) -> np.ndarray:
        """Successor subsets for every reduced symbol at once, [n_red, n]."""
        out = np.zeros((self.n_red, self.n), dtype=bool)
        states = np.flatnonzero(subset)
        if len(states):
            targets = self.trans[states][:, self.guess_cols]
            reds = np.arange(self.n_red)[:, None, None]
            out[reds, targets.transpose(1, 0, 2)] = True
            out &= self.useful[None, :]
        return out

    def backward_all(self, member: np.ndarray) -> np.ndarray:
        """Predecessor subsets for every reduced symbol, [n_red, n]."""
        hits = member[self.trans]
        out = hits[:, self.guess_cols].any(axis=2).T.copy()
        out &= self.useful[None, :]
        return out


def _det_by_sets(
    initial: np.ndarray,
    step_all: Callable[[np.ndarray], np.ndarray],
    accepting: np.ndarray,
    cap: int,
) -> tuple[list[tuple[int, ...]], frozenset[int]]:
    """Subset construction over boolean state vectors, raising
    CompileBlowup past `cap` subsets.

    ``step_all`` maps one subset to successor subsets for all symbols in
    a single array; subsets are keyed by their packed bits."""
    index: dict[bytes, int] = {}
    order: list[np.ndarray] = []

    def intern(vec: np.ndarray, key: bytes) -> int:
        k = index.get(key)
        if k is None:
            k = len(order)
            index[key] = k
            order.append(vec.copy())
            _check_cap(len(order), cap)
        return k

    intern(initial, np.packbits(initial, bitorder="little").tobytes())
    rows: list[tuple[int, ...]] = []
    acc_ids = []
    i = 0
    while i < len(order):
        subset = order[i]
        if bool(np.any(subset & accepting)):
            acc_ids.append(i)
        nxt = step_all(subset)
        packed = np.packbits(nxt, axis=1, bitorder="little")
        rows.append(
            tuple(intern(nxt[r], packed[r].tobytes()) for r in range(nxt.shape[0]))
        )
        i += 1
    return rows, frozenset(acc_ids)


def _project_one(a: MultiTrackDfa, track: str) -> MultiTrackDfa:
    nfa = _GuessNfa(a, track)
    base, kept = nfa.base, nfa.kept

    def finish(rows, accepting):
        return normalize_padding(MultiTrackDfa(base, kept, tuple(rows), accepting, 0))

    # forward subset construction first; most projections stay small
    soft = min(20000 + 4 * nfa.n, STATE_CAP)
    try:
        rows, accepting = _det_by_sets(
            nfa.initial, nfa.forward_all, nfa.accepting, soft
        )
        return finish(rows, accepting)
    except CompileBlowup:
        pass

    # determinize the reversed language, minimize, reverse again: lands
    # directly on the minimal automaton even when forward subsets blow up
    rows, accepting = _det_by_sets(nfa.accepting, nfa.backward_all, nfa.initial, STATE_CAP)
    mid = minimize(MultiTrackDfa(base, kept, tuple(rows), accepting, 0))

    mid_trans = _table(mid)
    mid_acc = np.zeros(mid.n_states, dtype=bool)
    mid_acc[list(mid.accepting)] = True
    mid_init = np.zeros(mid.n_states, dtype=bool)
    mid_init[mid.initial] = True

    rows, accepting = _det_by_sets(
        mid_acc, lambda s: s[mid_trans].T.copy(), mid_init, STATE_CAP
    )
    return finish(rows, accepting)


def project(a: MultiTrackDfa, track: str) -> MultiTrackDfa:
    """Existential quantification over one track.

    The projected value may need more digit columns than the remaining
    tracks, so start states are closed under columns that are zero on
    the kept tracks.  States that cannot reach acceptance are pruned
    before the subset construction.
    """
    if track not in a.tracks:
        return a
    return _project_one(a, track)


def forall(a: MultiTrackDfa, track: str) -> MultiTrackDfa:
    """Universal quantification as the dual of projection."""
    if track not in a.tracks:
        return a
    return complement(project(complement(a), track))


def rename_tracks(a: MultiTrackDfa, mapping: Mapping[str, str]) -> MultiTrackDfa:
    """Rename tracks; mapping two tracks to one name restricts to the
    diagonal (both read the same digits)."""
    for t in mapping:
        if t not in a.tracks:
            raise UnknownTrack("no track %r" % t)
    image = [mapping.get(t, t) for t in a.tracks]
    new_tracks = tuple(sorted(set(image)))
    old_sym = _submap(new_tracks, image, a.base)
    rows = tuple(tuple(row[s] for s in old_sym) for row in a.transitions)
    return minimize(MultiTrackDfa(a.base, new_tracks, rows, a.accepting, a.initial))


# ---------------------------------------------------------------------------
# evaluation


def accepts_string(a: MultiTrackDfa, columns: Sequence[Sequence[int]]) -> bool:
    q = a.initial
    for col in columns:
        if len(col) != len(a.tracks):
            raise UnknownTrack("column arity %d != %d" % (len(col), len(a.tracks)))
        q = a.transitions[q][sym_of(col, a.base)]
    return q in a.accepting


def accepts(a: MultiTrackDfa, assignment: Mapping[str, int]) -> bool:
    """Value-level acceptance; missing tracks are an error."""
    for t in a.tracks:
        if t not in assignment:
            raise UnknownTrack("no value for track %r" % t)
    digit_strings = {t: digits_msd(assignment[t], a.base) for t in a.tracks}
    length = max((len(v) for v in digit_strings.values()), default=0)
    cols = []
    for i in range(length):
        col = []
        for t in a.tracks:
            ds = digit_strings[t]
            col.append(ds[i - (length - len(ds))] if i >= length - len(ds) else 0)
        cols.append(col)
    return accepts_string(a, cols)


def accepted_values(
    a: MultiTrackDfa, fixed: Mapping[str, int], track: str, limit: int
) -> list[int]:
    """Values v < limit with track=v (others per fixed) accepted."""
    if track not in a.tracks:
        raise UnknownTrack("no track %r" % track)
    out = []
    for v in range(limit):
        assignment = dict(fixed)
        assignment[track] = v
        if accepts(a, assignment):
            out.append(v)
    return out


def is_empty(a: MultiTrackDfa) -> bool:
    return a.initial not in _coreachable(a)


def is_universal(a: MultiTrackDfa) -> bool:
    return is_empty(complement(a))


def equivalent(a: MultiTrackDfa, b: MultiTrackDfa) -> bool:
    if a.base != b.base or a.tracks != b.tracks:
        return False
    return to_text(minimize(a)) == to_text(minimize(b))


# ---------------------------------------------------------------------------
# serialization


def to_text(a: MultiTrackDfa) -> str:
    """Canonical text form: equal languages over equal tracks serialize
    identically (after minimize)."""
    base = a.base
    m = len(a.tracks)
    out = ["base: %d" % base, "tracks: %s" % " ".join(a.tracks)]
    for q in range(a.n_states):
        tag = " accepting" if q in a.accepting else ""
        out.append("state %d%s" % (q, tag))
        for sym in range(a.n_symbols):
            digs = ",".join(str(d) for d in digits_of(sym, base, m))
            out.append("%s -> %d" % (digs, a.transitions[q][sym]))
    return "\n".join(out) + "\n"


def from_text(text: str) -> MultiTrackDfa:
    """Read the `to_text` format.  Malformed input raises FormatError with
    the 1-based line number."""
    lines = _numbered_lines(text)
    header, base = _base_header(lines)
    if len(lines) < 2 or not lines[1][1].startswith("tracks:"):
        raise FormatError(
            "second line must declare 'tracks: ...'", lines[1][0] if len(lines) > 1 else header
        )
    tracks = tuple(lines[1][1][len("tracks:") :].split())
    if list(tracks) != sorted(set(tracks)):
        raise FormatError("tracks must be distinct and sorted", lines[1][0])
    m = len(tracks)

    def symbol(lhs: str, no: int) -> int:
        digs = [_parse_int(x, no) for x in lhs.split(",")] if lhs else []
        if len(digs) != m:
            raise FormatError("expected %d digits, got %d" % (m, len(digs)), no)
        if any(not 0 <= d < base for d in digs):
            raise FormatError("digit outside 0..%d" % (base - 1), no)
        return sym_of(digs, base)

    nsym = base**m
    accepts_tail = lambda tail: tail in ([], ["accepting"])
    tails, rows = _read_states(lines[2:], header, accepts_tail, symbol, nsym, "%d transitions" % nsym)
    accepting = frozenset(q for q, tail in tails.items() if tail)
    return MultiTrackDfa(base, tracks, tuple(rows), accepting, 0)

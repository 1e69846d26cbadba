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
the next multipliers.  `minimize` makes at most one breadth-first pass,
the trim: a table already trimmed and numbered breadth first (every
search output and every `minimize` output) is refined as it is, and the
quotient is numbered by its blocks' first states, which on such rows is
its breadth-first order.  Every subset construction (projection, padding
normalization) runs `_det_by_sets` over boolean state vectors, and every
product (`combine`, and the sequence atoms in `logic`) runs `_product`.

Both run one breadth-first search, `_search`, over keys (int64 pair
codes p*nb + q, or packed subset bits), a chunk of the frontier at a
time: the successors of up to `CHUNK_CELLS` cells are computed in one
numpy step and deduplicated in one np.unique pass, and the distinct keys
are numbered through one dict, by parent and then by symbol, as an
item-by-item search would.  Acceptance is read from the keys at the end.
Projection tries the forward subset construction under a soft cap and
falls back to Brzozowski's double reversal, whose predecessor step ORs
one gather per guessed digit.  Reachability inside one table
(`_reachable`: the trim of `minimize`, the zero closure of a projection)
is the same search over state numbers.  Coreachability takes no search:
in a minimal automaton the one state that cannot reach acceptance, if
any, is a rejecting state whose row points back to itself (`_live`).

Tracks are kept sorted by name; combining automata with different track
sets implicitly cylindrifies (the automaton simply does not read the
extra tracks).  Symbol s over m tracks is the column of digits that
spells s in base k, first track most significant: the C order of
`np.ravel_multi_index`, which encodes a column.  `_columns` is the one
decoder, and it refuses an alphabet past `_SYMBOL_CAP` symbols with
CompileBlowup, before anything is built: the fourth cap, next to
`STATE_CAP`, `counting._DFAO_STATE_CAP` and `construction.MAX_LETTERS`.

A transition table has one form, at rest and inside every operation: a
C-contiguous, read-only int32 array [n_states, n_symbols].  Rows given
as nested sequences are converted once, on construction, and the
operations read and build arrays only.  Automata compare and hash by
value (base, tracks, initial state, accepting states and the table).
Digit automata of words (`words.Dfao`) keep tuple rows, so the word
layer does not depend on numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BaseMismatch, CompileBlowup, FormatError, UnknownLetter, UnknownTrack
from .words import Dfao, _base_header, _numbered_lines, _parse_int, _read_states, digits_msd


@dataclass(frozen=True, eq=False)
class MultiTrackDfa:
    base: int
    tracks: tuple[str, ...]
    transitions: np.ndarray  # int32 [n_states, n_symbols], read-only
    accepting: frozenset[int]
    initial: int = 0

    def __post_init__(self):
        table = np.ascontiguousarray(self.transitions, dtype=np.int32)
        table = table.reshape(-1, self.n_symbols)
        table.flags.writeable = False
        object.__setattr__(self, "transitions", table)

    def __eq__(self, other):
        if not isinstance(other, MultiTrackDfa):
            return NotImplemented
        return (
            (self.base, self.tracks, self.initial, self.accepting)
            == (other.base, other.tracks, other.initial, other.accepting)
            and np.array_equal(self.transitions, other.transitions)
        )

    def __hash__(self):
        return hash(
            (self.base, self.tracks, self.initial, self.accepting, self.transitions.tobytes())
        )

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def n_symbols(self) -> int:
        return self.base ** len(self.tracks)


# the most states any automaton operation may build; read at call time
STATE_CAP = 10**6

# the most cells one chunk of a breadth-first frontier may expand at
# once: pairs x symbols in `_product`, subsets x symbols x states in
# `_det_by_sets`, rows x symbols in `_refine`, and table cells in
# `_numbered`; read at call time
CHUNK_CELLS = 1 << 21


def _check_cap(count: int, cap: int):
    if count > cap:
        raise CompileBlowup("automaton grew past the state cap (%d states)" % count)


# the most symbols (base ** tracks) one alphabet may have; read at call time
_SYMBOL_CAP = 1 << 20


def _columns(base: int, m: int) -> np.ndarray:
    """Row s holds the digits of symbol s over m tracks (one empty row for
    m = 0); read-only and cached, the cap checked on every call."""
    if base**m > _SYMBOL_CAP:
        raise CompileBlowup(
            "alphabet of %d tracks in base %d has more than %d symbols" % (m, base, _SYMBOL_CAP)
        )
    return _digit_table(base, m)


@lru_cache(maxsize=64)
def _digit_table(base: int, m: int) -> np.ndarray:
    place = base ** np.arange(m - 1, -1, -1)
    out = np.arange(base**m)[:, None] // place % base
    out.flags.writeable = False
    return out


def _submap(all_tracks: tuple[str, ...], sub_tracks: tuple[str, ...], base: int) -> np.ndarray:
    """For each symbol over all_tracks, the induced symbol over sub_tracks."""
    pick = [all_tracks.index(t) for t in sub_tracks]
    return _columns(base, len(all_tracks))[:, pick] @ base ** np.arange(len(pick) - 1, -1, -1)


def _mask(n: int, states: Iterable[int]) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    out[list(states)] = True
    return out


def _grown(buf: np.ndarray, size: int) -> np.ndarray:
    """buf with room for at least size rows, doubling when it must grow."""
    if size <= len(buf):
        return buf
    out = np.empty((max(size, 2 * len(buf)),) + buf.shape[1:], dtype=buf.dtype)
    out[: len(buf)] = buf
    return out


def _search(
    start: np.ndarray,
    successors: Callable[[np.ndarray], np.ndarray],
    n_symbols: int,
    chunk: int,
    cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first numbering of the keys reachable from a one-key array,
    raising CompileBlowup past `cap` keys.

    ``successors`` maps a 1-D array of B keys to their B*n_symbols
    successor keys, parent by parent and symbol by symbol.  Keys are
    numbered by parent and then by symbol, `chunk` parents at a time
    (`_intern`).  Returns the int32 table [n, n_symbols] and the keys by
    id."""
    keys = start
    index = {start.tolist()[0]: 0}
    chunks: list[np.ndarray] = []
    done = 0
    while done < len(index):
        block = keys[done : min(len(index), done + chunk)]
        ids, new = _intern(successors(block), index)
        _check_cap(len(index), cap)
        keys = _grown(keys, len(index))
        keys[len(index) - len(new) : len(index)] = new
        chunks.append(ids.reshape(len(block), n_symbols))
        done += len(block)
    return np.concatenate(chunks), keys[: len(index)]


def _intern(keys: np.ndarray, index: dict) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the keys in index, numbering unseen keys in order of first
    occurrence; also the unseen keys, in that order.  A function of its
    own, so a chunk's temporaries are freed before the next one."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    distinct = keys[first[by_first]]
    old = len(index)
    uid = np.empty(len(first), dtype=np.int32)
    uid[by_first] = [index.setdefault(k, len(index)) for k in distinct.tolist()]
    return uid[inverse], distinct[uid[by_first] >= old]


# ---------------------------------------------------------------------------
# minimization and canonical form


def _reachable(table: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """The states reachable from start, numbered breadth first by
    `_search` (by parent, then by symbol): the renumbered table, and the
    old state of each number.  Raises CompileBlowup past STATE_CAP
    states."""
    width = table.shape[1]
    return _search(
        np.array([start]),
        lambda states: table[states].ravel(),
        width,
        max(1, CHUNK_CELLS // width),
        STATE_CAP,
    )


@lru_cache(maxsize=256)
def _multipliers(width: int, attempt: int) -> np.ndarray:
    """Odd 64-bit multipliers for the row hash, fixed per attempt: the
    splitmix64 outputs for counters attempt*width .. (attempt+1)*width-1
    (numpy.random is not used: importing it costs milliseconds and
    megabytes on every command).  Read-only; cached per argument pair."""
    x = np.arange(attempt * width, (attempt + 1) * width, dtype=np.uint64) + np.uint64(1)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31)) | np.uint64(1)
    x.flags.writeable = False
    return x


def _refine(rows: np.ndarray, acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Language-equivalence classes by hashed Moore refinement (see the
    module docstring): (block of each state, first state of each block).
    Equal signatures get equal keys, so a collision can only merge
    blocks, which the exact check catches.  Keys and the check read the
    rows `CHUNK_CELLS` cells at a time."""
    n, width = rows.shape
    step = max(1, CHUNK_CELLS // width)
    spans = [slice(i, i + step) for i in range(0, n, step)]
    attempt = 0
    while True:
        mults = _multipliers(width + 1, attempt)
        # the acceptance partition: the bits themselves are its block codes
        codes = acc.astype(np.uint64)
        count = int(acc.any()) + int(not acc.all())
        head = codes * mults[0]
        while True:
            keys = head + np.concatenate([codes[rows[s]] @ mults[1:] for s in spans])
            _, first, block = np.unique(keys, return_index=True, return_inverse=True)
            if len(first) <= count:
                break
            count = len(first)
            codes = block.astype(np.uint64)
        # every state's successor blocks equal its block's first state's
        rep = first[block]
        if np.array_equal(acc[rep], acc) and all(
            np.array_equal(block[rows[s]], block[rows[rep[s]]]) for s in spans
        ):
            return block, first
        attempt += 1


def _numbered(table: np.ndarray) -> bool:
    """Whether every state is reachable from state 0 and numbered in
    breadth-first order of discovery (by parent, then by symbol), so that
    `_reachable(table, 0)` returns the table as it is.

    Read row by row, that holds when each cell is at most one above every
    cell before it (state 0 counts as seen), the largest cell is n-1, and
    each state s first occurs in a row below s.  The running maximum is
    taken `CHUNK_CELLS` cells at a time."""
    n, width = table.shape
    cells = table.reshape(-1)
    top = 0
    for lo in range(0, len(cells), CHUNK_CELLS):
        span = cells[lo : lo + CHUNK_CELLS]
        # before[i] = the largest state seen before span[i]
        before = np.empty_like(span)
        before[0] = top
        np.maximum.accumulate(span[:-1], out=before[1:])
        np.maximum(before, top, out=before)
        rise = span - before
        if rise.max() > 1:
            return False
        new = np.flatnonzero(rise == 1)
        if ((lo + new) // width >= span[new]).any():
            return False
        top = max(int(before[-1]), int(span[-1]))
    return top == n - 1


def minimize(a: MultiTrackDfa) -> MultiTrackDfa:
    """Trim, merge language-equivalent states, renumber breadth first.

    The result is canonical: any two automata with the same language
    over the same tracks minimize to identical objects.

    A table that is already trimmed and numbered breadth first from its
    initial state (`_numbered`: every search output and every minimize
    output) is refined as it is.  On such rows the quotient's
    breadth-first order is its blocks sorted by least state.  Let m be
    the least state of block B and (p, c) the first cell holding m.  If
    p had an equivalent state p' < p, then T[p', c] would be a member of
    B at an earlier cell, so, the rows being numbered, it would be smaller
    than m.  So p is the
    least state of its block, no quotient edge into B comes before
    (p, c), and the blocks are discovered in the order of their least
    states."""
    if a.initial == 0 and _numbered(a.transitions):
        _check_cap(a.n_states, STATE_CAP)
        rows = a.transitions
        acc = _mask(a.n_states, a.accepting)
    else:
        rows, live = _reachable(a.transitions, a.initial)
        acc = _mask(a.n_states, a.accepting)[live]
    block, first = _refine(rows, acc)

    quotient = block[rows[first]]
    order = np.argsort(first)
    renum = np.zeros(len(first), dtype=np.int32)
    renum[order] = np.arange(len(order))
    final_acc = frozenset(np.flatnonzero(acc[first[order]]).tolist())
    return MultiTrackDfa(a.base, a.tracks, renum[quotient[order]], final_acc, 0)


def _live(a: MultiTrackDfa) -> np.ndarray:
    """Mask of every state but a rejecting state whose whole row points
    back to itself.

    A minimal automaton has at most one state with the empty language,
    and every successor of that state is itself, so on minimal input
    this is exactly the states that can reach acceptance.  On any other
    input it is a superset of them."""
    rows = a.transitions
    sink = (rows == np.arange(a.n_states)[:, None]).all(axis=1)
    return ~sink | _mask(a.n_states, a.accepting)


def normalize_padding(a: MultiTrackDfa) -> MultiTrackDfa:
    """Close the language under leading all-zero columns, both ways.

    Afterwards a string is accepted iff any string with the same track
    values is, so acceptance depends on values only.  All primitive
    constructions here are already padding invariant, in which case this
    is the identity (checked cheaply on the minimal automaton: the
    initial state must be fixed by the zero column).
    """
    a = minimize(a)
    table = a.transitions
    if table[a.initial, 0] == a.initial:
        return a
    n = a.n_states
    chain = []
    q = a.initial
    while q not in chain:
        chain.append(q)
        q = int(table[q, 0])

    # subsets get one extra slot, n, for the sentinel "input so far is all
    # zero columns"; it carries the zero-closure states with it so
    # acceptance of 0^j s needs no lookahead
    restart = np.array(chain + [n])
    syms = np.arange(a.n_symbols)[None, :]

    def step(subsets: np.ndarray) -> np.ndarray:
        out = np.zeros((len(subsets), a.n_symbols, n + 1), dtype=bool)
        b, q = np.nonzero(subsets[:, :n])
        out[b[:, None], syms, table[q]] = True
        out[np.flatnonzero(subsets[:, n])[:, None], 0, restart] = True
        return out

    rows, accepting = _det_by_sets(
        _mask(n + 1, restart), step, a.n_symbols, _mask(n + 1, a.accepting), STATE_CAP
    )
    return minimize(MultiTrackDfa(a.base, a.tracks, rows, accepting, 0))


# ---------------------------------------------------------------------------
# primitive predicates


def _serial(base: int, tracks: Sequence[str], n_states: int,
            step: Callable[..., np.ndarray], accepting: Iterable[int]) -> MultiTrackDfa:
    """The minimal automaton, over the sorted tracks and from state 0, of
    the table step(q, *digits) [n_states, n_symbols]: q is the column of
    states and digits the row of each track's digits, tracks as given."""
    if len(set(tracks)) != len(tracks):
        raise UnknownTrack("tracks %s are not distinct" % ", ".join(tracks))
    names = tuple(sorted(tracks))
    cols = _columns(base, len(names))
    digits = [cols[:, names.index(t)] for t in tracks]
    rows = np.broadcast_to(step(np.arange(n_states)[:, None], *digits), (n_states, len(cols)))
    return minimize(MultiTrackDfa(base, names, rows, frozenset(accepting), 0))


def accept_all(base: int, tracks: Iterable[str] = ()) -> MultiTrackDfa:
    return _serial(base, tuple(tracks), 1, lambda q, *digits: q, {0})


def reject_all(base: int, tracks: Iterable[str] = ()) -> MultiTrackDfa:
    return _serial(base, tuple(tracks), 1, lambda q, *digits: q, ())


def eq_predicate(x: str, y: str, base: int) -> MultiTrackDfa:
    # state 0: equal so far; state 1: differ somewhere
    return _serial(base, (x, y), 2, lambda q, dx, dy: (q > 0) | (dx != dy), {0})


def _msd_compare(q: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # msd comparison: the first differing column decides; state 0 = equal
    # so far, 1 = less, 2 = greater
    return np.where(q == 0, (dx < dy) + 2 * (dx > dy), q)


def lt_predicate(x: str, y: str, base: int) -> MultiTrackDfa:
    return _serial(base, (x, y), 3, _msd_compare, {1})


def leq_predicate(x: str, y: str, base: int) -> MultiTrackDfa:
    return _serial(base, (x, y), 3, _msd_compare, {0, 1})


def const_predicate(x: str, value: int, base: int) -> MultiTrackDfa:
    """Track x equals the given constant: leading zeros, then the digits
    of the value.  State k has read its first k digits, state 0 also
    takes the leading zeros, and the last state is dead."""
    digits = digits_msd(value, base)
    dead = len(digits) + 1
    # the digit each state moves on; none for the last two
    want = np.array(digits + [-1, -1])

    def step(q, d):
        return np.where(d == want[q], q + 1, np.where((q == 0) & (d == 0), 0, dead))

    return _serial(base, (x,), dead + 1, step, {len(digits)})


def add_predicate(x: str, y: str, z: str, base: int) -> MultiTrackDfa:
    """x + y = z, columns msd first.

    The balance value(x) + value(y) - value(z) over the consumed prefix
    can only finish at zero from balances 0 and -1, states 0 and 1; state
    2 stands for every balance below, all dead ends, and any balance
    above 0 is one too.
    """

    def step(q, dx, dy, dz):
        balance = -base * q + dx + dy - dz
        return np.where((balance >= -1) & (balance <= 0), -balance, 2)

    return _serial(base, (x, y, z), 3, step, {0})


def padded_dfao(d: Dfao) -> tuple[np.ndarray, int, tuple[str, ...]]:
    """Transition table, initial state and per-state outputs with the
    initial state fixed by digit 0, adding a padding state 0 when needed."""
    table = np.asarray(d.transitions, dtype=np.int32)
    if table[d.initial, 0] == d.initial:
        return table, d.initial, d.outputs
    pad = table[d.initial] + 1
    pad[0] = 0
    return np.vstack([pad, table + 1]), 0, (d.outputs[d.initial],) + tuple(d.outputs)


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
    left: tuple[np.ndarray, int, np.ndarray],
    right: tuple[np.ndarray, int, np.ndarray],
    accept: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, frozenset[int]]:
    """Reachable part of the product of two transition tables.

    Each side is (int32 table, start state, symbol map): symbol s of the
    product moves that side on map[s].  accept(P, Q) maps arrays of left
    and right states to the acceptance of each pair (P[i], Q[i]).

    Pairs are numbered breadth first from the pair of starts, by parent
    and then by symbol, by `_search` over the pair codes p*nb + q."""
    (ta, ia, map_a), (tb, ib, map_b) = left, right
    # codes reach len(ta) * nb, past int32; as an int64 scalar, nb makes
    # int32 cells * nb int64
    nb = np.int64(len(tb))

    def successors(codes: np.ndarray) -> np.ndarray:
        p, q = np.divmod(codes, nb)
        return (ta[p[:, None], map_a] * nb + tb[q[:, None], map_b]).ravel()

    start = np.array([ia * nb + ib], dtype=np.int64)
    chunk = max(1, CHUNK_CELLS // len(map_a))
    rows, codes = _search(start, successors, len(map_a), chunk, STATE_CAP)
    p, q = np.divmod(codes, nb)
    return rows, frozenset(np.flatnonzero(accept(p, q)).tolist())


def combine(a: MultiTrackDfa, b: MultiTrackDfa, op: str) -> MultiTrackDfa:
    """Product automaton; op is 'and' or 'or'.  Missing tracks on either
    side are simply not read by that side."""
    if a.base != b.base:
        raise BaseMismatch("bases %d and %d" % (a.base, b.base))
    if op not in ("and", "or"):
        raise ValueError("op must be 'and' or 'or'")
    base = a.base
    tracks = tuple(sorted(set(a.tracks) | set(b.tracks)))
    join = np.logical_and if op == "and" else np.logical_or
    acc_a = _mask(a.n_states, a.accepting)
    acc_b = _mask(b.n_states, b.accepting)
    rows, accepting = _product(
        (a.transitions, a.initial, _submap(tracks, a.tracks, base)),
        (b.transitions, b.initial, _submap(tracks, b.tracks, base)),
        lambda p, q: join(acc_a[p], acc_b[q]),
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
    restricted to the states `_live` marks: on minimal input, the states
    that can still reach acceptance."""

    def __init__(self, a: MultiTrackDfa, track: str):
        base = a.base
        self.base = base
        self.kept = tuple(t for t in a.tracks if t != track)
        self.n_red = base ** len(self.kept)
        self.n = a.n_states
        # guess_cols[red, d] = the full symbol reducing to red whose
        # guessed digit is d
        self.guess_cols = np.empty((self.n_red, base), dtype=np.intp)
        guessed = _columns(base, len(a.tracks))[:, a.tracks.index(track)]
        self.guess_cols[_submap(a.tracks, self.kept, base), guessed] = np.arange(a.n_symbols)
        self.trans = a.transitions
        self.useful = _live(a)
        _, zero_closure = _reachable(self.trans[:, self.guess_cols[0]], a.initial)
        self.initial = _mask(self.n, zero_closure) & self.useful
        self.accepting = _mask(self.n, a.accepting) & self.useful

    @cached_property
    def back(self) -> list[np.ndarray]:
        """back[d][red, p] = the successor of p on reduced symbol red with
        guessed digit d; built on first use, by the reversal path only."""
        return [
            np.ascontiguousarray(self.trans[:, self.guess_cols[:, d]].T) for d in range(self.base)
        ]

    def forward(self, subsets: np.ndarray) -> np.ndarray:
        """Successor subsets [B, n_red, n] of subsets [B, n], for every
        reduced symbol."""
        out = np.zeros((len(subsets), self.n_red, self.n), dtype=bool)
        b, q = np.nonzero(subsets)
        reds = np.arange(self.n_red)[None, :, None]
        out[b[:, None, None], reds, self.trans[q[:, None, None], self.guess_cols]] = True
        out &= self.useful
        return out

    def backward(self, members: np.ndarray) -> np.ndarray:
        """Predecessor subsets [B, n_red, n] of subsets [B, n], for every
        reduced symbol: p precedes on red when some guessed digit leads
        into the subset."""
        out = np.take(members, self.back[0], axis=1)
        for table in self.back[1:]:
            out |= np.take(members, table, axis=1)
        out &= self.useful
        return out


def _det_by_sets(
    initial: np.ndarray,
    step: Callable[[np.ndarray], np.ndarray],
    n_symbols: int,
    accepting: np.ndarray,
    cap: int,
) -> tuple[np.ndarray, frozenset[int]]:
    """Subset construction over boolean state vectors, raising
    CompileBlowup past `cap` subsets.

    ``step`` maps a [B, n] stack of subsets to their [B, n_symbols, n]
    successors.  Subsets are numbered breadth first, by parent and then
    by symbol, by `_search` over their bits packed into one void key per
    subset; the padding bits of a key are 0, so equal subsets have equal
    keys.  Acceptance is read from the packed keys once, at the end."""
    n = len(initial)
    width = (n + 7) // 8
    row_key = np.dtype((np.void, width))

    def pack(sets: np.ndarray) -> np.ndarray:
        return np.packbits(sets, axis=1, bitorder="little").view(row_key).ravel()

    def bits(keys: np.ndarray) -> np.ndarray:
        return keys.view(np.uint8).reshape(len(keys), width)

    def successors(keys: np.ndarray) -> np.ndarray:
        sets = np.unpackbits(bits(keys), axis=1, count=n, bitorder="little").view(bool)
        return pack(step(sets).reshape(-1, n))

    chunk = max(1, CHUNK_CELLS // (n_symbols * n))
    rows, keys = _search(pack(initial[None, :]), successors, n_symbols, chunk, cap)
    acc = (bits(keys) & np.packbits(accepting, bitorder="little")).any(axis=1)
    return rows, frozenset(np.flatnonzero(acc).tolist())


def _project_forward(nfa: _GuessNfa, cap: int) -> MultiTrackDfa:
    """Projection by the forward subset construction of the guess NFA,
    raising CompileBlowup past `cap` subsets."""
    rows, accepting = _det_by_sets(nfa.initial, nfa.forward, nfa.n_red, nfa.accepting, cap)
    return normalize_padding(MultiTrackDfa(nfa.base, nfa.kept, rows, accepting, 0))


def _project_reversal(nfa: _GuessNfa) -> MultiTrackDfa:
    """Projection by determinizing the reversed language, minimizing and
    reversing again (Brzozowski): lands directly on the minimal automaton
    even when forward subsets blow up."""
    base, kept = nfa.base, nfa.kept
    rows, accepting = _det_by_sets(nfa.accepting, nfa.backward, nfa.n_red, nfa.initial, STATE_CAP)
    mid = minimize(MultiTrackDfa(base, kept, rows, accepting, 0))
    mid_back = np.ascontiguousarray(mid.transitions.T)
    rows, accepting = _det_by_sets(
        _mask(mid.n_states, mid.accepting),
        lambda members: np.take(members, mid_back, axis=1),
        mid.n_symbols,
        _mask(mid.n_states, [mid.initial]),
        STATE_CAP,
    )
    return normalize_padding(MultiTrackDfa(base, kept, rows, accepting, 0))


def project(a: MultiTrackDfa, track: str) -> MultiTrackDfa:
    """Existential quantification over one track.

    The projected value may need more digit columns than the remaining
    tracks, so start states are closed under columns that are zero on
    the kept tracks.  States that cannot reach acceptance are pruned
    before the subset construction (all of them when `a` is minimal, as
    every operation's output is; see `_live`).
    """
    if track not in a.tracks:
        return a
    nfa = _GuessNfa(a, track)
    # forward subset construction first; most projections stay small.
    # The fallback runs outside the handler, so the traceback does not
    # keep the abandoned subsets alive.
    try:
        return _project_forward(nfa, min(20000 + 4 * nfa.n, STATE_CAP))
    except CompileBlowup:
        pass
    return _project_reversal(nfa)


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
    image = tuple(mapping.get(t, t) for t in a.tracks)
    new_tracks = tuple(sorted(set(image)))
    old_sym = _submap(new_tracks, image, a.base)
    rows = a.transitions[:, old_sym]
    return minimize(MultiTrackDfa(a.base, new_tracks, rows, a.accepting, a.initial))


# ---------------------------------------------------------------------------
# evaluation


def accepts_string(a: MultiTrackDfa, columns: Sequence[Sequence[int]]) -> bool:
    q = a.initial
    for col in columns:
        if len(col) != len(a.tracks):
            raise UnknownTrack("column arity %d != %d" % (len(col), len(a.tracks)))
        q = int(a.transitions[q, np.ravel_multi_index(tuple(col), (a.base,) * len(col))])
    return q in a.accepting


def accepts(a: MultiTrackDfa, assignment: Mapping[str, int]) -> bool:
    """Value-level acceptance; missing tracks are an error."""
    for t in a.tracks:
        if t not in assignment:
            raise UnknownTrack("no value for track %r" % t)
    digit_strings = [digits_msd(assignment[t], a.base) for t in a.tracks]
    length = max(map(len, digit_strings), default=0)
    padded = [[0] * (length - len(d)) + d for d in digit_strings]
    return accepts_string(a, list(zip(*padded)))


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
    return not minimize(a).accepting


def is_universal(a: MultiTrackDfa) -> bool:
    return is_empty(complement(a))


def equivalent(a: MultiTrackDfa, b: MultiTrackDfa) -> bool:
    return minimize(a) == minimize(b)


# ---------------------------------------------------------------------------
# serialization


def to_text(a: MultiTrackDfa) -> str:
    """Canonical text form: equal languages over equal tracks serialize
    identically (after minimize)."""
    base = a.base
    heads = [",".join(map(str, col)) + " -> " for col in _columns(base, len(a.tracks)).tolist()]
    out = ["base: %d" % base, "tracks: %s" % " ".join(a.tracks)]
    for q, row in enumerate(a.transitions.tolist()):
        tag = " accepting" if q in a.accepting else ""
        out.append("state %d%s" % (q, tag))
        out.extend(head + str(t) for head, t in zip(heads, row))
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
        return int(np.ravel_multi_index(digs, (base,) * m))

    nsym = base**m
    accepts_tail = lambda tail: tail in ([], ["accepting"])
    tails, rows = _read_states(lines[2:], header, accepts_tail, symbol, nsym, "%d transitions" % nsym)
    accepting = frozenset(q for q, tail in tails.items() if tail)
    return MultiTrackDfa(base, tracks, rows, accepting, 0)

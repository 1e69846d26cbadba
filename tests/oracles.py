"""Independent recomputations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms: the
rotation-class counts come from a suffix automaton plus a vectorized
rotate-by-one walk, the small-scale counts check every rotation of every
factor explicitly, least rotations come from Booth's failure-function
scan, abelian counts from `Counter`, repeated factors from one lookup per
factor, commutator rows from every pair of factors whose lengths add
up, ranks come from Gaussian elimination over Z/p, growing letters from image lengths, factor
sets of morphic words from a prefix long enough to hold every factor,
minimal automata from Moore refinement on exact signature tuples,
coreachable states from a reverse search over predecessor sets,
reduced representations from a second pass that reads every coordinate
off the finished basis, counts of accepted positions from weighted
path sums fixed to one n at a time, and prefixes of digit-automaton
words from one automaton run per position.
Products and subset constructions run one pair or one subset at a
time, where the package expands a frontier a chunk at a time;
predicates take their arguments with every constraint conjoined
before any temporary is projected; and predicate calls are inlined into
the formula, where the package applies each compiled predicate.
Agreement between these and the package is an algorithm-level check,
not a restatement.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np

from liewords import automata as au
from liewords import counting
from liewords import formulas as fo
from liewords import logic
from liewords.automata import MultiTrackDfa
from liewords.errors import FormulaSyntaxError, InfiniteCount, NonIntegerOutput, UnknownTrack
from liewords.linalg import RowBasis
from liewords.words import dfao_eval, digits_msd


def image_lengths(rules: dict, k: int) -> dict:
    """|sigma^k(c)| for every letter c, by the length recurrence."""
    size = dict.fromkeys(rules, 1)
    for _ in range(k):
        size = {c: sum(size[d] for d in rules[c]) for c in rules}
    return size


def growing_by_cycles(rules: dict) -> set:
    """Letters c that reach, c itself included, a letter e with
    |sigma(e)| >= 2 that reaches itself in one or more steps: each turn of
    that cycle adds a letter.  Reachability by a transitive closure over
    all pairs of letters."""
    reach = {a: set(rules[a]) for a in rules}
    changed = True
    while changed:
        changed = False
        for a in rules:
            more = set().union(*(reach[b] for b in reach[a])) - reach[a]
            if more:
                reach[a] |= more
                changed = True
    pumps = {e for e in rules if e in reach[e] and len(rules[e]) >= 2}
    return {c for c in rules if ({c} | reach[c]) & pumps}


def closure_in_rounds(rules: dict, seed: str) -> tuple[set, int]:
    """2-factors of the fixed point from seed, by whole rounds, and the
    number K of rounds that added one.  Every 2-factor then occurs in
    sigma^(K+1)(seed), so every length-n factor occurs in
    sigma^(K+m+1)(seed) when |sigma^m(c)| >= n-1 for every letter c."""
    found = {rules[seed][:2]}
    rounds = 0
    while True:
        grown = set(found)
        for ab in found:
            s = rules[ab[0]] + rules[ab[1]]
            grown.update(s[i : i + 2] for i in range(len(s) - 1))
        if grown == found:
            return found, rounds
        found = grown
        rounds += 1


def provable_prefix_length(rules: dict, seed: str, max_n: int) -> int:
    """|sigma^(K+m+1)(seed)| for the largest m that lengths up to max_n
    need (see closure_in_rounds): a prefix that holds every factor of
    length <= max_n of a word whose letters all grow."""
    pairs, rounds = closure_in_rounds(rules, seed)
    letters = {c for ab in pairs for c in ab}
    m = 0
    while min(image_lengths(rules, m)[c] for c in letters) < max_n - 1:
        m += 1
    return image_lengths(rules, rounds + m + 1)[seed]


def blocks(s: str, n: int) -> set:
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def naive_lie_count(window: str, n: int) -> int:
    """Rotation classes of length n fully inside the factor set of window.

    Quadratic in n per factor; fine for n up to a few hundred.
    """
    if n == 0:
        return 1
    facs = {window[i : i + n] for i in range(len(window) - n + 1)}
    classes = set()
    for v in facs:
        doubled = v + v
        orbit = frozenset(doubled[t : t + n] for t in range(n))
        if orbit <= facs:
            classes.add(orbit)
    return len(classes)


def naive_cyclic_count(window: str, n: int) -> int:
    """Rotation classes of length n meeting the factor set of window, each
    class taken as the set of its rotations."""
    if n == 0:
        return 1
    facs = {window[i : i + n] for i in range(len(window) - n + 1)}
    return len({frozenset((v + v)[t : t + n] for t in range(n)) for v in facs})


def booth_least_rotation(v: str) -> str:
    """Lexicographically least cyclic rotation by Booth's algorithm (Booth
    1980)."""
    s = v + v
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    k %= len(v)
    return v[k:] + v[:k]


def booth_counts(members, n: int) -> tuple:
    """(p, c, a, L) of a set of length-n factors: classes by Booth least
    rotations, a class whole when its tally equals its number of distinct
    rotations (the least shift that maps it to itself), letter multisets
    by `Counter`."""
    if n == 0:
        return len(members), 1, 1, 1
    tally = Counter(booth_least_rotation(v) for v in members)
    whole = sum(
        1
        for canon, m in tally.items()
        if m == next(d for d in range(1, n + 1) if canon[d:] + canon[:d] == canon)
    )
    abelian = len({frozenset(Counter(v).items()) for v in members})
    return len(members), len(tally), abelian, whole


def naive_abelian_count(window: str, n: int) -> int:
    """Distinct letter multisets among the length-n factors of window."""
    facs = {window[i : i + n] for i in range(len(window) - n + 1)}
    return len({frozenset(Counter(v).items()) for v in facs})


def factors_occur_twice(small: str, big: str) -> bool:
    """Whether every nonempty factor of small occurs at least twice in big,
    each factor looked up on its own with two `find` calls."""
    for ln in range(1, len(small) + 1):
        for start in range(len(small) - ln + 1):
            fct = small[start : start + ln]
            first = big.find(fct)
            if first == -1 or big.find(fct, first + 1) == -1:
                return False
    return True


def rank_mod(rows, width: int, p: int) -> int:
    """Rank of dense integer rows over the field Z/p, by row echelon."""
    echelon: list[tuple[int, list[int]]] = []
    for vec in rows:
        if len(vec) != width:
            raise ValueError("row width %d != %d" % (len(vec), width))
        res = [x % p for x in vec]
        for piv, row in echelon:
            c = res[piv]
            if c:
                res = [(x - c * y) % p for x, y in zip(res, row)]
        pivot = next((i for i, x in enumerate(res) if x), None)
        if pivot is None:
            continue
        inv = pow(res[pivot], p - 2, p)
        echelon.append((pivot, [x * inv % p for x in res]))
    return len(echelon)



def literal_commutator_span(fs_by_len, n: int, p: int) -> tuple[int, int]:
    """(rank over Z/p, number of nonzero rows) of the commutators ab - ba,
    trying every pair a in F(i), b in F(n-i) for i = 1..n-1, with the
    distinct rows dense over the sorted length-n factors."""
    index = {v: k for k, v in enumerate(sorted(fs_by_len[n].members))}
    width = len(index)
    rows = set()
    count = 0
    for i in range(1, n):
        for a in fs_by_len[i].members:
            for b in fs_by_len[n - i].members:
                ab, ba = index.get(a + b), index.get(b + a)
                if ab == ba:
                    continue
                count += 1
                row = [0] * width
                if ab is not None:
                    row[ab] += 1
                if ba is not None:
                    row[ba] -= 1
                rows.add(tuple(row))
    return rank_mod(sorted(rows), width, p), count

class _Sam:
    """Suffix automaton of a string, with one witness end per state."""

    def __init__(self, s: str):
        self.length = [0]
        self.link = [-1]
        self.trans = [{}]
        self.end = [0]
        last = 0
        for i, ch in enumerate(s):
            cur = len(self.length)
            self.length.append(self.length[last] + 1)
            self.link.append(-1)
            self.trans.append({})
            self.end.append(i + 1)
            p = last
            while p != -1 and ch not in self.trans[p]:
                self.trans[p][ch] = cur
                p = self.link[p]
            if p == -1:
                self.link[cur] = 0
            else:
                q = self.trans[p][ch]
                if self.length[q] == self.length[p] + 1:
                    self.link[cur] = q
                else:
                    clone = len(self.length)
                    self.length.append(self.length[p] + 1)
                    self.link.append(self.link[q])
                    self.trans.append(dict(self.trans[q]))
                    self.end.append(self.end[q])
                    while p != -1 and self.trans[p].get(ch) == q:
                        self.trans[p][ch] = clone
                        p = self.link[p]
                    self.link[q] = clone
                    self.link[cur] = clone
            last = cur


def sam_lie_counts(window: str, max_n: int) -> list[int]:
    """Rotation-class counts for all n in 0..max_n at once.

    Each distinct factor of length n is a (state, n) pair of the suffix
    automaton.  Rotating by one letter maps pairs to pairs, so a class
    lies fully inside the factor set exactly when walking the rotation
    map n times from a pair returns to it.  The walk is evaluated with
    binary lifting over flat pair arrays, in blocks of n to bound memory.
    """
    letters = sorted(set(window))
    code = {ch: k for k, ch in enumerate(letters)}
    sam = _Sam(window)
    m = len(sam.length)

    length = np.array(sam.length, dtype=np.int32)
    link = np.array(sam.link, dtype=np.int32)
    end = np.array(sam.end, dtype=np.int32)
    text = np.array([code[ch] for ch in window], dtype=np.int32)
    tmat = np.full((m, len(letters)), -1, dtype=np.int32)
    for s, edges in enumerate(sam.trans):
        for ch, t in edges.items():
            tmat[s, code[ch]] = t
    low = np.empty(m, dtype=np.int32)
    low[0] = 1
    low[1:] = length[link[1:]] + 1

    counts = [0] * (max_n + 1)
    counts[0] = 1
    block = 1024
    for base in range(1, max_n + 1, block):
        top = min(base + block - 1, max_n)
        _count_block(length, link, end, text, tmat, low, base, top, counts)
    return counts


def _count_block(length, link, end, text, tmat, low, base, top, counts):
    lo = np.maximum(low, base)
    hi = np.minimum(length, top)
    keep = np.flatnonzero(hi >= lo)
    if keep.size == 0:
        return
    widths = (hi[keep] - lo[keep] + 1).astype(np.int64)
    total = int(widths.sum())
    pair_state = np.repeat(keep, widths).astype(np.int32)
    starts = np.zeros(keep.size, dtype=np.int64)
    starts[1:] = np.cumsum(widths[:-1])
    pair_n = (
        np.arange(total, dtype=np.int64)
        - np.repeat(starts, widths)
        + np.repeat(lo[keep].astype(np.int64), widths)
    ).astype(np.int32)
    offset = np.full(len(length), -1, dtype=np.int64)
    offset[keep] = starts

    first = text[end[pair_state] - pair_n]
    tail = np.where(pair_n == lo[pair_state], link[pair_state], pair_state)
    target = tmat[tail, first]
    ok = target >= 0
    nxt = np.full(total, -1, dtype=np.int64)
    nxt[ok] = offset[target[ok]] + pair_n[ok] - lo[target[ok]]

    # pos becomes the pair reached after pair_n rotation steps
    pos = np.arange(total, dtype=np.int64)
    jump = nxt.copy()
    bit = 1
    while bit <= top:
        sel = np.flatnonzero((pair_n & bit) != 0)
        cur = pos[sel]
        alive = cur >= 0
        moved = np.full(cur.shape, -1, dtype=np.int64)
        moved[alive] = jump[cur[alive]]
        pos[sel] = moved
        bit <<= 1
        if bit <= top:
            alive = jump >= 0
            nj = np.full(total, -1, dtype=np.int64)
            nj[alive] = jump[jump[alive]]
            jump = nj

    inside = np.flatnonzero(pos == np.arange(total, dtype=np.int64))
    seen = set()
    for i in inside.tolist():
        if i in seen:
            continue
        counts[int(pair_n[i])] += 1
        j = i
        while True:
            seen.add(j)
            j = int(nxt[j])
            if j == i:
                break


def moore_blocks(rows: list, acc: list) -> list:
    """Moore's partition refinement on exact (block, successor blocks)
    tuples, from the acceptance partition, until the block count stops
    growing."""
    n = len(rows)
    ids = {}
    block = [ids.setdefault(x, len(ids)) for x in acc]
    n_blocks = len(ids)
    while True:
        sig_ids = {}
        new_block = [0] * n
        for q in range(n):
            key = (block[q], tuple(block[t] for t in rows[q]))
            new_block[q] = sig_ids.setdefault(key, len(sig_ids))
        if len(sig_ids) == n_blocks:
            return new_block
        block = new_block
        n_blocks = len(sig_ids)


def bfs_trim(a):
    """The states of a reachable from its initial state, renumbered in
    breadth-first order of discovery (by parent, then by symbol) by a
    dictionary search, with the initial state 0."""
    trans = a.transitions.tolist()
    seen = {a.initial: 0}
    order = [a.initial]
    for q in order:
        for t in trans[q]:
            if t not in seen:
                seen[t] = len(order)
                order.append(t)
    rows = tuple(tuple(seen[t] for t in trans[q]) for q in order)
    accepting = frozenset(seen[q] for q in a.accepting if q in seen)
    return MultiTrackDfa(a.base, a.tracks, rows, accepting, 0)


def loop_coreachable(a):
    """For each state of a, whether some string leads it to acceptance:
    a search from the accepting states over the reversed edges, held in
    a dictionary of predecessor sets."""
    preds = {}
    for p, row in enumerate(a.transitions.tolist()):
        for t in row:
            preds.setdefault(t, set()).add(p)
    seen = set(a.accepting)
    stack = list(seen)
    while stack:
        for p in preds.get(stack.pop(), ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return [q in seen for q in range(a.n_states)]


def moore_minimal(a):
    """The canonical minimal automaton of a, by `bfs_trim`,
    `moore_blocks`, and breadth-first renumbering of the blocks."""
    trimmed = bfs_trim(a)
    rows = trimmed.transitions.tolist()
    acc = [q in trimmed.accepting for q in range(len(rows))]
    block = moore_blocks(rows, acc)
    rep = {}
    for q, b in enumerate(block):
        rep.setdefault(b, q)
    renum = {block[0]: 0}
    bfs = [block[0]]
    for b in bfs:
        for t in rows[rep[b]]:
            if block[t] not in renum:
                renum[block[t]] = len(bfs)
                bfs.append(block[t])
    final_rows = tuple(tuple(renum[block[t]] for t in rows[rep[b]]) for b in bfs)
    final_acc = frozenset(renum[b] for b in bfs if acc[rep[b]])
    return MultiTrackDfa(a.base, a.tracks, final_rows, final_acc, 0)


def column_digits(sym: int, base: int, m: int) -> list:
    """The digits of symbol sym over m tracks, first track most
    significant, one division at a time."""
    out = [0] * m
    for i in reversed(range(m)):
        sym, out[i] = divmod(sym, base)
    return out


def column_symbol(digits, base: int) -> int:
    """The symbol of one column of digits, first track most significant."""
    sym = 0
    for d in digits:
        sym = sym * base + d
    return sym


def loop_submap(all_tracks, sub_tracks, base: int) -> list:
    """For each symbol over all_tracks, the induced symbol over
    sub_tracks, one symbol at a time through its digit tuple."""
    positions = [all_tracks.index(t) for t in sub_tracks]
    m = len(all_tracks)
    out = []
    for sym in range(base**m):
        digs = column_digits(sym, base, m)
        out.append(column_symbol([digs[p] for p in positions], base))
    return out


def loop_product(left, right, accept) -> tuple:
    """Reachable part of the product of two tables, pair by pair and
    symbol by symbol: each side is (table, start, symbol map), accept(p, q)
    takes one pair of states, and pairs are numbered breadth first, by
    parent and then by symbol."""
    (ta, ia, map_a), (tb, ib, map_b) = left, right
    index = {(ia, ib): 0}
    order = [(ia, ib)]
    rows = []
    for p, q in order:
        row = []
        for sa, sb in zip(map_a, map_b):
            pair = (ta[p][sa], tb[q][sb])
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
            row.append(index[pair])
        rows.append(tuple(row))
    accepting = frozenset(i for i, (p, q) in enumerate(order) if accept(p, q))
    return tuple(rows), accepting


def loop_det_by_sets(initial, step_all, accepting) -> tuple:
    """Subset construction one subset at a time: step_all maps one boolean
    subset to its successors [S, n] for every symbol, and each successor
    is interned by its packed bits, one at a time."""
    index = {}
    order = []

    def intern(vec):
        key = np.packbits(vec, bitorder="little").tobytes()
        if key not in index:
            index[key] = len(order)
            order.append(vec.copy())
        return index[key]

    intern(initial)
    rows = []
    acc = []
    i = 0
    while i < len(order):
        if np.any(order[i] & accepting):
            acc.append(i)
        rows.append(tuple(intern(vec) for vec in step_all(order[i])))
        i += 1
    return tuple(rows), frozenset(acc)


def loop_normalize_padding(a):
    """Close the language under leading all-zero columns both ways, by
    `loop_det_by_sets` over subsets with one extra slot for "all zero
    columns so far", then `moore_minimal`."""
    a = moore_minimal(a)
    if a.transitions[0][0] == 0:
        return a
    n = a.n_states
    chain = []
    q = 0
    while q not in chain:
        chain.append(q)
        q = a.transitions[q][0]
    table = np.array(a.transitions, dtype=np.intp).reshape(n, a.n_symbols)
    restart = chain + [n]

    def step_all(subset):
        out = np.zeros((a.n_symbols, n + 1), dtype=bool)
        for q in np.flatnonzero(subset[:n]):
            out[np.arange(a.n_symbols), table[q]] = True
        if subset[n]:
            out[0, restart] = True
        return out

    initial = np.zeros(n + 1, dtype=bool)
    initial[restart] = True
    accepting = np.zeros(n + 1, dtype=bool)
    accepting[list(a.accepting)] = True
    rows, acc = loop_det_by_sets(initial, step_all, accepting)
    return moore_minimal(MultiTrackDfa(a.base, a.tracks, rows, acc, 0))


def loop_project(a, track: str):
    """Existential projection of one track: the subset construction of the
    automaton with that track's digits guessed, started from the states
    reachable on columns that are zero on the kept tracks, subset by
    subset and symbol by symbol, then `loop_normalize_padding`."""
    base, m = a.base, len(a.tracks)
    p = a.tracks.index(track)
    kept = tuple(t for t in a.tracks if t != track)
    groups = [[] for _ in range(base ** len(kept))]
    for sym in range(a.n_symbols):
        digs = column_digits(sym, base, m)
        groups[column_symbol(digs[:p] + digs[p + 1 :], base)].append(sym)
    start = {a.initial}
    stack = [a.initial]
    while stack:
        q = stack.pop()
        for sym in groups[0]:
            if a.transitions[q][sym] not in start:
                start.add(a.transitions[q][sym])
                stack.append(a.transitions[q][sym])

    def step_all(subset):
        out = np.zeros((len(groups), a.n_states), dtype=bool)
        for q in np.flatnonzero(subset):
            for red, syms in enumerate(groups):
                out[red, [a.transitions[q][s] for s in syms]] = True
        return out

    initial = np.zeros(a.n_states, dtype=bool)
    initial[list(start)] = True
    accepting = np.zeros(a.n_states, dtype=bool)
    accepting[list(a.accepting)] = True
    rows, acc = loop_det_by_sets(initial, step_all, accepting)
    return loop_normalize_padding(MultiTrackDfa(base, kept, rows, acc, 0))


def conjoin_then_project(auto, args):
    """`logic.apply_predicate` with every constraint conjoined before any
    temporary is projected."""
    temps = logic._Temps()
    constraints = []
    rename = {}
    for param, term in args.items():
        if isinstance(term, fo.Var):
            target = term.name
        else:
            target = logic._flatten(term, auto.base, temps, constraints)
        if target != param:
            rename[param] = target
    out = au.rename_tracks(auto, rename) if rename else auto
    out = au.conjoin([out] + constraints) if constraints else out
    for name in reversed(temps.names):
        out = au.project(out, name)
    return out


def two_pass_forward_reduce(r):
    """r restricted to the span of the row vectors v * zeta(x): one
    breadth-first pass finds a basis among the products, and a second
    pass recomputes every product and reads its coordinates off the
    finished basis with `RowBasis.coords`."""
    basis = RowBasis(r.dimension)
    kept = []
    if basis.insert(r.v) is None:
        kept.append(r.v)
    queue = list(kept)
    while queue:
        u = queue.pop(0)
        for m in r.matrices:
            y = tuple(counting._vec_mat(list(u), m))
            if basis.insert(y) is None:
                kept.append(y)
                queue.append(y)
    if not kept:
        zero = (Fraction(0),)
        return counting.LinearRepresentation(r.base, zero, (((Fraction(0),),),) * r.base, zero)
    new_mats = tuple(
        tuple(tuple(basis.coords(counting._vec_mat(list(u), m))) for u in kept)
        for m in r.matrices
    )
    new_w = tuple(sum((a * b for a, b in zip(u, r.w)), Fraction(0)) for u in kept)
    return counting.LinearRepresentation(r.base, tuple(basis.coords(r.v)), new_mats, new_w)


def two_pass_minimize_representation(r):
    """Forward then backward `two_pass_forward_reduce`."""
    t = counting._transpose
    return t(two_pass_forward_reduce(t(two_pass_forward_reduce(r))))


def evaluate(r, n: int) -> Fraction:
    """v * zeta(d_1) * ... * zeta(d_m) * w for the digits d of n."""
    vec = list(r.v)
    for d in digits_msd(n, r.base):
        vec = counting._vec_mat(vec, r.matrices[d])
    return sum((x * y for x, y in zip(vec, r.w)), Fraction(0))


def eval_int(r, n: int) -> int:
    """`evaluate` as a count; NonIntegerOutput when it is not one."""
    val = evaluate(r, n)
    if val.denominator != 1 or val < 0:
        raise NonIntegerOutput("value at n=%d is %s" % (n, val))
    return int(val)


def dfao_prefix(d, length: int) -> str:
    """The first `length` letters of a DFAO word, one run per position."""
    return "".join(dfao_eval(d, n) for n in range(length))


# ---------------------------------------------------------------------------
# counting accepted positions directly, one n at a time


@lru_cache(maxsize=32)
def path_count_matrices(a):
    """For each n-track digit c, M_c[p][q] = the number of i-track digits
    whose column maps p to q, found by decoding every symbol; and the
    matrix of the columns with a nonzero i digit and a zero n digit.
    Memoized per automaton: the acceptance tests count thousands of n
    against a handful of automata."""
    i, n = a.tracks.index("i"), a.tracks.index("n")
    size = a.n_states
    mats = [[[0] * size for _ in range(size)] for _ in range(a.base)]
    lead = [[0] * size for _ in range(size)]
    for sym in range(a.n_symbols):
        digits = column_digits(sym, a.base, len(a.tracks))
        for p, q in enumerate(a.transitions[:, sym].tolist()):
            mats[digits[n]][p][q] += 1
            if digits[i] and not digits[n]:
                lead[p][q] += 1
    return mats, lead


def count_direct(a, n: int) -> int:
    """Number of i values accepted with the n track fixed to n.

    An i wider than n's digit string contributes through leading
    columns that are zero on the n track with a nonzero first i digit.
    Raises InfiniteCount when a padding loop lets arbitrarily wide i
    through to acceptance.
    """
    if set(a.tracks) != {"i", "n"}:
        raise UnknownTrack("expected tracks (i, n), automaton has (%s)" % ", ".join(a.tracks))
    mats, lead = path_count_matrices(a)
    _vec_mat = counting._vec_mat
    nn = a.n_states
    acc = [1 if q in a.accepting else 0 for q in range(nn)]

    w = acc
    for d in reversed(digits_msd(n, a.base)):
        # w <- M_d * w, building the path-count column right to left
        w = [sum(mats[d][p][q] * w[q] for q in range(nn) if w[q]) for p in range(nn)]

    u0 = [0] * nn
    u0[a.initial] = 1
    total = sum(u0[q] * w[q] for q in range(nn))

    x = _vec_mat(u0, lead)
    # states on a zero-column cycle both reachable from x and able to
    # contribute to w witness infinitely many i
    zero = mats[0]
    fwd = {p for p in range(nn) if x[p]}
    stack = list(fwd)
    while stack:
        p = stack.pop()
        for q in range(nn):
            if zero[p][q] and q not in fwd:
                fwd.add(q)
                stack.append(q)
    bwd = {q for q in range(nn) if w[q]}
    stack = list(bwd)
    while stack:
        q = stack.pop()
        for p in range(nn):
            if zero[p][q] and p not in bwd:
                bwd.add(p)
                stack.append(p)
    live = fwd & bwd
    color: dict[int, int] = {}
    for start in live:
        if start in color:
            continue
        stack2 = [(start, iter(range(nn)))]
        color[start] = 1
        while stack2:
            p, it = stack2[-1]
            for q in it:
                if not zero[p][q] or q not in live:
                    continue
                c = color.get(q)
                if c == 1:
                    raise InfiniteCount(
                        "padding cycle admits arbitrarily wide i at n=%d" % n
                    )
                if c is None:
                    color[q] = 1
                    stack2.append((q, iter(range(nn))))
                    break
            else:
                color[p] = 2
                stack2.pop()

    for _ in range(len(live) + 1):
        total += sum(x[q] * w[q] for q in range(nn))
        x = _vec_mat(x, zero)
    return total


# ---------------------------------------------------------------------------
# predicate calls inlined into the formula


def all_names(f):
    """Every variable name occurring, bound or free."""
    if isinstance(f, fo.Compare):
        return fo.term_vars(f.left) | fo.term_vars(f.right)
    if isinstance(f, fo.SeqIs):
        return fo.term_vars(f.pos)
    if isinstance(f, fo.SeqCompare):
        return fo.term_vars(f.left_pos) | fo.term_vars(f.right_pos)
    if isinstance(f, fo.Not):
        return all_names(f.body)
    if isinstance(f, fo.Binary):
        return all_names(f.left) | all_names(f.right)
    if isinstance(f, fo.Quant):
        return all_names(f.body) | frozenset(f.names)
    raise TypeError("not a formula: %r" % (f,))


def _fresh(base, used):
    if base not in used:
        return base
    k = 1
    while "%s%d" % (base, k) in used:
        k += 1
    return "%s%d" % (base, k)


def subst_term(t, env):
    if isinstance(t, fo.Var):
        return env.get(t.name, t)
    if isinstance(t, fo.Const):
        return t
    return fo.Arith(t.op, subst_term(t.left, env), subst_term(t.right, env))


def substitute(f, env):
    """Replace free variables by terms, renaming bound variables that
    would capture variables of the substituted terms."""
    env = {k: v for k, v in env.items() if v != fo.Var(k)}
    if not env:
        return f
    if isinstance(f, fo.Compare):
        return fo.Compare(f.op, subst_term(f.left, env), subst_term(f.right, env))
    if isinstance(f, fo.SeqIs):
        return fo.SeqIs(f.seq, subst_term(f.pos, env), f.letter)
    if isinstance(f, fo.SeqCompare):
        return fo.SeqCompare(
            f.op,
            f.left_seq,
            subst_term(f.left_pos, env),
            f.right_seq,
            subst_term(f.right_pos, env),
        )
    if isinstance(f, fo.Not):
        return fo.Not(substitute(f.body, env))
    if isinstance(f, fo.Binary):
        return fo.Binary(f.op, substitute(f.left, env), substitute(f.right, env))
    if isinstance(f, fo.Quant):
        inner = {k: v for k, v in env.items() if k not in f.names}
        incoming = set()
        for v in inner.values():
            incoming |= fo.term_vars(v)
        rename = {}
        used = set(incoming) | all_names(f.body) | set(f.names)
        new_names = []
        for name in f.names:
            if name in incoming:
                nn = _fresh(name, used)
                used.add(nn)
                rename[name] = fo.Var(nn)
                new_names.append(nn)
            else:
                new_names.append(name)
        body = substitute(f.body, rename) if rename else f.body
        return fo.Quant(f.q, tuple(new_names), substitute(body, inner) if inner else body)
    raise TypeError("not a formula: %r" % (f,))


def _has_minus(t):
    if isinstance(t, (fo.Var, fo.Const)):
        return False
    return t.op == "-" or _has_minus(t.left) or _has_minus(t.right)


def inline_call(d, args):
    """Substitute arguments into the definition body, which holds no
    calls.

    Arguments with truncated subtraction are bound at the call site:
    the call is false when the subtraction has no value in the
    naturals, even if the argument would otherwise land under a
    quantifier of the body that renders its atom vacuous."""
    if len(args) != len(d.params):
        raise FormulaSyntaxError(
            "%s expects %d arguments, got %d" % (d.name, len(d.params), len(args)), 0, 0
        )
    used = set(all_names(d.body)) | set(d.params)
    for a in args:
        used |= fo.term_vars(a)
    env = {}
    hoisted = []
    for p, a in zip(d.params, args):
        if _has_minus(a):
            m = _fresh(p, used)
            used.add(m)
            hoisted.append((m, a))
            env[p] = fo.Var(m)
        else:
            env[p] = a
    body = substitute(d.body, env)
    for m, a in reversed(hoisted):
        body = fo.Quant("E", (m,), fo.Binary("&", fo.Compare("=", fo.Var(m), a), body))
    return body


def inline_calls(f):
    """f with every `formulas.Call` replaced by the callee's body, its
    calls inlined first, with the arguments substituted by `inline_call`:
    one formula to compile, where the package compiles each predicate
    once and applies its automaton to the arguments."""
    if isinstance(f, fo.Call):
        d = f.defn
        return inline_call(fo.PredicateDef(d.name, d.params, inline_calls(d.body)), f.args)
    if isinstance(f, fo.Not):
        return fo.Not(inline_calls(f.body))
    if isinstance(f, fo.Binary):
        return fo.Binary(f.op, inline_calls(f.left), inline_calls(f.right))
    if isinstance(f, fo.Quant):
        return fo.Quant(f.q, f.names, inline_calls(f.body))
    return f

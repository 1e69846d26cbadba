"""Independent recomputations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms: the
rotation-class counts come from a suffix automaton plus a vectorized
rotate-by-one walk, the small-scale counts check every rotation of every
factor explicitly, least rotations come from Booth's failure-function
scan, abelian counts from `Counter`, ranks come from Gaussian
elimination over Z/p, growing letters from image lengths, factor
sets of morphic words from a prefix long enough to hold every factor,
and minimal automata from Moore refinement on exact signature tuples.
Agreement between these and the package is an algorithm-level check, not
a restatement.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from liewords.automata import MultiTrackDfa


def image_lengths(rules: dict, k: int) -> dict:
    """|sigma^k(c)| for every letter c, by the length recurrence."""
    size = dict.fromkeys(rules, 1)
    for _ in range(k):
        size = {c: sum(size[d] for d in rules[c]) for c in rules}
    return size


def growing_by_lengths(rules: dict) -> set:
    """Letters c with |sigma^(2d)(c)| > |sigma^d(c)|, d the alphabet size.

    A length-d path in the letter graph repeats a letter, and from there on
    it is forced when every cycle it can reach has one-letter images, so
    bounded letters stop growing after d steps; a growing letter reaches a
    branching cycle letter within d steps and comes back to it within d
    more, so it gains a letter between d and 2d.
    """
    d = len(rules)
    low, high = image_lengths(rules, d), image_lengths(rules, 2 * d)
    return {c for c in rules if high[c] > low[c]}


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


def booth_least_rotation(v: str, order=None) -> str:
    """Lexicographically least cyclic rotation by Booth's algorithm (Booth
    1980); `order` maps letters to ranks, omitted it is codepoint order."""
    seq = v if order is None else tuple(order[c] for c in v)
    s = seq + seq
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


def moore_minimal(a):
    """The canonical minimal automaton of a, by a dictionary breadth-first
    trim, `moore_blocks`, and breadth-first renumbering of the blocks."""
    trans = a.transitions
    seen = {a.initial: 0}
    order = [a.initial]
    for q in order:
        for t in trans[q]:
            if t not in seen:
                seen[t] = len(order)
                order.append(t)
    rows = [tuple(seen[t] for t in trans[q]) for q in order]
    acc = [q in a.accepting for q in order]
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

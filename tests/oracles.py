"""Independent recomputations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms: the
rotation-class counts come from a suffix automaton plus a vectorized
rotate-by-one walk, the small-scale counts check every rotation of every
factor explicitly, least rotations come from Booth's failure-function
scan, abelian counts from `Counter`, and ranks come from Gaussian
elimination over Z/p.
Agreement between these and the package is an algorithm-level check, not
a restatement.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


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

"""Factor statistics computed directly on factor sets.

Factor sets come from words.factor_blocks: exact for words whose letters
all grow under their morphism, read from a doubling-stable window
otherwise.  For a factor set F of length n, the quantities of interest are:

* factor count p(n) = |F|
* cyclic count c(n): rotation classes meeting F
* abelian count a(n): distinct letter-count vectors over F
* full-class count L(n): rotation classes entirely inside F

Each factor is canonicalized once, by its least rotation, and the
factors are tallied per class.  The least rotation compares only the
rotations that start with the longest run of the least letter, using
C-level string search and slice comparison.  c(n) is the number of
classes; a class lies entirely inside F exactly when its tally equals
the length of its primitive root, which is the number of distinct
rotations of any member.  a(n) keys each factor by its vector of
`str.count` values over the letters of F.

L is the quantity the rest of the package cross-checks by algebraic rank
and by automata counting.  All functions are pure; rows can be computed
in parallel safely.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    EmptyWord,
    LengthExceedsPrefix,
    UncertifiedData,
    WindowTooSmall,
)
# perfbench/tracing.py looks saturation_window up in this module
from .words import DEFAULT_WINDOW_START, Prefix, factor_blocks, saturation_window  # noqa: F401


@dataclass(frozen=True)
class FactorSet:
    """Length-n factors; `window` is the prefix length they were read from,
    0 when they were computed exactly."""

    n: int
    members: frozenset[str]
    window: int
    certified: bool


@dataclass(frozen=True)
class ComplexityRow:
    n: int
    p: int
    c: int
    a: int
    L: int
    certified: bool


def factor_set(p, n: int, *, certified: bool = False) -> FactorSet:
    """All length-n blocks of the prefix."""
    s = p.letters if isinstance(p, Prefix) else p
    if n < 0:
        raise ValueError("factor length must be nonnegative")
    if n > len(s):
        raise LengthExceedsPrefix("length %d exceeds prefix of %d" % (n, len(s)))
    members = frozenset(s[i : i + n] for i in range(len(s) - n + 1))
    return FactorSet(n, members, len(s), certified)


def saturated_factor_set(generator, n: int, **window_opts) -> FactorSet:
    """The length-n factor set of the word, labeled with the generator's
    certification status.

    Exact when every letter of the word grows under its morphism, which
    holds for all bundled words and every DFAO word; `window` is then 0.
    Otherwise the blocks of the smallest doubling-stable window, whose
    schedule `window_opts` (`start`, `cap`) sets (see words.factor_blocks).
    """
    members, window = factor_blocks(generator, n, **window_opts)
    return FactorSet(n, members, window, bool(getattr(generator, "certifiable", False)))


def _rank_seq(v: str, order: Optional[Mapping[str, int]]):
    if order is None:
        return v
    try:
        return tuple(order[c] for c in v)
    except KeyError as exc:
        raise KeyError("letter %s has no declared rank" % exc) from None


def _least_start(s: str) -> int:
    """Start of the least rotation of s, found with C-level string search.

    The least rotation begins with the longest cyclic run m^r of the least
    letter m.  r comes from galloping and bisecting on `m*k in s+s`; the
    candidates are the occurrences of m^r starting in s, compared as slices
    of s+s.  A candidate equal to the best so far shows that s is a power
    whose rotations repeat with that shift, so no later one is smaller.
    """
    n = len(s)
    m = min(set(s))
    ss = s + s
    r = 1
    run = m
    if m + m in ss:
        if s.count(m) == n:
            return 0
        lo, hi = 2, 4
        while hi < n and m * hi in ss:
            lo, hi = hi, 2 * hi
        hi = min(hi, n)
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if m * mid in ss:
                lo = mid
            else:
                hi = mid
        r = lo
        run = m * r
    # every occurrence of m^r is a whole run, so the next one starts after
    # the letter that ends this one
    end = n + r - 1
    best = ss.find(run, 0, end)
    i = ss.find(run, best + r + 1, end)
    if i == -1:
        return best
    least = ss[best : best + n]
    while i != -1:
        cand = ss[i : i + n]
        if cand < least:
            best, least = i, cand
        elif cand == least:
            break
        i = ss.find(run, i + r + 1, end)
    return best


def least_rotation(v: str, order: Optional[Mapping[str, int]] = None) -> str:
    """Lexicographically least cyclic rotation.

    Only the rotations that start with the longest run of the least letter
    are compared (the candidate idea of Shiloach 1981), with `str.find` and
    slice comparison.  `order` maps letters to ranks; omitted, codepoint
    order is used.  With `order`, the word is first recoded letter by
    letter into characters that sort like the ranks.
    """
    if not v:
        raise EmptyWord("the empty word has no rotations")
    if order is None:
        k = _least_start(v)
    else:
        seq = _rank_seq(v, order)
        code = {rank: chr(i) for i, rank in enumerate(sorted(set(seq)))}
        k = _least_start("".join([code[rank] for rank in seq]))
    return v[k:] + v[:k] if k else v


def is_primitive(v: str) -> bool:
    """A word is primitive iff it occurs exactly twice in its own square."""
    if not v:
        raise EmptyWord("primitivity undefined for the empty word")
    return (v + v).find(v, 1) == len(v)


def primitive_root(v: str) -> str:
    if not v:
        raise EmptyWord("the empty word has no primitive root")
    period = (v + v).find(v, 1)
    return v[:period]


def _class_counts(fs: FactorSet) -> tuple[int, int]:
    """(c(n), L(n)) from one least rotation per factor and a tally of the
    factors per rotation class."""
    if fs.n == 0:
        return 1, 1
    sizes = Counter(least_rotation(v) for v in fs.members)
    full = sum(1 for canon, m in sizes.items() if m == len(primitive_root(canon)))
    return len(sizes), full


def lie_complexity(fs: FactorSet) -> int:
    """Number of rotation classes entirely contained in the factor set."""
    return _class_counts(fs)[1]


def cyclic_complexity(fs: FactorSet) -> int:
    """Number of rotation classes meeting the factor set."""
    return _class_counts(fs)[0]


def abelian_complexity(fs: FactorSet) -> int:
    """Number of distinct letter-count vectors over the factor set.

    Each factor is keyed by its counts of the set's letters, in sorted
    order, with one `str.count` per letter.
    """
    letters = sorted(set().union(*fs.members))
    return len({tuple(map(v.count, letters)) for v in fs.members})


def _row(fs: FactorSet) -> ComplexityRow:
    # the class tally is freed before the abelian count allocates; holding
    # both at once raises the peak memory of a table
    c, L = _class_counts(fs)
    return ComplexityRow(
        n=fs.n,
        p=len(fs.members),
        c=c,
        a=abelian_complexity(fs),
        L=L,
        certified=fs.certified,
    )


def complexity_row(generator, n: int, **window_opts) -> ComplexityRow:
    return _row(saturated_factor_set(generator, n, **window_opts))


def complexity_table(generator, ns: Iterable[int], **window_opts) -> list[ComplexityRow]:
    """Rows for each n, from `saturated_factor_set`.  Exact factor sets
    need no window; on the window fallback each row's schedule starts at
    the previous row's window, since the stable window grows with n."""
    rows = []
    w = window_opts.pop("start", None)
    if w is None:
        w = DEFAULT_WINDOW_START
    for n in sorted(ns):
        fs = saturated_factor_set(generator, n, start=w, **window_opts)
        w = max(w, fs.window)
        rows.append(_row(fs))
    return rows


def first_difference_margin(
    row: ComplexityRow,
    prev_p: int,
    *,
    prev_certified: bool = True,
    strict: bool = True,
) -> int:
    """Slack in the first-difference bound: p(n) - p(n-1) + 1 - L(n).

    Nonnegative whenever the factor data is complete.  In strict mode,
    uncertified rows are refused rather than silently trusted.
    """
    if strict and not (row.certified and prev_certified):
        raise UncertifiedData(
            "margin at n=%d needs certified factor data (pass strict=False to override)"
            % row.n
        )
    return row.p - prev_p + 1 - row.L


def unbounded_exponent_scan(
    generator,
    max_root_len: int,
    exponent: int,
    window: int,
    order: Optional[Mapping[str, int]] = None,
) -> list[str]:
    """Primitive roots y with |y| <= max_root_len whose exponent-th power
    occurs in the window; one canonical rotation per class, sorted."""
    if exponent < 2:
        raise ValueError("exponent must be at least 2")
    if window < exponent * max_root_len:
        raise WindowTooSmall(
            "window %d cannot hold a root of length %d at exponent %d"
            % (window, max_root_len, exponent)
        )
    s = generator.prefix(window).letters
    found = {}
    for ell in range(1, max_root_len + 1):
        for y in sorted({s[i : i + ell] for i in range(len(s) - ell + 1)}):
            if not is_primitive(y):
                continue
            if y * exponent in s:
                canon = least_rotation(y, order)
                found.setdefault((ell, _rank_seq(canon, order)), canon)
    return [found[key] for key in sorted(found)]


def per_w_estimate(
    generator,
    max_root_len: int,
    exponent_schedule: Sequence[int],
    window: int,
    order: Optional[Mapping[str, int]] = None,
) -> int:
    """Count of root classes that survive the top of the exponent schedule."""
    top = max(exponent_schedule)
    return len(unbounded_exponent_scan(generator, max_root_len, top, window, order))


# ---------------------------------------------------------------------------
# tabular output


def rows_to_tsv(rows: Sequence[ComplexityRow]) -> str:
    out = ["n\tp\tc\ta\tL\tcertified"]
    for r in rows:
        out.append(
            "%d\t%d\t%d\t%d\t%d\t%s" % (r.n, r.p, r.c, r.a, r.L, str(r.certified).lower())
        )
    return "\n".join(out) + "\n"


def rows_to_json(rows: Sequence[ComplexityRow]) -> str:
    payload = {
        "rows": [
            {"n": r.n, "p": r.p, "c": r.c, "a": r.a, "L": r.L, "certified": r.certified}
            for r in rows
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

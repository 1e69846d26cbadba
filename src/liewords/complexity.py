"""Factor statistics computed directly on factor sets.

Factor sets come from words.factor_spans as spans (text, starts): the
length-n factors are the blocks text[i:i+n] with i < starts.  They are
exact for words whose letters all grow under their morphism, read from a
doubling-stable window otherwise.  For a factor set F of length n, the
quantities of interest are:

* factor count p(n) = |F|
* cyclic count c(n): rotation classes meeting F
* abelian count a(n): distinct letter-count vectors over F
* full-class count L(n): rotation classes entirely inside F

One pass over each span keys every block by its Parikh code.  Letter k
weighs (n+1)**k, P holds the prefix sums of the weights along the span,
and the block at i has code P[i+n] - P[i].  No letter count exceeds n, so
the code is the letter-count vector read as a base-(n+1) numeral, and
equal codes mean equal vectors.  p(n) is the number of blocks and a(n)
the number of codes.

Rotation keeps the letter counts, so a rotation class never spans two
codes.  A factor alone in its code bucket is alone in its class: it adds
one class to c(n), and a whole class to L(n) only when it is a letter
power c^n, its own only rotation.  Only the factors of shared buckets are
canonicalized, by their least rotation, and tallied per class.  The
least rotation compares only the rotations that start with the longest
run of the least letter, using C-level string search and slice
comparison.  A class lies entirely inside F exactly when its tally
equals the length of its primitive root, which is the number of distinct
rotations of any member.  `lie_complexity`, `cyclic_complexity` and
`abelian_complexity` count a FactorSet the same way, each member a span
of one block.

L is the quantity the rest of the package cross-checks by algebraic rank
and by automata counting.  All functions are pure; rows can be computed
in parallel safely.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    EmptyWord,
    LengthExceedsPrefix,
    UncertifiedData,
    WindowTooSmall,
)
# perfbench/tracing.py looks saturation_window up in this module
from .words import (  # noqa: F401
    DEFAULT_WINDOW_START,
    Prefix,
    factor_blocks,
    factor_spans,
    saturation_window,
)


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
    return FactorSet(n, members, window, _certified(generator))


def _certified(generator) -> bool:
    return bool(getattr(generator, "certifiable", False))


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


def _parikh_codes(
    spans: Iterable[tuple[str, int]], n: int, letters: Sequence[str]
) -> dict[str, int]:
    """Each length-n block text[i:i+n], i < starts, of the spans, mapped to
    its Parikh code: the sum of (n+1)**k over its letters, k the letter's
    index in `letters`.  A block's code is P[i+n] - P[i] on the prefix sums
    P of its span, and no letter count exceeds n, so the code is the
    Parikh vector read as a base-(n+1) numeral."""
    weight = {c: (n + 1) ** k for k, c in enumerate(letters)}
    codes: dict[str, int] = {}
    for text, starts in spans:
        if starts == 1:
            # one block needs its sum, not the prefix sums
            v = text[:n]
            codes[v] = sum(map(weight.__getitem__, v))
            continue
        sums = list(accumulate(map(weight.__getitem__, text), initial=0))
        blocks = map(text.__getitem__, map(slice, range(starts), range(n, n + starts)))
        codes.update(zip(blocks, map(sub, sums[n : n + starts], sums)))
    return codes


def _keyed_counts(
    codes: Mapping[str, int], n: int, letters: Sequence[str]
) -> tuple[int, int, int, int]:
    """(p, c, a, L) of a length-n factor set from its Parikh codes.

    p counts the factors and a their distinct codes.  Rotation keeps the
    Parikh vector, so a rotation class lies inside one code bucket, and a
    factor alone in its bucket is alone in its class: one class for c, and
    a whole class for L only when it is a letter power c^n, whose code no
    other word has.  The factors of shared buckets are canonicalized by
    least rotation and tallied per class; a class lies inside the set when
    its tally equals the length of its primitive root.
    """
    if n == 0:
        return len(codes), 1, 1, 1
    sizes = Counter(codes.values())
    tally = Counter(least_rotation(v) for v, code in codes.items() if sizes[code] > 1)
    lone = sum(1 for m in sizes.values() if m == 1)
    full = sum(1 for canon, m in tally.items() if m == len(primitive_root(canon)))
    powers = sum(1 for c in letters if c * n in codes)
    return len(codes), lone + len(tally), len(sizes), powers + full


def _span_codes(
    spans: Sequence[tuple[str, int]], n: int
) -> tuple[dict[str, int], list[str]]:
    """Parikh codes of the length-n blocks of the spans, and the letters."""
    letters = sorted(set().union(*(text for text, _ in spans)))
    return _parikh_codes(spans, n, letters), letters


def _span_counts(spans: Sequence[tuple[str, int]], n: int) -> tuple[int, int, int, int]:
    """(p, c, a, L) of the length-n blocks of the spans."""
    codes, letters = _span_codes(spans, n)
    return _keyed_counts(codes, n, letters)


def _member_spans(fs: FactorSet) -> list[tuple[str, int]]:
    # each member is a span of one block
    return [(v, 1) for v in fs.members]


def lie_complexity(fs: FactorSet) -> int:
    """Number of rotation classes entirely contained in the factor set."""
    return _span_counts(_member_spans(fs), fs.n)[3]


def cyclic_complexity(fs: FactorSet) -> int:
    """Number of rotation classes meeting the factor set."""
    return _span_counts(_member_spans(fs), fs.n)[1]


def abelian_complexity(fs: FactorSet) -> int:
    """Number of distinct letter-count vectors over the factor set: its
    distinct Parikh codes, with no least rotation taken."""
    codes, _ = _span_codes(_member_spans(fs), fs.n)
    return len(set(codes.values()))


def complexity_row(generator, n: int, **window_opts) -> ComplexityRow:
    """The row of length n, counted on the spans of words.factor_spans."""
    spans, _ = factor_spans(generator, n, **window_opts)
    return ComplexityRow(n, *_span_counts(spans, n), _certified(generator))


def complexity_table(generator, ns: Iterable[int], **window_opts) -> list[ComplexityRow]:
    """Rows for each n, as `complexity_row`.  Exact factor sets need no
    window; on the window fallback each row's schedule starts at the
    previous row's window, since the stable window grows with n."""
    rows = []
    w = window_opts.pop("start", None)
    if w is None:
        w = DEFAULT_WINDOW_START
    certified = _certified(generator)
    for n in sorted(ns):
        spans, window = factor_spans(generator, n, start=w, **window_opts)
        w = max(w, window)
        rows.append(ComplexityRow(n, *_span_counts(spans, n), certified))
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

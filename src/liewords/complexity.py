"""Factor statistics computed directly on factor sets.

Factor sets come from words.factor_spans as spans (text, starts): the
length-n factors are the blocks text[i:i+n] with i < starts.  They are
exact for every word.  Counting them needs nothing from the rank route:
no algebra, linalg, union-find or commutator rows.  For a
factor set F of length n, the quantities of interest are:

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
power c^n, its own only rotation.  In the shared buckets the counts come
from rotate-by-one, rho(v) = v[1:] + v[0].  rho permutes the words of
length n and keeps their codes, so the edges v -> rho(v) between factors
have in- and out-degree at most 1, and each component is a cycle or a
path.  A cycle is a whole rotation class inside F; a path is one arc of a
class that is not, which may be cut into several arcs.  The walks from
the heads (factors whose rho-predecessor is not a factor) mark the
paths; the factors left lie on cycles, and a class of period d (the
first return of a member in its own square) is a cycle of d of them, so
L(n) is the letter powers plus the sum of (cycle members of period d)
// d.  c(n) adds to the lone factors and the cycles one class per arc
head alone among the heads of its bucket, and the distinct least
rotations of the other heads.  The least rotation compares only the
rotations that start with the longest run of the least letter, using
C-level string search and slice comparison.  `lie_complexity`,
`cyclic_complexity` and `abelian_complexity` count a FactorSet the same
way, each member a span of one block.

`unbounded_exponent_scan` probes the paper's power result on exact sets
too: a root y of length l is a primitive member of the length-l factor
set, and y^e is looked up in the spans of length e*l, whose texts hold
nothing but blocks of that length.  No prefix is read.

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
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptyWord,
    InvalidParameter,
    LengthExceedsPrefix,
    UncertifiedData,
)
# perfbench/tracing.py looks saturation_window up in this module
from .words import (  # noqa: F401
    Prefix,
    _check_length,
    exact_factors,
    factor_spans,
    saturation_window,
)


@dataclass(frozen=True)
class FactorSet:
    """Length-n factors, labeled with the certification status."""

    n: int
    members: frozenset[str]
    certified: bool


@dataclass(frozen=True)
class ComplexityRow:
    n: int
    p: int
    c: int
    a: int
    L: int
    certified: bool


def factor_set(p, n: int) -> FactorSet:
    """All length-n blocks of the prefix, labeled uncertified: a prefix
    need not hold every factor of the word."""
    s = p.letters if isinstance(p, Prefix) else p
    _check_length(n)
    if n > len(s):
        raise LengthExceedsPrefix("length %d exceeds prefix of %d" % (n, len(s)))
    members = frozenset(s[i : i + n] for i in range(len(s) - n + 1))
    return FactorSet(n, members, False)


def saturated_factor_set(generator, n: int) -> FactorSet:
    """The exact length-n factor set of the word (words.exact_factors),
    labeled with the generator's certification status."""
    return FactorSet(n, exact_factors(generator, n), _certified(generator))


def _certified(generator) -> bool:
    return bool(getattr(generator, "certifiable", False))


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


def least_rotation(v: str) -> str:
    """Lexicographically least cyclic rotation, in codepoint order.

    Only the rotations that start with the longest run of the least letter
    are compared (the candidate idea of Shiloach 1981), with `str.find` and
    slice comparison.
    """
    if not v:
        raise EmptyWord("the empty word has no rotations")
    k = _least_start(v)
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
    other word has.

    In the shared buckets, rotate-by-one rho(v) = v[1:] + v[0] is a
    permutation of words that keeps the code, so the edges v -> rho(v)
    with both ends factors have in- and out-degree at most 1 and split the
    shared factors into cycles and paths.  A cycle is a whole class inside
    the set; a path is one arc of a class that is not, and a class may be
    cut into several arcs.  Walking rho from every head (a factor whose
    rho-predecessor v[-1] + v[:-1] is not a factor) marks the paths; the
    factors left are the cycles, and a cycle of a class of period d (the
    least shift that maps a member to itself) has d members.  A head alone
    among the heads of its bucket is a class of its own; only the other
    heads are canonicalized by least rotation, so that the arcs of one
    class are counted once.
    """
    if n == 0:
        return len(codes), 1, 1, 1
    sizes = Counter(codes.values())
    lone = sum(1 for m in sizes.values() if m == 1)
    powers = sum(1 for c in letters if c * n in codes)
    shared = {v for v, code in codes.items() if sizes[code] > 1}
    heads = [v for v in shared if v[-1] + v[:-1] not in shared]
    on_arcs = set()
    for v in heads:
        while v in shared:
            on_arcs.add(v)
            v = v[1:] + v[0]
    periods = Counter((v + v).find(v, 1) for v in shared - on_arcs)
    whole = sum(m // d for d, m in periods.items())
    head_sizes = Counter(codes[v] for v in heads)
    lone_heads = sum(1 for m in head_sizes.values() if m == 1)
    arcs = len({least_rotation(v) for v in heads if head_sizes[codes[v]] > 1})
    return len(codes), lone + whole + lone_heads + arcs, len(sizes), powers + whole


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


def complexity_row(generator, n: int) -> ComplexityRow:
    """The row of length n, counted on the spans of words.factor_spans."""
    spans = factor_spans(generator, n)
    return ComplexityRow(n, *_span_counts(spans, n), _certified(generator))


def complexity_table(generator, ns: Iterable[int]) -> list[ComplexityRow]:
    """Rows for each n in increasing order, as `complexity_row`."""
    return [complexity_row(generator, n) for n in sorted(ns)]


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


def unbounded_exponent_scan(generator, max_root_len: int, exponent: int) -> list[str]:
    """Primitive factors y with |y| <= max_root_len whose exponent-th power
    is a factor of the word; the least rotation of each class, sorted by
    length, then by codepoint.

    For each length l, the roots are the primitive members of
    `exact_factors(generator, l)`, and y^e is looked up in the spans of
    `factor_spans(generator, e*l)`.  Every length-e*l substring of a span's
    first starts+e*l-1 letters is one of its blocks, so y^e occurs there
    exactly when it is a factor.  Raises WindowExceeded when those spans
    would pass the letter budget (see `factor_spans`).
    """
    if exponent < 2:
        raise InvalidParameter("exponent must be at least 2, got %d" % exponent)
    if max_root_len < 0:
        raise InvalidParameter("largest root length must be nonnegative, got %d" % max_root_len)
    found = set()
    for ell in range(1, max_root_len + 1):
        n = exponent * ell
        spans = factor_spans(generator, n)
        for y in exact_factors(generator, ell):
            if is_primitive(y):
                power = y * exponent
                if any(text.find(power, 0, starts + n - 1) != -1 for text, starts in spans):
                    found.add((ell, least_rotation(y)))
    return [canon for _, canon in sorted(found)]


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

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

`complexity_table` reads spans once per run of consecutive lengths
lo..hi, at its top hi, and keys every block by its Parikh code: letter k
weighs (hi+1)**k, and the block at i has code P[i+hi] - P[i] on the prefix
sums P of the weights along the span.  It then walks down: every factor
of a right-infinite word extends to the right, so the length-(n-1)
factors are the v[:-1] of the length-n ones, and the code of v[:-1] is
that of v less the weight of v[-1].  No letter count exceeds hi, so each
code is the letter-count vector read as a base-(hi+1) numeral, and equal
codes mean equal vectors.  p(n) is the number of factors and a(n) the
number of codes.

Rotation keeps the letter counts, so a rotation class never spans two
codes.  A factor alone in its code bucket is alone in its class: it adds
one class to c(n), and a whole class to L(n) only when it is a letter
power c^n, its own only rotation.  In the shared buckets the counts come
from rotate-by-one, rho(v) = v[1:] + v[0].  rho permutes the words of
length n and keeps their codes, so the edges v -> rho(v) between factors
have in- and out-degree at most 1, and each component is a cycle or a
path.  A cycle is a whole rotation class inside F; a path is one arc of a
class that is not, which may be cut into several arcs.  The walks from
the heads (factors whose rho-predecessor is not a factor) take out the
paths, and a walk from each factor left goes once round its cycle, so
L(n) is the letter powers plus the cycles.

c(n) adds to the lone factors and the cycles the classes among the arc
heads.  Two words of one length are rotations of each other exactly when
one is a factor of the other's square (Lothaire, Combinatorics on Words,
ch. 1), so the heads of one code are counted with C-level substring
tests: a head opens a new class unless it occurs in the square of a head
that opened one.  A group of heads costs O(|group| * classes * n).  A code
with more than _CROWDED_HEADS heads is first split by a rotation
invariant, and only the heads that share its value are tested.  The
invariant reads a word as a numeral K with one base-R digit per letter;
rotating by one letter maps K to K*R - d*(R**n - 1), d the first digit,
so K**n modulo R**n - 1 is the same for every rotation.  Equal values
decide nothing: binary complements share it at even n, since
(-K)**n = K**n.  A group that takes substring tests holds at most
_CROWDED_HEADS heads; on the bundled words at n <= 100, the groups that
share an invariant value hold at most 4.  `lie_complexity`,
`cyclic_complexity` and `abelian_complexity` count a FactorSet the same
way, each member a span of one block; `lie_complexity` stops at the
cycles, so it takes no substring test and no rotation invariant.  No
count takes a least rotation.  `least_rotation` is the least length-n
block of v+v, O(n^2) in the worst case; its one caller is
`unbounded_exponent_scan`, which names each class it reports by it.

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
from itertools import accumulate, groupby
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
    _check_block_budget,
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


def factor_set(s: str, n: int) -> FactorSet:
    """All length-n blocks of the prefix s, labeled uncertified: a prefix
    need not hold every factor of the word."""
    _check_length(n)
    if n > len(s):
        raise LengthExceedsPrefix("length %d exceeds prefix of %d" % (n, len(s)))
    members = frozenset(s[i : i + n] for i in range(len(s) - n + 1))
    return FactorSet(n, members, False)


def saturated_factor_set(generator, n: int) -> FactorSet:
    """The exact length-n factor set of the word (words.exact_factors),
    labeled with the generator's certification status."""
    return FactorSet(n, exact_factors(generator, n), generator.certifiable)


def least_rotation(v: str) -> str:
    """Lexicographically least cyclic rotation, in codepoint order: the
    least length-n block of v+v, n = |v|.

    It compares n slices of n letters, so it costs O(n^2) in the worst
    case.  Its one caller in the package, `unbounded_exponent_scan`, calls
    it on roots no longer than the scan's largest root length.
    """
    if not v:
        raise EmptyWord("the empty word has no rotations")
    n = len(v)
    vv = v + v
    return min(vv[i : i + n] for i in range(n))


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


def _parikh_weights(n: int, letters: Sequence[str]) -> dict[str, int]:
    return {c: (n + 1) ** k for k, c in enumerate(letters)}


def _parikh_codes(
    spans: Iterable[tuple[str, int]], n: int, letters: Sequence[str]
) -> dict[str, int]:
    """Each length-n block text[i:i+n], i < starts, of the spans, mapped to
    its Parikh code: the sum of (n+1)**k over its letters, k the letter's
    index in `letters`.  A block's code is P[i+n] - P[i] on the prefix sums
    P of its span, and no letter count exceeds n, so the code is the
    Parikh vector read as a base-(n+1) numeral."""
    weight = _parikh_weights(n, letters)
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


_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

# a Parikh code with more arc heads than this is split by the rotation
# invariant before any substring test; read at call time
_CROWDED_HEADS = 8


def _rotation_invariant(letters: Sequence[str], n: int) -> tuple[dict, int, int]:
    """(table, b, modulus) of the invariant K**n modulo R**n - 1, K a
    length-n word read as a numeral in base R = b**k:
    pow(int(v.translate(table), b), n, modulus).  Each letter is its index
    in k base-b digits, b = min(36, max(2, |letters|)) and k >= 1 the least
    with b**k >= |letters|.  Equal on all rotations (module docstring);
    equal values decide nothing."""
    b = min(36, max(2, len(letters)))
    k = 1
    while b**k < len(letters):
        k += 1
    table = {
        ord(c): "".join(_DIGITS[i // b**j % b] for j in range(k - 1, -1, -1))
        for i, c in enumerate(letters)
    }
    return table, b, b ** (k * n) - 1


def _full_classes(codes: Mapping[str, int], sizes: Counter, n: int, letters: Sequence[str]):
    """(L, whole cycles, arc heads) of a length-n factor set, n >= 1, from
    its Parikh codes and their bucket sizes (module docstring)."""
    powers = sum(1 for c in letters if c * n in codes)
    shared = {v for v, code in codes.items() if sizes[code] > 1}
    rho = {v: v[1:] + v[0] for v in shared}
    heads = list(shared.difference(rho.values()))
    # walking rho from the heads takes the paths out of `shared`; then
    # each walk from a factor left goes once round its cycle
    for v in heads:
        while v in shared:
            shared.remove(v)
            v = rho[v]
    whole = 0
    while shared:
        v = rho[shared.pop()]
        whole += 1
        while v in shared:
            shared.remove(v)
            v = rho[v]
    return powers + whole, whole, heads


def _collisions(words: Sequence[str], keys: Sequence) -> tuple[int, Iterable[list[str]]]:
    """(number of words alone under their key, the lists of words that
    share a key); keys[i] is the key of words[i]."""
    sizes = Counter(keys)
    shared: dict = {}
    for v, key in zip(words, keys):
        if sizes[key] > 1:
            shared.setdefault(key, []).append(v)
    return list(sizes.values()).count(1), shared.values()


def _distinct_classes(words: Iterable[str]) -> int:
    """Rotation classes among words of one length: a word opens a new class
    unless it is a factor of the square of a word that opened one."""
    squares: list[str] = []
    for v in words:
        for d in squares:
            if v in d:
                break
        else:
            squares.append(v + v)
    return len(squares)


def _head_classes(heads: Sequence[str], codes: Mapping[str, int], n: int, letters) -> int:
    """Rotation classes among the arc heads of a length-n factor set
    (module docstring): by Parikh code, then, in a code of more than
    _CROWDED_HEADS heads, by rotation invariant, then by substring test."""
    classes, parts = _collisions(heads, [codes[v] for v in heads])
    table = None
    for part in parts:
        groups: Iterable[list[str]] = (part,)
        if len(part) > _CROWDED_HEADS:
            if table is None:
                table, b, modulus = _rotation_invariant(letters, n)
            keys = [pow(int(v.translate(table), b), n, modulus) for v in part]
            alone, groups = _collisions(part, keys)
            classes += alone
        for group in groups:
            classes += _distinct_classes(group)
    return classes


def _keyed_counts(
    codes: Mapping[str, int], n: int, letters: Sequence[str]
) -> tuple[int, int, int, int]:
    """(p, c, a, L) of a length-n factor set from its Parikh codes, as the
    module docstring sets out: lone factors, then the cycles and arcs of
    rotate-by-one in the shared buckets, then the classes of the arc heads.
    """
    if n == 0:
        return len(codes), 1, 1, 1
    sizes = Counter(codes.values())
    lone = list(sizes.values()).count(1)
    full, whole, heads = _full_classes(codes, sizes, n, letters)
    classes = lone + whole + _head_classes(heads, codes, n, letters)
    return len(codes), classes, len(sizes), full


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
    """Number of rotation classes entirely contained in the factor set;
    no substring test, rotation invariant or least rotation is taken."""
    if fs.n == 0:
        return 1
    codes, letters = _span_codes(_member_spans(fs), fs.n)
    return _full_classes(codes, Counter(codes.values()), fs.n, letters)[0]


def cyclic_complexity(fs: FactorSet) -> int:
    """Number of rotation classes meeting the factor set."""
    return _span_counts(_member_spans(fs), fs.n)[1]


def abelian_complexity(fs: FactorSet) -> int:
    """Number of distinct letter-count vectors over the factor set: its
    distinct Parikh codes, with no least rotation taken."""
    codes, _ = _span_codes(_member_spans(fs), fs.n)
    return len(set(codes.values()))


def _run_rows(generator, lo: int, hi: int) -> dict[int, ComplexityRow]:
    """Rows lo..hi from the spans at hi alone, walked down (module
    docstring).  Raises WindowExceeded, before any block is sliced, when
    the blocks at hi pass the letter budget."""
    spans = factor_spans(generator, hi)
    _check_block_budget(spans, hi)
    codes, letters = _span_codes(spans, hi)
    weight = _parikh_weights(hi, letters)
    rows = {}
    for n in range(hi, lo - 1, -1):
        rows[n] = ComplexityRow(n, *_keyed_counts(codes, n, letters), generator.certifiable)
        if n > lo:
            codes = {v[:-1]: code - weight[v[-1]] for v, code in codes.items()}
    return rows


def complexity_table(generator, ns: Iterable[int]) -> list[ComplexityRow]:
    """Rows for each n in increasing order, duplicates kept, counted run by
    run of consecutive lengths; a negative length is refused first."""
    ns = sorted(ns)
    if ns:
        _check_length(ns[0])
    rows = {}
    # n - index is constant exactly along a run of consecutive values
    for _, run in groupby(enumerate(sorted(set(ns))), lambda t: t[1] - t[0]):
        run = [n for _, n in run]
        rows.update(_run_rows(generator, run[0], run[-1]))
    return [rows[n] for n in ns]


def first_difference_margin(
    row: ComplexityRow,
    prev_p: int,
    *,
    strict: bool = True,
) -> int:
    """Slack in the first-difference bound: p(n) - p(n-1) + 1 - L(n).

    Nonnegative whenever the factor data is complete.  In strict mode,
    uncertified rows are refused rather than silently trusted.
    """
    if strict and not row.certified:
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

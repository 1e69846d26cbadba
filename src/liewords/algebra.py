"""Rank route to the full-class count.

Give the span of length-n factors the multiplication "concatenate if the
result is again a factor, else zero".  The commutators ab - ba with
|a| + |b| = n span a subspace W_n of the factor span V_n, and

    L(n) = dim V_n - dim W_n.

Each commutator is e_ab - e_ba, or a single +-e_x when only one of the two
products is a factor.  Such signed incidence rows have an exact rank over
any field: read as a graph on the factors, each component spans its
sum-zero vectors, plus everything once a single-entry row touches it.  The
rank of W_n is that union-find count over the streamed commutators (see
linalg.signed_incidence_rank).  Only nonzero rows are built.  A pair
whose products both fall outside F(n) gives the zero row, so indexing
F(n) by the length-i prefix and suffix of each factor finds, for each a
of length i, every b worth a row.  The row of (b, a) is minus the row of
(a, b), since [b, a] = -[a, b], so the splits past n/2 add nothing to the
span: they are counted, one for one with split n - i, but not built.
Empty-side pairs contribute nothing (a*empty = empty*a) and are skipped.
`commutator_span` is the one place that builds and counts the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import words
from .complexity import FactorSet, saturated_factor_set
from .errors import InvalidParameter, UncertifiedData, WindowExceeded
from .linalg import signed_incidence_rank

# a commutator row (p, q) is e_p - e_q, None for a product that is no factor
Row = tuple[Optional[int], Optional[int]]


@dataclass(frozen=True)
class CommutatorSpan:
    n: int
    rank: int
    generator_count: int


def split_rows(factors: tuple[str, ...], left: FactorSet, right: FactorSet) -> list[Row]:
    """Nonzero rows [a, b] = (index of ab, index of ba), a in `left` and b
    in `right`, over `factors`, the sorted length-n factors with
    n = left.n + right.n, read off their prefix and suffix indexes."""
    i = left.n
    n = i + right.n
    by_prefix: dict[str, dict[str, int]] = {}
    by_suffix: dict[str, dict[str, int]] = {}
    for k, x in enumerate(factors):
        by_prefix.setdefault(x[:i], {})[x[i:]] = k
        by_suffix.setdefault(x[n - i :], {})[x[: n - i]] = k
    bs = right.members
    rows = []
    for a in left.members:
        ab = by_prefix.get(a, {})
        ba = by_suffix.get(a, {})
        for b, p in ab.items():
            q = ba.get(b)
            if p != q and b in bs:
                rows.append((p, q))
        rows.extend((None, q) for b, q in ba.items() if b not in ab and b in bs)
    return rows


def commutator_span(fs_by_len: Mapping[int, FactorSet], n: int) -> CommutatorSpan:
    """Rank of the commutators of length n, and their number over all
    splits |a| = 1..n-1.  A factor's coordinate is its position in the
    sorted F(n).  Rows are built for the splits |a| = 1..n/2 alone; each
    split n - i is counted as the mirror of i."""
    factors = tuple(sorted(fs_by_len[n].members))
    count = 0

    def rows():
        nonlocal count
        for i in range(1, n // 2 + 1):
            split = split_rows(factors, fs_by_len[i], fs_by_len[n - i])
            count += len(split) if 2 * i == n else 2 * len(split)
            yield from split

    rank = signed_incidence_rank(rows(), len(factors))
    return CommutatorSpan(n, rank, count)


def lie_via_algebra(fs_by_len: Mapping[int, FactorSet], n: int) -> int:
    """dim V_n - dim W_n."""
    return len(fs_by_len[n].members) - commutator_span(fs_by_len, n).rank


def factor_sets_up_to(generator, max_n: int, *, strict: bool = True):
    """Factor sets (see complexity.saturated_factor_set) for every length
    0..max_n, keyed by length; strict mode refuses uncertified ones.
    Raises WindowExceeded once the sets built hold more than the letter
    budget (words.LETTER_BUDGET) between them."""
    if max_n < 0:
        raise InvalidParameter("largest factor length must be nonnegative, got %d" % max_n)
    out: dict[int, FactorSet] = {}
    held = 0
    for n in range(max_n + 1):
        fs = saturated_factor_set(generator, n)
        if strict and not fs.certified:
            raise UncertifiedData(
                "factor set of %s at n=%d is not certified" % (generator.name, n)
            )
        held += n * len(fs.members)
        if held > words.LETTER_BUDGET:
            raise WindowExceeded(
                "factor sets of lengths 0..%d hold %d letters, past the letter "
                "budget of %d letters" % (n, held, words.LETTER_BUDGET)
            )
        out[n] = fs
    return out


@dataclass(frozen=True)
class AlgebraRow:
    n: int
    dim_v: int
    dim_w: int
    lie_algebra: int
    lie_direct: int

    @property
    def match(self) -> bool:
        return self.lie_algebra == self.lie_direct


def algebra_report(generator, max_n: int, *, strict: bool = True):
    """Per-n comparison of the rank route against the direct count."""
    from .complexity import lie_complexity

    fs_by_len = factor_sets_up_to(generator, max_n, strict=strict)
    rows = []
    for n in range(max_n + 1):
        span = commutator_span(fs_by_len, n)
        dim_v = len(fs_by_len[n].members)
        rows.append(
            AlgebraRow(
                n=n,
                dim_v=dim_v,
                dim_w=span.rank,
                lie_algebra=dim_v - span.rank,
                lie_direct=lie_complexity(fs_by_len[n]),
            )
        )
    return rows


def algebra_rows_to_tsv(rows) -> str:
    out = ["n\tdimV\tdimW\tL_algebra\tL_direct\tmatch"]
    for r in rows:
        out.append(
            "%d\t%d\t%d\t%d\t%d\t%s"
            % (r.n, r.dim_v, r.dim_w, r.lie_algebra, r.lie_direct, str(r.match).lower())
        )
    return "\n".join(out) + "\n"

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
linalg.signed_incidence_rank).  The route still enumerates the literal
pairs (a, b) with |a| + |b| = n.  Empty-side pairs contribute nothing
(a*empty = empty*a), so generation skips them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .complexity import FactorSet, saturated_factor_set
from .errors import InvalidParameter, UncertifiedData
from .linalg import signed_incidence_rank


@dataclass(frozen=True)
class FactorBasis:
    """Sorted length-n factors with their coordinate indices."""

    n: int
    factors: tuple[str, ...]

    @property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.factors)}

    @property
    def dim(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class CommutatorSpan:
    n: int
    rank: int
    generator_count: int


def factor_basis(fs: FactorSet) -> FactorBasis:
    return FactorBasis(fs.n, tuple(sorted(fs.members)))


def commutator_vectors(
    fs_by_len: Mapping[int, FactorSet], n: int, basis: Optional[FactorBasis] = None
) -> Iterator[dict[int, int]]:
    """Sparse vectors of ab - ba over all factor pairs with |a| + |b| = n.

    A product that is not itself a factor is the zero of the algebra, so it
    simply drops out of the vector.
    """
    if basis is None:
        basis = factor_basis(fs_by_len[n])
    index = basis.index
    for i in range(1, n):
        left = sorted(fs_by_len[i].members)
        right = sorted(fs_by_len[n - i].members)
        for a in left:
            for b in right:
                ab = index.get(a + b)
                ba = index.get(b + a)
                if ab == ba:
                    continue
                vec: dict[int, int] = {}
                if ab is not None:
                    vec[ab] = 1
                if ba is not None:
                    vec[ba] = -1
                yield vec


def commutator_span(fs_by_len: Mapping[int, FactorSet], n: int) -> CommutatorSpan:
    basis = factor_basis(fs_by_len[n])
    count = 0

    def counted():
        nonlocal count
        for vec in commutator_vectors(fs_by_len, n, basis):
            count += 1
            yield vec

    rank = signed_incidence_rank(counted(), basis.dim)
    return CommutatorSpan(n, rank, count)


def commutator_rank(fs_by_len: Mapping[int, FactorSet], n: int) -> int:
    return commutator_span(fs_by_len, n).rank


def lie_via_algebra(fs_by_len: Mapping[int, FactorSet], n: int) -> int:
    """dim V_n - dim W_n."""
    return len(fs_by_len[n].members) - commutator_rank(fs_by_len, n)


def factor_sets_up_to(generator, max_n: int, *, strict: bool = True):
    """Factor sets (see complexity.saturated_factor_set) for every length
    0..max_n, keyed by length; strict mode refuses uncertified ones."""
    if max_n < 0:
        raise InvalidParameter("largest factor length must be nonnegative, got %d" % max_n)
    out: dict[int, FactorSet] = {}
    for n in range(max_n + 1):
        fs = saturated_factor_set(generator, n)
        if strict and not fs.certified:
            raise UncertifiedData(
                "factor set of %s at n=%d is not certified" % (generator.name, n)
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

"""Exact rank computations: a rational row echelon for the representation
code and a union-find rank for the commutator rows of the rank route."""

from __future__ import annotations

from fractions import Fraction


class RowBasis:
    """Incremental row-echelon basis over the rationals.

    insert() keeps the vector when it is independent and returns None;
    otherwise it returns the coordinates of the vector over the previously
    kept (independent) vectors.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        # expression of each echelon row over the kept originals
        self.combos: list[list[Fraction]] = []
        self.n_kept = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        """vec less its eliminations by the echelon rows, and the
        coordinates of what they took over the kept originals."""
        res = [Fraction(x) for x in vec]
        if len(res) != self.width:
            raise ValueError("vector width %d != %d" % (len(res), self.width))
        combo = [Fraction(0)] * self.n_kept
        for r, p in enumerate(self.pivots):
            c = res[p]
            if c:
                row = self.rows[r]
                for i in range(self.width):
                    if row[i]:
                        res[i] -= c * row[i]
                rc = self.combos[r]
                for i in range(len(rc)):
                    if rc[i]:
                        combo[i] += c * rc[i]
        return res, combo

    def insert(self, vec):
        res, combo = self._reduce(vec)
        pivot = next((i for i, x in enumerate(res) if x), None)
        if pivot is None:
            return combo
        lead = res[pivot]
        norm = [x / lead for x in res]
        self.rows.append(norm)
        self.pivots.append(pivot)
        # echelon row = (original - sum c_r E_r) / lead
        self.combos = [c + [Fraction(0)] for c in self.combos]
        new_combo = [(-x) / lead for x in combo] + [Fraction(1) / lead]
        self.combos.append(new_combo)
        self.n_kept += 1
        return None

    def coords(self, vec):
        """Coordinates of vec over the kept originals, or None if outside
        the span.  Does not modify the basis."""
        res, combo = self._reduce(vec)
        if any(res):
            return None
        return combo


def signed_incidence_rank(rows, width: int) -> int:
    """Rank of rows (p, q), each e_p - e_q with None for an absent side,
    over the coordinates 0..width-1; p == q is refused.

    Rows e_p - e_q are the edges of a graph on the coordinates, and a
    one-sided row +-e_p is an edge from p to one extra ground vertex.  The
    edge vectors of a graph have rank vertices minus components, the
    edges of a spanning forest, and dropping the ground coordinate loses
    no rank (a sum-zero vector is zero once its other coordinates are).
    So the rank is the number of rows that join two components, over
    every field; no elimination is needed.
    """
    parent = list(range(width + 1))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    rank = 0
    for p, q in rows:
        if p is None:
            p = width
        elif p == q:
            raise ValueError("row %r is not a signed incidence row" % ((p, q),))
        a, b = find(p), find(width if q is None else q)
        if a != b:
            parent[a] = b
            rank += 1
    return rank

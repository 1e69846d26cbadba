"""Counting accepted positions of a two-track automaton.

For an automaton over tracks (i, n), the map n -> #{i accepted} is
computed through a linear representation (row vector, digit-indexed
matrices, column vector), which is minimized and, when the counts are
bounded, turned into a DFAO.  All arithmetic is exact.  This is the
package's one path for the count; the direct weighted path count that
checks it lives in `tests/oracles.py`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .automata import MultiTrackDfa, _columns, _live, _reachable, normalize_padding, padded_dfao
from .errors import (
    FormatError,
    InfiniteCount,
    NonIntegerOutput,
    StateCapExceeded,
    UnknownTrack,
)
from .linalg import RowBasis
from .words import Dfao, _numbered_lines, _parse_int

# the most distinct state vectors `to_dfao` builds; read at call time
_DFAO_STATE_CAP = 4096

Rational = Fraction
Row = tuple[Rational, ...]
Matrix = tuple[Row, ...]


@dataclass(frozen=True)
class LinearRepresentation:
    """Exact representation of a base-k regular sequence.

    The value at n is v * zeta(d_1) * ... * zeta(d_m) * w for the
    canonical most-significant-first digits d of n (empty product at
    n = 0)."""

    base: int
    v: Row
    matrices: tuple[Matrix, ...]
    w: Row

    def __post_init__(self):
        d = self.dimension
        if len(self.w) != d or len(self.matrices) != self.base:
            raise ValueError("inconsistent representation shape")
        for m in self.matrices:
            if len(m) != d or any(len(r) != d for r in m):
                raise ValueError("inconsistent matrix shape")

    @property
    def dimension(self) -> int:
        return len(self.v)


def _count_matrices(a: MultiTrackDfa):
    """Digit-transition count matrices for the tracks (i, n).

    M[c][p][q] = number of i-track digits e whose column (e, c) maps p
    to q; also the first-column matrix restricted to nonzero e."""
    cols = _columns(a.base, len(a.tracks))
    e, c = cols[:, a.tracks.index("i")], cols[:, a.tracks.index("n")]
    states = range(a.n_states)

    def counted(chosen):
        """Entry p, q: how many of the chosen columns map p to q."""
        tallies = map(Counter, a.transitions[:, chosen].tolist())
        return tuple(tuple(t[q] for q in states) for t in tallies)

    return tuple(counted(c == d) for d in range(a.base)), counted((e > 0) & (c == 0))


def _vec_mat(vec, mat):
    n = len(vec)
    out = [0] * n
    for p, x in enumerate(vec):
        if x:
            row = mat[p]
            for q in range(n):
                if row[q]:
                    out[q] += x * row[q]
    return out


def counting_representation(a: MultiTrackDfa) -> LinearRepresentation:
    """Linear representation of n -> #{i : a accepts (i, n)}.

    The initial vector folds in every number of leading zero columns on
    the n track.  A padding walk still on a coreachable state (`_live`,
    exact on the minimal automaton `normalize_padding` returns) after
    n_states zero columns has repeated a state, so its cycle admits
    infinitely many i: the fold stops there and raises InfiniteCount.
    """
    if set(a.tracks) != {"i", "n"}:
        raise UnknownTrack("expected tracks (i, n), automaton has (%s)" % ", ".join(a.tracks))
    a = normalize_padding(a)
    mats, lead = _count_matrices(a)
    nn = a.n_states
    core = [q for q, live in enumerate(_live(a).tolist()) if live]

    v = [0] * nn
    v[a.initial] = 1
    x = _vec_mat(v, lead)
    steps = 0
    while any(x[q] for q in core):
        if steps >= nn:
            raise InfiniteCount(
                "padding cycle admits arbitrarily wide i (live after %d zero columns)" % nn
            )
        for q in range(nn):
            v[q] += x[q]
        x = _vec_mat(x, mats[0])
        steps += 1

    def frac(rows):
        return tuple(tuple(Fraction(x) for x in r) for r in rows)

    return LinearRepresentation(
        base=a.base,
        v=tuple(Fraction(x) for x in v),
        matrices=tuple(frac(m) for m in mats),
        w=tuple(Fraction(1 if q in a.accepting else 0) for q in range(nn)),
    )


def _transpose(r: LinearRepresentation) -> LinearRepresentation:
    d = r.dimension

    def t(m):
        return tuple(tuple(m[p][q] for p in range(d)) for q in range(d))

    return LinearRepresentation(r.base, r.w, tuple(t(m) for m in r.matrices), r.v)


def _forward_reduce(r: LinearRepresentation) -> LinearRepresentation:
    """r restricted to the span of the row vectors v * zeta(x).

    A breadth-first search from v multiplies each kept vector by every
    digit matrix and keeps the products that are independent of the
    vectors kept so far, in order; the kept vectors are the new basis.
    `RowBasis.insert` returns a dependent product's coordinates over the
    vectors kept before it, and a kept product is its own unit vector, so
    padded to the final dimension they are the rows of the new matrices,
    and the new v is the first unit vector.  A zero v spans nothing: the
    result is the dimension-1 zero representation."""
    basis = RowBasis(r.dimension)
    kept: list[Row] = []

    def coords(y: Row) -> list[Fraction]:
        c = basis.insert(y)
        if c is None:
            kept.append(y)
            return [Fraction(0)] * (len(kept) - 1) + [Fraction(1)]
        return c

    if basis.insert(r.v) is None:
        kept.append(r.v)
    # images[i][d] = the coordinates of kept[i] * M_d
    images = []
    for u in kept:  # kept grows as the search runs
        images.append([coords(tuple(_vec_mat(u, m))) for m in r.matrices])
    dim = len(kept)
    if dim == 0:
        zero = (Fraction(0),)
        one_mat = ((Fraction(0),),)
        return LinearRepresentation(r.base, zero, tuple(one_mat for _ in r.matrices), zero)
    pad = lambda c: tuple(c) + (Fraction(0),) * (dim - len(c))
    new_mats = tuple(tuple(pad(row[d]) for row in images) for d in range(r.base))
    new_v = pad([Fraction(1)])
    new_w = tuple(
        sum((a * b for a, b in zip(u, r.w)), Fraction(0)) for u in kept
    )
    return LinearRepresentation(r.base, new_v, new_mats, new_w)


def minimize_representation(r: LinearRepresentation) -> LinearRepresentation:
    """Equivalent representation of minimal dimension (forward then
    backward basis reduction, exact rationals)."""
    return _transpose(_forward_reduce(_transpose(_forward_reduce(r))))


def to_dfao(r: LinearRepresentation) -> Dfao:
    """Reachable-vector subset automaton of a bounded integer sequence.

    States are the exact vectors v * zeta(x); the construction
    terminates iff finitely many arise, which boundedness guarantees
    for a minimized representation.  More than _DFAO_STATE_CAP vectors
    raise StateCapExceeded.
    """
    cap = _DFAO_STATE_CAP
    index: dict[Row, int] = {}
    order: list[Row] = []

    def intern(vec: Row) -> int:
        k = index.get(vec)
        if k is None:
            k = len(order)
            index[vec] = k
            order.append(vec)
            if len(order) > cap:
                raise StateCapExceeded("more than %d distinct state vectors" % cap)
        return k

    intern(r.v)
    rows = []
    outputs = []
    i = 0
    while i < len(order):
        u = order[i]
        val = sum((a * b for a, b in zip(u, r.w)), Fraction(0))
        if val.denominator != 1 or val < 0:
            raise NonIntegerOutput("state value %s is not a count" % (val,))
        outputs.append(str(int(val)))
        rows.append(
            tuple(intern(tuple(_vec_mat(list(u), m))) for m in r.matrices)
        )
        i += 1
    letters = tuple(str(x) for x in sorted({int(o) for o in outputs}))
    return Dfao(
        base=r.base,
        transitions=tuple(rows),
        outputs=tuple(outputs),
        letters=letters,
        initial=0,
    )


def sup_value(d: Dfao) -> int:
    """Largest output over states reachable by canonical digit strings
    (no leading zero out of the initial state).  `padded_dfao` makes
    digit 0 fix its start state, so those are the states reachable from
    that start."""
    table, start, outputs = padded_dfao(d)
    _, states = _reachable(table, start)
    return max(int(outputs[q]) for q in states.tolist())


# ---------------------------------------------------------------------------
# serialization


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def representation_to_text(r: LinearRepresentation) -> str:
    lines = ["base: %d" % r.base, "dimension: %d" % r.dimension]
    lines.append("v: " + " ".join(_frac_text(x) for x in r.v))
    for d, m in enumerate(r.matrices):
        lines.append("matrix %d:" % d)
        for row in m:
            lines.append("  " + " ".join(_frac_text(x) for x in row))
    lines.append("w: " + " ".join(_frac_text(x) for x in r.w))
    return "\n".join(lines) + "\n"


def representation_from_text(text: str) -> LinearRepresentation:
    """Read the `representation_to_text` format.  Malformed input raises
    FormatError with the 1-based line number."""
    lines = _numbered_lines(text)
    pos = 0

    def take(prefix: str) -> tuple[int, str]:
        nonlocal pos
        if pos == len(lines):
            last = lines[-1][0] if lines else None
            raise FormatError("input ends where %r was expected" % prefix, last)
        no, ln = lines[pos]
        if not ln.startswith(prefix):
            raise FormatError("expected %r" % prefix, no)
        pos += 1
        return no, ln[len(prefix) :]

    def parse_row(no: int, s: str) -> Row:
        parts = s.split()
        if len(parts) != dim:
            raise FormatError("expected %d entries, got %d" % (dim, len(parts)), no)
        try:
            return tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError):
            raise FormatError("entries must be rationals p/q, got %r" % s.strip(), no) from None

    no, rest = take("base:")
    base = _parse_int(rest, no)
    if base < 2:
        raise FormatError("base must be at least 2", no)
    no, rest = take("dimension:")
    dim = _parse_int(rest, no)
    if dim < 0:
        raise FormatError("dimension must be nonnegative", no)
    v = parse_row(*take("v:"))
    matrices = []
    for d in range(base):
        no, rest = take("matrix %d:" % d)
        if rest:
            raise FormatError("expected 'matrix %d:' alone on its line" % d, no)
        matrices.append(tuple(parse_row(*take("")) for _ in range(dim)))
    w = parse_row(*take("w:"))
    if pos < len(lines):
        raise FormatError("unexpected line after 'w:'", lines[pos][0])
    return LinearRepresentation(base, v, tuple(matrices), w)

"""Counting accepted positions of a two-track automaton, three ways.

For an automaton over tracks (i, n), the map n -> #{i accepted} is
computed directly by weighted path counting, through a linear
representation (row vector, digit-indexed matrices, column vector), and
through a DFAO obtained from the minimized representation when the
counts are bounded.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal, Optional

from .automata import MultiTrackDfa, _coreachable, normalize_padding
from .errors import (
    InfiniteCount,
    NoConvergence,
    NonIntegerOutput,
    StateCapExceeded,
    UnknownTrack,
)
from .linalg import RowBasis
from .words import Dfao, digits_msd

PADDING_SUM_CAP = 10**4

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


@dataclass(frozen=True)
class CountEvaluation:
    n: int
    value: int
    method: Literal["direct", "linear-representation"]


def _require_in_tracks(a: MultiTrackDfa, free: str, fixed: str):
    if set(a.tracks) != {free, fixed}:
        raise UnknownTrack(
            "expected tracks (%s, %s), automaton has (%s)"
            % (free, fixed, ", ".join(a.tracks))
        )


@lru_cache(maxsize=32)
def _count_matrices(a: MultiTrackDfa, free: str, fixed: str):
    """Digit-transition count matrices for one free and one fixed track.

    M[c][p][q] = number of free-track digits e whose column (e, c) maps
    p to q; also the first-column matrix restricted to nonzero e."""
    base = a.base
    n = a.n_states
    pf = a.tracks.index(free)
    shift_free = base ** (len(a.tracks) - 1 - pf)
    px = a.tracks.index(fixed)
    shift_fixed = base ** (len(a.tracks) - 1 - px)
    mats = []
    for c in range(base):
        m = [[0] * n for _ in range(n)]
        for p in range(n):
            row = a.transitions[p]
            for e in range(base):
                m[p][row[e * shift_free + c * shift_fixed]] += 1
        mats.append(tuple(tuple(r) for r in m))
    lead = [[0] * n for _ in range(n)]
    for p in range(n):
        row = a.transitions[p]
        for e in range(1, base):
            lead[p][row[e * shift_free]] += 1
    return tuple(mats), tuple(tuple(r) for r in lead)


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


def count_direct(a: MultiTrackDfa, n: int) -> int:
    """Number of i values accepted with the n track fixed to n.

    An i wider than n's digit string contributes through leading
    columns that are zero on the n track with a nonzero first i digit.
    Raises InfiniteCount when a padding loop lets arbitrarily wide i
    through to acceptance.
    """
    _require_in_tracks(a, "i", "n")
    mats, lead = _count_matrices(a, "i", "n")
    nn = a.n_states
    acc = [1 if q in a.accepting else 0 for q in range(nn)]

    w = acc
    for d in reversed(digits_msd(n, a.base)):
        # w <- M_d * w, building the path-count column right to left
        w = [sum(mats[d][p][q] * w[q] for q in range(nn) if w[q]) for p in range(nn)]

    u0 = [0] * nn
    u0[a.initial] = 1
    total = sum(u0[q] * w[q] for q in range(nn))

    x = _vec_mat(u0, lead)
    # states on a zero-column cycle both reachable from x and able to
    # contribute to w witness infinitely many i
    zero = mats[0]
    fwd = {p for p in range(nn) if x[p]}
    stack = list(fwd)
    while stack:
        p = stack.pop()
        for q in range(nn):
            if zero[p][q] and q not in fwd:
                fwd.add(q)
                stack.append(q)
    bwd = {q for q in range(nn) if w[q]}
    stack = list(bwd)
    while stack:
        q = stack.pop()
        for p in range(nn):
            if zero[p][q] and p not in bwd:
                bwd.add(p)
                stack.append(p)
    live = fwd & bwd
    color: dict[int, int] = {}
    for start in live:
        if start in color:
            continue
        stack2 = [(start, iter(range(nn)))]
        color[start] = 1
        while stack2:
            p, it = stack2[-1]
            for q in it:
                if not zero[p][q] or q not in live:
                    continue
                c = color.get(q)
                if c == 1:
                    raise InfiniteCount(
                        "padding cycle admits arbitrarily wide i at n=%d" % n
                    )
                if c is None:
                    color[q] = 1
                    stack2.append((q, iter(range(nn))))
                    break
            else:
                color[p] = 2
                stack2.pop()

    for _ in range(len(live) + 1):
        total += sum(x[q] * w[q] for q in range(nn))
        x = _vec_mat(x, zero)
    return total


def counting_representation(a: MultiTrackDfa) -> LinearRepresentation:
    """Linear representation of n -> count_direct(a, n).

    The initial vector folds in every number of leading zero columns on
    the n track; the fold is finite exactly when no padding cycle can
    still reach acceptance, checked with an iteration cap.
    """
    _require_in_tracks(a, "i", "n")
    a = normalize_padding(a)
    mats, lead = _count_matrices(a, "i", "n")
    nn = a.n_states
    core = _coreachable(a)

    v = [0] * nn
    v[a.initial] = 1
    x = _vec_mat(v, lead)
    steps = 0
    while any(x[q] for q in core):
        if steps >= PADDING_SUM_CAP:
            raise NoConvergence(
                "leading-padding sum still live after %d terms" % PADDING_SUM_CAP
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


def evaluate(r: LinearRepresentation, n: int) -> Fraction:
    vec = list(r.v)
    for d in digits_msd(n, r.base):
        vec = _vec_mat(vec, r.matrices[d])
    return sum((x * y for x, y in zip(vec, r.w)), Fraction(0))


def eval_int(r: LinearRepresentation, n: int) -> int:
    val = evaluate(r, n)
    if val.denominator != 1 or val < 0:
        raise NonIntegerOutput("value at n=%d is %s" % (n, val))
    return int(val)


def _transpose(r: LinearRepresentation) -> LinearRepresentation:
    d = r.dimension

    def t(m):
        return tuple(tuple(m[p][q] for p in range(d)) for q in range(d))

    return LinearRepresentation(r.base, r.w, tuple(t(m) for m in r.matrices), r.v)


def _forward_reduce(r: LinearRepresentation) -> LinearRepresentation:
    d = r.dimension
    basis = RowBasis(d, track_coords=True)
    kept: list[Row] = []
    if basis.insert(r.v) is None:
        kept.append(r.v)
    queue = list(kept)
    while queue:
        u = queue.pop(0)
        for m in r.matrices:
            y = tuple(_vec_mat(list(u), m))
            if basis.insert(y) is None:
                kept.append(y)
                queue.append(y)
    dim = len(kept)
    if dim == 0:
        zero = (Fraction(0),)
        one_mat = ((Fraction(0),),)
        return LinearRepresentation(r.base, zero, tuple(one_mat for _ in r.matrices), zero)
    new_mats = []
    for m in r.matrices:
        rows = []
        for u in kept:
            rows.append(tuple(basis.coords(_vec_mat(list(u), m))))
        new_mats.append(tuple(rows))
    new_v = tuple(basis.coords(r.v))
    new_w = tuple(
        sum((a * b for a, b in zip(u, r.w)), Fraction(0)) for u in kept
    )
    return LinearRepresentation(r.base, new_v, tuple(new_mats), new_w)


def minimize_representation(r: LinearRepresentation) -> LinearRepresentation:
    """Equivalent representation of minimal dimension (forward then
    backward basis reduction, exact rationals)."""
    return _transpose(_forward_reduce(_transpose(_forward_reduce(r))))


def to_dfao(r: LinearRepresentation, state_cap: Optional[int] = 4096) -> Dfao:
    """Reachable-vector subset automaton of a bounded integer sequence.

    States are the exact vectors v * zeta(x); the construction
    terminates iff finitely many arise, which boundedness guarantees
    for a minimized representation.
    """
    index: dict[Row, int] = {}
    order: list[Row] = []

    def intern(vec: Row) -> int:
        k = index.get(vec)
        if k is None:
            k = len(order)
            index[vec] = k
            order.append(vec)
            if state_cap is not None and len(order) > state_cap:
                raise StateCapExceeded(
                    "more than %d distinct state vectors" % state_cap
                )
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
    (no leading zero out of the initial state)."""
    seen = {d.initial}
    stack = []
    for digit in range(1, d.base):
        t = d.transitions[d.initial][digit]
        if t not in seen:
            seen.add(t)
            stack.append(t)
    while stack:
        q = stack.pop()
        for digit in range(d.base):
            t = d.transitions[q][digit]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return max(int(d.outputs[q]) for q in seen)


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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("base:"):
        raise ValueError("expected 'base:' header")
    base = int(lines[0].split(":", 1)[1])
    if not lines[1].startswith("dimension:"):
        raise ValueError("expected 'dimension:' header")
    dim = int(lines[1].split(":", 1)[1])

    def parse_row(s: str) -> Row:
        parts = s.split()
        if len(parts) != dim:
            raise ValueError("expected %d entries, got %d" % (dim, len(parts)))
        return tuple(Fraction(p) for p in parts)

    if not lines[2].startswith("v:"):
        raise ValueError("expected 'v:' row")
    v = parse_row(lines[2].split(":", 1)[1])
    pos = 3
    matrices = []
    for d in range(base):
        if lines[pos] != "matrix %d:" % d:
            raise ValueError("expected 'matrix %d:'" % d)
        pos += 1
        rows = []
        for _ in range(dim):
            rows.append(parse_row(lines[pos]))
            pos += 1
        matrices.append(tuple(rows))
    if not lines[pos].startswith("w:"):
        raise ValueError("expected 'w:' row")
    w = parse_row(lines[pos].split(":", 1)[1])
    return LinearRepresentation(base, v, tuple(matrices), w)

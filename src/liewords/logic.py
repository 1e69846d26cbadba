"""Compiling formulas to multi-track automata.

Every connective maps to an automaton operation: comparisons and
sequence atoms to small primitive automata, boolean connectives to
products and complements, quantifiers to projection.  Compound terms
are flattened first: each `+`, `-` or constant introduces a temporary
track constrained by an adder or constant automaton.  Temporaries are
projected away last created first, each as soon as the parts that
mention it are conjoined (`_discharge`), so an intermediate reads only
the tracks of the parts that mention one temporary.  Natural subtraction
is strict, so an atom mentioning a-b is false whenever b exceeds a.

A predicate call is compiled by `apply_predicate`: the callee's body is
compiled once per compiler, and each call substitutes its argument
terms into that automaton by renaming tracks and adding constraints.
`build_predicate_library` compiles the conjugacy and counting predicates
of `PREDICATE_TEXTS` this way for one sequence.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import automata as au
from . import formulas as fo
from .errors import (
    BaseMismatch,
    InvalidParameter,
    ToolError,
    UnboundSequence,
    UnboundVariable,
    UnknownLetter,
)
from .words import Dfao


class _Temps:
    """Fresh track names for flattened subterms.  Each starts with `#`,
    which the lexer reads as a comment, so no formula variable can take
    one."""

    def __init__(self):
        self.count = 0
        self.names: list[str] = []

    def fresh(self) -> str:
        self.count += 1
        name = "#%d" % self.count
        self.names.append(name)
        return name


def _flatten(
    term: fo.Term, base: int, temps: _Temps, constraints: list[au.MultiTrackDfa]
) -> str:
    if isinstance(term, fo.Var):
        return term.name
    if isinstance(term, fo.Const):
        v = temps.fresh()
        constraints.append(au.const_predicate(v, term.value, base))
        return v
    left = _flatten(term.left, base, temps, constraints)
    right = _flatten(term.right, base, temps, constraints)
    if left == right:
        # adders need distinct tracks; duplicate one operand
        copy = temps.fresh()
        constraints.append(au.eq_predicate(right, copy, base))
        right = copy
    v = temps.fresh()
    if term.op == "+":
        constraints.append(au.add_predicate(left, right, v, base))
    else:
        # v + right = left, so v = left - right when it exists at all
        constraints.append(au.add_predicate(v, right, left, base))
    return v


def _discharge(
    core: au.MultiTrackDfa, constraints: list[au.MultiTrackDfa], temps: _Temps
) -> au.MultiTrackDfa:
    """Conjoin the constraints to the core and project the temporaries.

    Temporaries go in reverse order of creation, and each is projected
    as soon as the parts that mention it are conjoined: since
    Et (A & B) = A & Et B when t is not free in A, the parts that do not
    mention t wait.  The outer temporary of a compound term is created
    last and so leaves first, which keeps intermediates narrow: for
    `shift`'s `factoreq(i, (j+n)-t, t)` the widest has 5 tracks, where
    conjoining every constraint first would read 6."""
    parts = [core] + constraints
    for name in reversed(temps.names):
        mention = [p for p in parts if name in p.tracks]
        parts = [p for p in parts if name not in p.tracks]
        parts.append(au.project(au.conjoin(mention), name))
    return au.conjoin(parts)


# the automaton of each comparison op, on two distinct tracks
_COMPARE = {"=": au.eq_predicate, "<": au.lt_predicate, "<=": au.leq_predicate}


class _Compiler:
    def __init__(self, sequences: Mapping[str, Dfao], base: int):
        self.seqs = sequences
        self.base = base
        self.predicates: dict[str, au.MultiTrackDfa] = {}

    def compile(self, f: fo.Formula) -> au.MultiTrackDfa:
        if isinstance(f, fo.Compare):
            return self.comparison(f)
        if isinstance(f, fo.SeqIs):
            return self.seq_is(f)
        if isinstance(f, fo.SeqCompare):
            return self.seq_pair(f)
        if isinstance(f, fo.Not):
            return au.complement(self.compile(f.body))
        if isinstance(f, fo.Binary):
            if f.op == "=>":
                return au.combine(au.complement(self.compile(f.left)), self.compile(f.right), "or")
            parts = [self.compile(g) for g in _chain(f, f.op)]
            if f.op == "&":
                return au.conjoin(parts)
            parts.sort(key=lambda a: a.n_states)
            out = parts[0]
            for nxt in parts[1:]:
                out = au.combine(out, nxt, "or")
            return out
        if isinstance(f, fo.Quant):
            step = au.project if f.q == "E" else au.forall
            out = self.compile(f.body)
            for name in f.names:
                out = step(out, name)
            return out
        if isinstance(f, fo.Call):
            return apply_predicate(self.predicate(f.defn), dict(zip(f.defn.params, f.args)))
        raise TypeError("not a formula: %r" % (f,))

    def predicate(self, d: fo.PredicateDef) -> au.MultiTrackDfa:
        """The body of d, compiled on the first call of d by name."""
        if d.name not in self.predicates:
            self.predicates[d.name] = self.compile(d.body)
        return self.predicates[d.name]

    def dfao(self, name: str) -> Dfao:
        try:
            return self.seqs[name]
        except KeyError:
            raise UnboundSequence(
                "sequence %r is not bound (have: %s)"
                % (name, ", ".join(sorted(self.seqs)) or "none")
            ) from None

    def comparison(self, f: fo.Compare) -> au.MultiTrackDfa:
        temps = _Temps()
        constraints: list[au.MultiTrackDfa] = []
        left = _flatten(f.left, self.base, temps, constraints)
        right = _flatten(f.right, self.base, temps, constraints)
        if left != right:
            core = _COMPARE[f.op](left, right, self.base)
        elif f.op == "<":
            core = au.reject_all(self.base, (left,))
        else:
            core = au.accept_all(self.base, (left,))
        return _discharge(core, constraints, temps)

    def seq_is(self, f: fo.SeqIs) -> au.MultiTrackDfa:
        temps = _Temps()
        constraints: list[au.MultiTrackDfa] = []
        pos = _flatten(f.pos, self.base, temps, constraints)
        core = au.seq_letter_predicate(self.dfao(f.seq), pos, f.letter)
        return _discharge(core, constraints, temps)

    def seq_pair(self, f: fo.SeqCompare) -> au.MultiTrackDfa:
        d_left = self.dfao(f.left_seq)
        d_right = self.dfao(f.right_seq)
        if f.op == "=":
            rel = lambda a, b: a == b
        else:
            if d_left.letters != d_right.letters:
                raise UnknownLetter(
                    "letter order comparison needs one shared alphabet, got %r and %r"
                    % (d_left.letters, d_right.letters)
                )
            order = {c: k for k, c in enumerate(d_left.letters)}
            rel = lambda a, b: order[a] < order[b]
        temps = _Temps()
        constraints: list[au.MultiTrackDfa] = []
        lpos = _flatten(f.left_pos, self.base, temps, constraints)
        rpos = _flatten(f.right_pos, self.base, temps, constraints)
        core = _seq_pair_automaton(d_left, lpos, d_right, rpos, rel)
        return _discharge(core, constraints, temps)


def _chain(f: fo.Formula, op: str) -> list[fo.Formula]:
    """The operands of a run of `op` nodes, left to right."""
    if isinstance(f, fo.Binary) and f.op == op:
        return _chain(f.left, op) + _chain(f.right, op)
    return [f]


def _seq_pair_automaton(
    d_left: Dfao, lpos: str, d_right: Dfao, rpos: str, rel: Callable[[str, str], bool]
) -> au.MultiTrackDfa:
    """Automaton for rel(left[lpos], right[rpos]), built as a product of
    the two output automata.  lpos == rpos reads one shared track."""
    if d_left.base != d_right.base:
        raise BaseMismatch("bases %d and %d" % (d_left.base, d_right.base))
    base = d_left.base
    lt, li, lo = au.padded_dfao(d_left)
    rt, ri, ro = au.padded_dfao(d_right)
    tracks = tuple(sorted({lpos, rpos}))
    related = np.array([[rel(a, b) for b in ro] for a in lo], dtype=bool)
    rows, accepting = au._product(
        (lt, li, au._submap(tracks, (lpos,), base)),
        (rt, ri, au._submap(tracks, (rpos,), base)),
        lambda p, q: related[p, q],
    )
    return au.minimize(au.MultiTrackDfa(base, tracks, rows, accepting, 0))


def compile_formula(
    f: fo.Formula,
    sequences: Optional[Mapping[str, Dfao]] = None,
    base: Optional[int] = None,
) -> au.MultiTrackDfa:
    """Compile to an automaton whose tracks are the free variables.

    `base` may be left out when the formula reads a sequence; it must be
    at least 2.  Raises CompileBlowup when an operation would build more
    than `automata.STATE_CAP` states."""
    seqs = dict(sequences or {})
    used = fo.sequence_names(f)
    missing = used - seqs.keys()
    if missing:
        raise UnboundSequence(
            "unbound sequence%s: %s"
            % ("s" if len(missing) > 1 else "", ", ".join(sorted(missing)))
        )
    bases = {seqs[s].base for s in used}
    if len(bases) > 1:
        raise BaseMismatch("sequences use bases %s" % sorted(bases))
    if base is None:
        if not bases:
            raise InvalidParameter("formula reads no sequence; pass a base")
        base = bases.pop()
    elif base < 2:
        raise InvalidParameter("base must be at least 2, got %d" % base)
    elif bases and base not in bases:
        raise BaseMismatch("base %d but sequences use base %d" % (base, bases.pop()))
    out = _Compiler(seqs, base).compile(f)
    if set(out.tracks) != set(fo.free_vars(f)):
        raise ToolError(
            "compiled tracks %s differ from the free variables %s"
            % (sorted(out.tracks), sorted(fo.free_vars(f)))
        )
    return au.normalize_padding(out)


def apply_predicate(auto: au.MultiTrackDfa, args: Mapping[str, fo.Term]) -> au.MultiTrackDfa:
    """Substitute terms into a compiled predicate.

    Each parameter track is renamed to its argument variable, or to a
    fresh constrained track for a compound argument; temporaries are
    then projected out.  Equivalent to inlining the substitution into
    the predicate's formula and recompiling, but much cheaper."""
    base = auto.base
    temps = _Temps()
    constraints: list[au.MultiTrackDfa] = []
    rename: dict[str, str] = {}
    for param, term in args.items():
        if isinstance(term, fo.Var):
            target = term.name
        else:
            target = _flatten(term, base, temps, constraints)
        if target != param:
            rename[param] = target
    out = au.rename_tracks(auto, rename) if rename else auto
    return _discharge(out, constraints, temps)


# ---------------------------------------------------------------------------
# the bundled predicates


PREDICATE_TEXTS: tuple[tuple[str, tuple[str, ...], str], ...] = (
    # the same language as the published factoreq text,
    # `Au,v (i+v=j+u & u>=i & u<i+n) => W[u]=W[v]`, but with one bound
    # variable instead of two coupled ones: the offset form keeps the
    # projection deterministic and scales to larger bases
    ("factoreq", ("i", "j", "n"), "Au (u<n) => W[i+u]=W[j+u]"),
    ("shift", ("i", "j", "n", "t"), "factoreq(j, i+t, n-t) & factoreq(i, (j+n)-t, t)"),
    ("conj", ("i", "j", "n"), "Et (t<=n) & shift(i,j,n,t)"),
    ("lessthan", ("i", "j", "n"), "Et (t<n) & factoreq(i,j,t) & W[i+t]<W[j+t]"),
    ("lessthaneq", ("i", "j", "n"), "lessthan(i,j,n) | factoreq(i,j,n)"),
    ("allconj", ("i", "n"), "At (t<=n) => (Ej shift(i,j,n,t))"),
    ("lexleast", ("i", "n"), "Aj conj(i,j,n) => lessthaneq(i,j,n)"),
    ("lie", ("i", "n"), "allconj(i,n) & lexleast(i,n) & (Aj factoreq(i,j,n) => (j>=i))"),
)


def predicate_defs() -> dict[str, fo.PredicateDef]:
    """The bundled predicates, parsed in order; a body calls only the
    predicates before it."""
    defs: dict[str, fo.PredicateDef] = {}
    for name, params, text in PREDICATE_TEXTS:
        d = fo.parse_predicate_def(name, params, text, defs)
        extra = fo.free_vars(d.body) - set(params)
        if extra:
            raise UnboundVariable(
                "%s leaves %s unbound" % (name, ", ".join(sorted(extra)))
            )
        defs[name] = d
    return defs


def parse_with_library(text: str) -> fo.Formula:
    return fo.parse(text, predicate_defs())


def build_predicate_library(d: Dfao) -> dict[str, au.MultiTrackDfa]:
    """Compile the eight bundled predicates of PREDICATE_TEXTS against one
    sequence, bound as W, keyed in sorted order.  Each is compiled once,
    and a call to it applies its automaton (`apply_predicate`)."""
    compiler = _Compiler({"W": d}, d.base)
    lib = {name: compiler.predicate(defn) for name, defn in predicate_defs().items()}
    return dict(sorted(lib.items()))

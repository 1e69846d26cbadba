"""First order formulas over natural numbers and indexed sequences.

Concrete syntax, loosely modelled on the usual automatic-sequence
provers: quantifiers are written `Ax,y ...` and `Et ...` and scope to
the end of the enclosing formula, `=>` binds loosest and associates to
the right, then `|`, `&`, `~`.  Terms are built from variables, natural
constants, `+` and `-`.  `W[t]` reads the letter of sequence W at
position t, `@c` is the letter constant c, and `name(args)` calls a
named predicate.  A call stays a `Call` node: the compiler compiles the
predicate's body once and substitutes the arguments into that automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from .errors import FormulaSyntaxError


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Plus:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Minus:
    left: "Term"
    right: "Term"


Term = Union[Var, Const, Plus, Minus]


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Lt:
    left: Term
    right: Term


@dataclass(frozen=True)
class Leq:
    left: Term
    right: Term


@dataclass(frozen=True)
class SeqIs:
    seq: str
    pos: Term
    letter: str


@dataclass(frozen=True)
class SeqEq:
    left_seq: str
    left_pos: Term
    right_seq: str
    right_pos: Term


@dataclass(frozen=True)
class SeqLetterLt:
    left_seq: str
    left_pos: Term
    right_seq: str
    right_pos: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    names: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    names: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True)
class PredicateDef:
    name: str
    params: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True)
class Call:
    """A named predicate applied to argument terms, one per parameter."""

    defn: PredicateDef
    args: tuple[Term, ...]


Formula = Union[
    Eq, Lt, Leq, SeqIs, SeqEq, SeqLetterLt, Not, And, Or, Implies, Exists, Forall, Call
]


# ---------------------------------------------------------------------------
# queries


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Const):
        return frozenset()
    return term_vars(t.left) | term_vars(t.right)


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Eq, Lt, Leq)):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, SeqIs):
        return term_vars(f.pos)
    if isinstance(f, (SeqEq, SeqLetterLt)):
        return term_vars(f.left_pos) | term_vars(f.right_pos)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - frozenset(f.names)
    if isinstance(f, Call):
        return frozenset().union(*map(term_vars, f.args))
    raise TypeError("not a formula: %r" % (f,))


def sequence_names(f: Formula) -> frozenset[str]:
    if isinstance(f, SeqIs):
        return frozenset({f.seq})
    if isinstance(f, (SeqEq, SeqLetterLt)):
        return frozenset({f.left_seq, f.right_seq})
    if isinstance(f, (Eq, Lt, Leq)):
        return frozenset()
    if isinstance(f, Not):
        return sequence_names(f.body)
    if isinstance(f, (And, Or, Implies)):
        return sequence_names(f.left) | sequence_names(f.right)
    if isinstance(f, (Exists, Forall)):
        return sequence_names(f.body)
    if isinstance(f, Call):
        return sequence_names(f.defn.body)
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# printing


def term_to_text(t: Term, level: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    op = "+" if isinstance(t, Plus) else "-"
    s = "%s%s%s" % (term_to_text(t.left, 0), op, term_to_text(t.right, 1))
    return "(" + s + ")" if level >= 1 else s


def to_text(f: Formula, level: int = 0) -> str:
    """Render with minimal parentheses; parse(to_text(f), defs) returns f
    when defs holds the predicates that f calls."""

    def wrap(s: str, own: int) -> str:
        return "(" + s + ")" if own < level else s

    if isinstance(f, Eq):
        return "%s=%s" % (term_to_text(f.left), term_to_text(f.right))
    if isinstance(f, Lt):
        return "%s<%s" % (term_to_text(f.left), term_to_text(f.right))
    if isinstance(f, Leq):
        return "%s<=%s" % (term_to_text(f.left), term_to_text(f.right))
    if isinstance(f, SeqIs):
        return "%s[%s]=@%s" % (f.seq, term_to_text(f.pos), f.letter)
    if isinstance(f, SeqEq):
        return "%s[%s]=%s[%s]" % (
            f.left_seq,
            term_to_text(f.left_pos),
            f.right_seq,
            term_to_text(f.right_pos),
        )
    if isinstance(f, SeqLetterLt):
        return "%s[%s]<%s[%s]" % (
            f.left_seq,
            term_to_text(f.left_pos),
            f.right_seq,
            term_to_text(f.right_pos),
        )
    if isinstance(f, Not):
        return wrap("~" + to_text(f.body, 4), 4)
    if isinstance(f, And):
        return wrap("%s & %s" % (to_text(f.left, 3), to_text(f.right, 4)), 3)
    if isinstance(f, Or):
        return wrap("%s | %s" % (to_text(f.left, 2), to_text(f.right, 3)), 2)
    if isinstance(f, Implies):
        return wrap("%s => %s" % (to_text(f.left, 2), to_text(f.right, 1)), 1)
    if isinstance(f, (Exists, Forall)):
        q = "E" if isinstance(f, Exists) else "A"
        return wrap("%s%s %s" % (q, ",".join(f.names), to_text(f.body, 1)), 1)
    if isinstance(f, Call):
        return "%s(%s)" % (f.defn.name, ",".join(map(term_to_text, f.args)))
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# lexer


_SYMBOLS = ("=>", "<=", ">=", "!=", "(", ")", "[", "]", ",", "+", "-", "=", "<", ">", "&", "|", "~")


@dataclass(frozen=True)
class _Token:
    kind: str  # ident, number, letter, symbol, end
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "@":
            if i + 1 < n and text[i + 1].isalnum():
                toks.append(_Token("letter", text[i + 1], line, col))
                i += 2
                col += 2
                continue
            raise FormulaSyntaxError("@ must be followed by a letter", line, col)
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Token("symbol", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise FormulaSyntaxError("unexpected character %r" % ch, line, col)
    toks.append(_Token("end", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token], defs: Mapping[str, PredicateDef]):
        self.toks = tokens
        self.pos = 0
        self.defs = defs

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise FormulaSyntaxError(
                "expected %s, got %r" % (want, t.text or "end of input"), t.line, t.col
            )
        return self.take()

    def at_symbol(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "symbol" and t.text == text

    # -- quantifier prefix: an ident like Au or Et, capital A/E glued to
    # the first bound variable
    def quantifier_split(self) -> Optional[tuple[str, str]]:
        t = self.peek()
        if t.kind == "ident" and len(t.text) > 1 and t.text[0] in "AE":
            rest = t.text[1:]
            if rest[0].islower() or rest[0] == "_":
                return t.text[0], rest
        return None

    def formula(self) -> Formula:
        q = self.quantifier_split()
        if q is not None:
            head = self.take()
            names = [q[1]]
            while self.at_symbol(","):
                self.take()
                names.append(self.expect("ident").text)
            if len(set(names)) != len(names):
                raise FormulaSyntaxError(
                    "repeated bound variable", head.line, head.col
                )
            body = self.formula()
            cls = Exists if q[0] == "E" else Forall
            return cls(tuple(names), body)
        left = self.disjunction()
        if self.at_symbol("=>"):
            self.take()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.at_symbol("|"):
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.at_symbol("&"):
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        if self.at_symbol("~"):
            self.take()
            return Not(self.unary())
        q = self.quantifier_split()
        if q is not None:
            return self.formula()
        if self.at_symbol("("):
            mark = self.pos
            self.take()
            try:
                inner = self.formula()
                self.expect("symbol", ")")
                return inner
            except FormulaSyntaxError as err1:
                self.pos = mark
                try:
                    return self.atom()
                except FormulaSyntaxError as err2:
                    # report whichever attempt got further into the input
                    raise err1 if (err1.line, err1.col) >= (err2.line, err2.col) else err2
        return self.atom()

    def atom(self) -> Formula:
        t = self.peek()
        if t.kind == "ident":
            nxt = self.toks[self.pos + 1]
            if nxt.kind == "symbol" and nxt.text == "(":
                return self.call()
            if nxt.kind == "symbol" and nxt.text == "[":
                return self.seq_atom()
        if t.kind == "letter":
            self.take()
            self.expect("symbol", "=")
            seq, pos = self.seq_ref()
            return SeqIs(seq, pos, t.text)
        left = self.term()
        op = self.peek()
        if op.kind != "symbol" or op.text not in ("=", "<", "<=", ">", ">=", "!="):
            raise FormulaSyntaxError(
                "expected a comparison, got %r" % (op.text or "end of input"),
                op.line,
                op.col,
            )
        self.take()
        right = self.term()
        return _compare(op.text, left, right)

    def call(self) -> Formula:
        name_tok = self.take()
        name = name_tok.text
        if name not in self.defs:
            raise FormulaSyntaxError("unknown predicate %r" % name, name_tok.line, name_tok.col)
        self.expect("symbol", "(")
        args = [self.term()]
        while self.at_symbol(","):
            self.take()
            args.append(self.term())
        self.expect("symbol", ")")
        d = self.defs[name]
        if len(args) != len(d.params):
            raise FormulaSyntaxError(
                "%s expects %d arguments, got %d" % (name, len(d.params), len(args)),
                name_tok.line,
                name_tok.col,
            )
        return Call(d, tuple(args))

    def seq_ref(self) -> tuple[str, Term]:
        name = self.expect("ident").text
        self.expect("symbol", "[")
        pos = self.term()
        self.expect("symbol", "]")
        return name, pos

    def seq_atom(self) -> Formula:
        lseq, lpos = self.seq_ref()
        op = self.peek()
        if op.kind != "symbol" or op.text not in ("=", "<", ">", "!="):
            raise FormulaSyntaxError(
                "expected =, <, > or != after a sequence letter", op.line, op.col
            )
        self.take()
        if self.peek().kind == "letter":
            lt = self.take()
            if op.text == "=":
                return SeqIs(lseq, lpos, lt.text)
            if op.text == "!=":
                return Not(SeqIs(lseq, lpos, lt.text))
            raise FormulaSyntaxError(
                "letters compare to letters only with = or !=", lt.line, lt.col
            )
        rseq, rpos = self.seq_ref()
        if op.text == "=":
            return SeqEq(lseq, lpos, rseq, rpos)
        if op.text == "!=":
            return Not(SeqEq(lseq, lpos, rseq, rpos))
        if op.text == "<":
            return SeqLetterLt(lseq, lpos, rseq, rpos)
        return SeqLetterLt(rseq, rpos, lseq, lpos)

    def term(self) -> Term:
        left = self.term_factor()
        while self.peek().kind == "symbol" and self.peek().text in ("+", "-"):
            op = self.take().text
            right = self.term_factor()
            left = Plus(left, right) if op == "+" else Minus(left, right)
        return left

    def term_factor(self) -> Term:
        t = self.peek()
        if t.kind == "number":
            self.take()
            return Const(int(t.text))
        if t.kind == "ident":
            self.take()
            return Var(t.text)
        if self.at_symbol("("):
            self.take()
            inner = self.term()
            self.expect("symbol", ")")
            return inner
        raise FormulaSyntaxError(
            "expected a term, got %r" % (t.text or "end of input"), t.line, t.col
        )


def _compare(op: str, left: Term, right: Term) -> Formula:
    if op == "=":
        return Eq(left, right)
    if op == "<":
        return Lt(left, right)
    if op == "<=":
        return Leq(left, right)
    if op == ">":
        return Lt(right, left)
    if op == ">=":
        return Leq(right, left)
    return Not(Eq(left, right))


def parse(text: str, defs: Optional[Mapping[str, PredicateDef]] = None) -> Formula:
    p = _Parser(_lex(text), defs or {})
    f = p.formula()
    tail = p.peek()
    if tail.kind != "end":
        raise FormulaSyntaxError("unexpected %r after formula" % tail.text, tail.line, tail.col)
    return f


def parse_predicate_def(name: str, params: tuple[str, ...], text: str,
                        defs: Optional[Mapping[str, PredicateDef]] = None) -> PredicateDef:
    return PredicateDef(name, params, parse(text, defs))

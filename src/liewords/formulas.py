"""First order formulas over natural numbers and indexed sequences.

Concrete syntax, loosely modelled on the usual automatic-sequence
provers: quantifiers are written `Ax,y ...` and `Et ...` and scope to
the end of the enclosing formula, `=>` binds loosest and associates to
the right, then `|`, `&`, `~`.  Terms are built from variables, natural
constants (ASCII digits), `+` and `-`.  `W[t]` reads the letter of
sequence W at position t, `@c` is the letter constant c, and
`name(args)` calls a named predicate.  A call stays a `Call` node: the
compiler compiles the predicate's body once and substitutes the
arguments into that automaton.

One node class per kind, the variants told apart by an operator field:

* terms: `Var`, `Const`, `Arith` (`+`, `-`);
* atoms: `Compare` (`=`, `<`, `<=`), `SeqIs` (a letter of a sequence is
  a letter constant), `SeqCompare` (`=`, `<` between two letters of
  sequences), `Call`;
* connectives: `Not`, `Binary` (`&`, `|`, `=>`), `Quant` (`E`, `A`).

`!=`, `>` and `>=` are sugar: the parser swaps the sides or negates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Union

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
class Arith:
    op: str  # "+" or "-" (natural, so a-b has no value when b > a)
    left: "Term"
    right: "Term"


Term = Union[Var, Const, Arith]


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Compare:
    op: str  # "=", "<" or "<="
    left: Term
    right: Term


@dataclass(frozen=True)
class SeqIs:
    seq: str
    pos: Term
    letter: str


@dataclass(frozen=True)
class SeqCompare:
    op: str  # "=" or "<", the latter in the sequences' declared letter order
    left_seq: str
    left_pos: Term
    right_seq: str
    right_pos: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Binary:
    op: str  # "&", "|" or "=>"
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Quant:
    q: str  # "E" or "A"
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


Formula = Union[Compare, SeqIs, SeqCompare, Not, Binary, Quant, Call]


# ---------------------------------------------------------------------------
# queries


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Const):
        return frozenset()
    return term_vars(t.left) | term_vars(t.right)


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Compare):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, SeqIs):
        return term_vars(f.pos)
    if isinstance(f, SeqCompare):
        return term_vars(f.left_pos) | term_vars(f.right_pos)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, Binary):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Quant):
        return free_vars(f.body) - frozenset(f.names)
    if isinstance(f, Call):
        return frozenset().union(*map(term_vars, f.args))
    raise TypeError("not a formula: %r" % (f,))


def sequence_names(f: Formula) -> frozenset[str]:
    if isinstance(f, SeqIs):
        return frozenset({f.seq})
    if isinstance(f, SeqCompare):
        return frozenset({f.left_seq, f.right_seq})
    if isinstance(f, Compare):
        return frozenset()
    if isinstance(f, (Not, Quant)):
        return sequence_names(f.body)
    if isinstance(f, Binary):
        return sequence_names(f.left) | sequence_names(f.right)
    if isinstance(f, Call):
        return sequence_names(f.defn.body)
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# printing

# binding level of each connective: a looser one is parenthesised under a
# tighter one; `~` binds at 4
_LEVELS = {"=>": 1, "|": 2, "&": 3}


def term_to_text(t: Term, level: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    s = "%s%s%s" % (term_to_text(t.left, 0), t.op, term_to_text(t.right, 1))
    return "(" + s + ")" if level >= 1 else s


def to_text(f: Formula, level: int = 0) -> str:
    """Render with minimal parentheses; parse(to_text(f), defs) returns f
    when defs holds the predicates that f calls."""

    def wrap(s: str, own: int) -> str:
        return "(" + s + ")" if own < level else s

    if isinstance(f, Compare):
        return "%s%s%s" % (term_to_text(f.left), f.op, term_to_text(f.right))
    if isinstance(f, SeqIs):
        return "%s[%s]=@%s" % (f.seq, term_to_text(f.pos), f.letter)
    if isinstance(f, SeqCompare):
        return "%s[%s]%s%s[%s]" % (
            f.left_seq,
            term_to_text(f.left_pos),
            f.op,
            f.right_seq,
            term_to_text(f.right_pos),
        )
    if isinstance(f, Not):
        return wrap("~" + to_text(f.body, 4), 4)
    if isinstance(f, Binary):
        own = _LEVELS[f.op]
        # `&` and `|` associate to the left, `=>` to the right
        left, right = (own + 1, own) if f.op == "=>" else (own, own + 1)
        return wrap("%s %s %s" % (to_text(f.left, left), f.op, to_text(f.right, right)), own)
    if isinstance(f, Quant):
        return wrap("%s%s %s" % (f.q, ",".join(f.names), to_text(f.body, 1)), 1)
    if isinstance(f, Call):
        return "%s(%s)" % (f.defn.name, ",".join(map(term_to_text, f.args)))
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# lexer

# One alternative per token kind, tried in order; `other` takes any
# character that starts no token.  In a str pattern `\w` is
# `str.isalnum()` or `_`, and `\d` a decimal digit of any script.  An
# identifier starts with `str.isalpha()` or `_`: `[^\W\d]` also admits
# the other digits, such as `²`, which `_lex` refuses.
_TOKENS = re.compile(
    r"""(?P<newline>\n)
      | (?P<space>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>[0-9]+)
      | (?P<ident>[^\W\d]\w*)
      | @(?P<letter>[^\W_])
      | (?P<symbol>=>|<=|>=|!=|[()\[\],+\-=<>&|~])
      | (?P<other>.)""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # ident, number, letter, symbol, end
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    toks = []
    line, line_start = 1, 0
    for m in _TOKENS.finditer(text):
        kind, ch = m.lastgroup, m[0][0]
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "other" or kind == "ident" and not (ch.isalpha() or ch == "_"):
            if ch == "@":
                raise FormulaSyntaxError("@ must be followed by a letter", line, col)
            raise FormulaSyntaxError("unexpected character %r" % ch, line, col)
        elif kind not in ("space", "comment"):
            toks.append(_Token(kind, m[kind], line, col))
    toks.append(_Token("end", "", line, len(text) - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# parser

# each comparison as written: the node's op, whether the sides swap, and
# whether the node is negated
_COMPARISONS = {
    "=": ("=", False, False),
    "!=": ("=", False, True),
    "<": ("<", False, False),
    ">": ("<", True, False),
    "<=": ("<=", False, False),
    ">=": ("<=", True, False),
}


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
            return Quant(q[0], tuple(names), self.formula())
        left = self.binary("|", self.conjunction)
        if self.at_symbol("=>"):
            self.take()
            return Binary("=>", left, self.formula())
        return left

    def conjunction(self) -> Formula:
        return self.binary("&", self.unary)

    def binary(self, op: str, operand) -> Formula:
        """operand (op operand)*, associated to the left."""
        left = operand()
        while self.at_symbol(op):
            self.take()
            left = Binary(op, left, operand())
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
        if op.kind != "symbol" or op.text not in _COMPARISONS:
            raise FormulaSyntaxError(
                "expected a comparison, got %r" % (op.text or "end of input"),
                op.line,
                op.col,
            )
        self.take()
        right = self.term()
        node, swap, negate = _COMPARISONS[op.text]
        f = Compare(node, right, left) if swap else Compare(node, left, right)
        return Not(f) if negate else f

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
        left = self.seq_ref()
        op = self.peek()
        if op.kind != "symbol" or op.text not in ("=", "<", ">", "!="):
            raise FormulaSyntaxError(
                "expected =, <, > or != after a sequence letter", op.line, op.col
            )
        self.take()
        node, swap, negate = _COMPARISONS[op.text]
        if self.peek().kind == "letter":
            lt = self.take()
            if node != "=":
                raise FormulaSyntaxError(
                    "letters compare to letters only with = or !=", lt.line, lt.col
                )
            f = SeqIs(*left, lt.text)
        else:
            right = self.seq_ref()
            f = SeqCompare(node, *right, *left) if swap else SeqCompare(node, *left, *right)
        return Not(f) if negate else f

    def term(self) -> Term:
        left = self.term_factor()
        while self.peek().kind == "symbol" and self.peek().text in ("+", "-"):
            op = self.take().text
            left = Arith(op, left, self.term_factor())
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

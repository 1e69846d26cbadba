"""Infinite word engine.

Words come from two interchangeable sources: fixed points of prolongable
morphisms (optionally followed by a letter-to-letter coding) and DFAOs
reading the base-k digits of the position, most significant digit first.
A DFAO word is also the coded fixed point of a k-uniform morphism on its
states (Cobham), and `WordGenerator` reads it as one, so every word here
is generated and factored as a coded morphic fixed point.

Factor sets are exact for every word.  The n-prefix closure
(`_MorphicWord.closure`) gives the length-n factors of any such fixed
point; at n = 1 and n = 2 it gives the letters and the 2-factors.  When
every letter of the word grows under its morphism (Pansiot 1984), the
length-n factors are also the blocks of sigma^m(ab) that start inside
sigma^m(a), over the 2-factors ab, and this faster path is taken.  They
are handed on as spans of text with a number of block starts: each
letter's image once for the blocks inside it, and per 2-factor ab only
the last min(|sigma^m(a)|, n-1) letters of sigma^m(a) with the first n-1
of sigma^m(b), for the blocks that cross into sigma^m(b).  All bundled
words and every DFAO word qualify.  A word with a non-growing letter
takes the closure at n itself, each coded factor a span of one block.

The `certified` label is separate: it is set only when the generator is
the fixed point of a primitive morphism (or a coding of one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import (
    FormatError,
    InvalidParameter,
    NotProlongable,
    UnknownLetter,
    WindowExceeded,
)

# letters a factor set may hold: in the images of the growing path, in the
# members of the closure, in the blocks of `exact_factors`, and in the
# prefixes of `saturation_window`
LETTER_BUDGET = 1 << 25


@dataclass(frozen=True)
class Morphism:
    """Letter substitution over single-character letters.

    `alphabet` fixes the declared letter order.  Only the logic route's
    letter comparisons (`W[i]<W[j]`, through a DFAO's `letters`) read it;
    the factor statistics compare letters by codepoint.
    """

    alphabet: tuple[str, ...]
    rules: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set()
        for a in self.alphabet:
            if len(a) != 1:
                raise UnknownLetter("letters must be single characters, got %r" % a)
            if a in seen:
                raise UnknownLetter("duplicate letter %r" % a)
            seen.add(a)
        rule_map = dict(self.rules)
        for a in self.alphabet:
            if a not in rule_map:
                raise UnknownLetter("no rule for letter %r" % a)
        for src, image in self.rules:
            if src not in seen:
                raise UnknownLetter("rule for undeclared letter %r" % src)
            if not image:
                raise UnknownLetter("empty image for letter %r" % src)
            for c in image:
                if c not in seen:
                    raise UnknownLetter("image of %r uses undeclared letter %r" % (src, c))

    @property
    def rule_map(self) -> dict[str, str]:
        return dict(self.rules)

    def apply(self, word: str) -> str:
        rules = self.rule_map
        return "".join(rules[c] for c in word)

    def is_prolongable_on(self, seed: str) -> bool:
        image = self.rule_map.get(seed)
        return image is not None and len(image) >= 2 and image[0] == seed


def morphism(alphabet, rules: Mapping[str, str]) -> Morphism:
    return Morphism(tuple(alphabet), tuple((a, rules[a]) for a in alphabet))


@dataclass(frozen=True)
class Dfao:
    """Deterministic finite automaton with output, digits read msd first.

    State 0 is initial.  Reading the empty string (the canonical
    representation of 0) yields outputs[initial].  `letters` is the
    declared output order; comparisons between outputs use this order.
    """

    base: int
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[str, ...]
    letters: tuple[str, ...]
    initial: int = 0

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        for row in self.transitions:
            if len(row) != self.base:
                raise ValueError("each state needs one transition per digit")
        if len(self.outputs) != len(self.transitions):
            raise ValueError("one output per state required")
        for out in self.outputs:
            if out not in self.letters:
                raise UnknownLetter("output %r missing from declared letters" % (out,))

    @property
    def n_states(self) -> int:
        return len(self.transitions)


def digits_msd(n: int, base: int) -> list[int]:
    """Canonical base-k digits of n, most significant first; empty for 0."""
    if n < 0:
        raise ValueError("only natural numbers have digit strings")
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    out.reverse()
    return out


def dfao_eval(d: Dfao, n: int) -> str:
    state = d.initial
    trans = d.transitions
    for digit in digits_msd(n, d.base):
        state = trans[state][digit]
    return d.outputs[state]


def dfao_morphism(d: Dfao) -> tuple["Morphism", str, dict[str, str]]:
    """k-uniform morphism, seed and coding whose coded fixed point is the
    DFAO's word (Cobham 1972).

    State q becomes the letter chr(q + 1), with image delta(q, 0) ...
    delta(q, k-1).  Position 0 reads the empty digit string, and no other
    digit string starts with 0, so a fresh seed letter chr(0) stands for
    the initial state there, with image chr(0) delta(q0, 1) ...
    delta(q0, k-1).  The coding sends each letter to its state's output.
    """
    state = [chr(q + 1) for q in range(d.n_states)]
    seed = chr(0)
    first = d.transitions[d.initial]
    rules = {seed: seed + "".join(state[t] for t in first[1:])}
    for q, row in enumerate(d.transitions):
        rules[state[q]] = "".join(state[t] for t in row)
    coding = dict(zip(state, d.outputs))
    coding[seed] = d.outputs[d.initial]
    return morphism([seed] + state, rules), seed, coding


def fixed_point_prefix(m: Morphism, seed: str, length: int) -> str:
    """Prefix of the fixed point of m prolongable on seed.

    Applies the whole morphism to the current prefix and truncates; images
    are nonempty, so each round strictly extends the prefix until the
    target length is reached.
    """
    _require_prolongable(m, seed)
    rules = m.rule_map
    s = seed
    while len(s) < length:
        # image of a fixed-point prefix is again a fixed-point prefix, so
        # truncating as soon as the target length is reached is sound
        parts = []
        total = 0
        for c in s:
            parts.append(rules[c])
            total += len(rules[c])
            if total >= length:
                break
        s = "".join(parts)
    return s[:length]


def _require_prolongable(m: Morphism, seed: str) -> None:
    if seed not in m.rule_map:
        raise UnknownLetter("seed %r not in alphabet" % seed)
    if not m.is_prolongable_on(seed):
        raise NotProlongable(
            "image of %r is %r; need it to start with %r and have length >= 2"
            % (seed, m.rule_map[seed], seed)
        )


def is_primitive_morphism(m: Morphism) -> bool:
    """True when some power of the incidence matrix is everywhere positive:
    for some k, the k-th image of every letter holds every letter, and
    k = (d-1)^2 + 1 suffices for d letters (Wielandt).  reach[a] is the
    set of letters of the current image of a."""
    step = {a: frozenset(image) for a, image in m.rules}
    reach = dict(step)
    for _ in range(len(step) ** 2 + 1):
        if all(len(r) == len(step) for r in reach.values()):
            return True
        reach = {a: frozenset().union(*(step[c] for c in r)) for a, r in reach.items()}
    return False


def growing_letters(m: Morphism) -> frozenset[str]:
    """Letters c whose images sigma^k(c) grow without bound: with d
    letters, those with |sigma^(2d)(c)| > |sigma^d(c)|.

    Image lengths never shrink.  Say c reaches, in the letter graph (c
    itself included), a letter e that lies on a cycle and has an image of
    length >= 2.  Then c grows, since each turn of the cycle adds a letter.
    Also sigma^d(c) holds a letter f of e's cycle (walk to e, then round),
    and f reaches e in r < d steps, so |sigma^(r+1)(f)| >= |sigma(e)| >= 2:
    sigma^d(c) gains a letter within d more steps.  Otherwise take a path
    of d steps from c.  It repeats a letter, and from there on it stays on
    a cycle of one-letter images, because the one successor of a letter on
    such a cycle is on the cycle.  So every letter of sigma^d(c) lies on a
    cycle of one-letter images, and |sigma^k(c)| = |sigma^d(c)| for k >= d.
    """
    rules = m.rule_map
    size = dict.fromkeys(m.alphabet, 1)
    for _ in range(2):
        low = size
        for _ in m.alphabet:
            size = {c: sum(size[e] for e in rules[c]) for c in m.alphabet}
    return frozenset(c for c in m.alphabet if size[c] > low[c])


class _MorphicWord:
    """A word as the coded fixed point of a morphism, with what exact factor
    sets need: the seed, the 2-factors and the letters (the closure at n = 2
    and n = 1), whether the letters all grow, and the images sigma^k(c)
    built so far, by k."""

    def __init__(self, m: Morphism, seed: str, coding: Optional[Mapping[str, str]]):
        _require_prolongable(m, seed)
        self.rules = m.rule_map
        self.seed = seed
        self.pairs = sorted(self.closure(2))
        self.letters = sorted(self.closure(1))
        self.growing = set(self.letters) <= growing_letters(m)
        self.table = str.maketrans(dict(coding)) if coding else None
        self.images: list[dict[str, str]] = [{c: c for c in self.letters}]

    def images_for(self, n: int) -> dict[str, str]:
        """sigma^m(c) for each letter, with m the least power that makes
        every image at least n-1 letters long.  Sizes are worked out before
        any image is built; raises WindowExceeded when the images held
        would pass LETTER_BUDGET letters."""
        rules, images = self.rules, self.images
        held = sum(len(s) for level in images for s in level.values())
        size = dict.fromkeys(self.letters, 1)
        m = 0
        while min(size.values()) < n - 1:
            m += 1
            size = {c: sum(size[d] for d in rules[c]) for c in self.letters}
            if m >= len(images):
                held += sum(size.values())
                if held > LETTER_BUDGET:
                    raise WindowExceeded(
                        "exact factor set of length %d needs images of more than "
                        "the letter budget of %d letters" % (n, LETTER_BUDGET)
                    )
        while len(images) <= m:
            last = images[-1]
            images.append({c: "".join([last[d] for d in rules[c]]) for c in self.letters})
        return images[m]

    def closure(self, n: int) -> set[str]:
        """The length-n factors of the fixed point x, before the coding,
        for n >= 1: the closure of {x[0:n]} under v -> the blocks t[i:i+n],
        i < |sigma(v[0])|, with t the first |sigma(v[0])|+n-1 letters of
        sigma(v).

        A factor at a position p >= 1 starts inside sigma(x[q]) for some
        q < p, since |sigma(seed)| >= 2, so it is such a block of
        sigma(x[q:q+n]), a factor at an earlier position; by induction on
        p, nothing is missed.  Raises WindowExceeded when the members would
        pass LETTER_BUDGET letters."""
        rules = self.rules
        x = self.seed
        # a first member past the budget is not built; the check below fires
        while len(x) < n <= LETTER_BUDGET:
            x = "".join([rules[c] for c in x[:n]])
        found = {x[:n]}
        todo = [x[:n]]
        while todo:
            v = todo.pop()
            head = len(rules[v[0]])
            t = "".join([rules[c] for c in v])[: head + n - 1]
            for i in range(head):
                u = t[i : i + n]
                if u not in found:
                    found.add(u)
                    todo.append(u)
            if n * len(found) > LETTER_BUDGET:
                raise WindowExceeded(
                    "factor set of length %d holds more than the letter budget "
                    "of %d letters" % (n, LETTER_BUDGET)
                )
        return found


class WordGenerator:
    """A named source of prefixes, with an in-memory cache of the longest
    prefix built so far.  It also keeps, built on first use, the morphic
    word (`_MorphicWord`) that `factor_spans` reads.

    The word is resolved once, at construction, to a coded fixed point
    (morphism, seed, coding): the given morphism when there is one (tests
    assert it agrees with the DFAO for the bundled words), else the DFAO's
    k-uniform morphism (`dfao_morphism`).  Prefixes and factor sets both
    read that fixed point.  `coding` is an optional letter-to-letter map
    applied to the fixed point.  Every letter of the coded word, a `coding`
    value or a DFAO output, must be one character, as a `Morphism`'s
    letters are; UnknownLetter is raised otherwise.  (A `Dfao` itself may
    output longer strings: `counting.to_dfao` writes counts.)
    """

    def __init__(
        self,
        name: str,
        *,
        morphism: Optional[Morphism] = None,
        seed: Optional[str] = None,
        coding: Optional[Mapping[str, str]] = None,
        dfao: Optional[Dfao] = None,
    ):
        if morphism is None and dfao is None:
            raise ValueError("need a morphism or a dfao")
        if morphism is not None and seed is None:
            seed = next((c for c in morphism.alphabet if morphism.is_prolongable_on(c)), None)
            if seed is None:
                raise NotProlongable("morphism is not prolongable on any letter")
        self.name = name
        self.morphism = morphism
        self.seed = seed
        self.coding = dict(coding) if coding else None
        self.dfao = dfao
        self.certifiable = morphism is not None and is_primitive_morphism(morphism)
        if morphism is not None:
            self._fixed_point = (morphism, seed, self.coding)
        else:
            self._fixed_point = dfao_morphism(dfao)
        for letter in (self._fixed_point[2] or {}).values():
            if len(letter) != 1:
                raise UnknownLetter(
                    "letters of the coded word must be single characters, got %r" % letter
                )
        self._cached = ""
        self._morphic: Optional[_MorphicWord] = None

    def __repr__(self):
        return "WordGenerator(%r)" % self.name

    def _morphic_word(self) -> _MorphicWord:
        """The word as a coded morphic fixed point, with its 2-factors and
        the images cached for exact factor sets; built on first use."""
        if self._morphic is None:
            self._morphic = _MorphicWord(*self._fixed_point)
        return self._morphic

    def prefix(self, length: int) -> str:
        """The first `length` letters, memoized in memory.  Raises
        WindowExceeded, before building anything, when `length` is past
        LETTER_BUDGET letters."""
        if length > LETTER_BUDGET:
            raise WindowExceeded(
                "a prefix of %d letters is past the letter budget of %d letters"
                % (length, LETTER_BUDGET)
            )
        if length > len(self._cached):
            m, seed, coding = self._fixed_point
            s = fixed_point_prefix(m, seed, length)
            self._cached = s.translate(str.maketrans(coding)) if coding else s
        return self._cached[:length]


def _exact_spans(word: _MorphicWord, n: int) -> list[tuple[str, int]]:
    """Spans whose blocks are the length-n factors, n >= 1, of a word whose
    letters all grow, coded, with each image's interior read once.

    A block that starts inside sigma^m(a) either ends inside it or runs
    into the image of the next letter b.  So the spans are:

    * (sigma^m(a), |sigma^m(a)|-n+1) once per letter a whose image has at
      least n letters: the blocks inside the image, read once however many
      2-factors begin with a;
    * (sigma^m(a)[-k:] + sigma^m(b)[:n-1], k) with k = min(|sigma^m(a)|, n-1)
      once per 2-factor ab with k >= 1: the blocks that start in the last k
      letters of sigma^m(a) and end inside sigma^m(b)."""
    images = word.images_for(n)
    table = word.table
    spans = []
    for a in word.letters:
        s = images[a]
        if len(s) >= n:
            spans.append((s, len(s) - n + 1))
    if n > 1:
        for a, b in word.pairs:
            s = images[a]
            k = min(len(s), n - 1)
            spans.append((s[-k:] + images[b][: n - 1], k))
    if table is not None:
        spans = [(s.translate(table), starts) for s, starts in spans]
    return spans


def _span_blocks(spans: list[tuple[str, int]], n: int) -> frozenset[str]:
    # one frozenset straight from the blocks: filling a set and copying it
    # raised the peak memory of a table
    return frozenset(s[i : i + n] for s, starts in spans for i in range(starts))


def _check_length(n: int) -> None:
    if n < 0:
        raise InvalidParameter("factor length must be nonnegative, got %d" % n)


def factor_spans(generator, n: int) -> list[tuple[str, int]]:
    """Spans (text, starts) whose blocks text[i:i+n], i < starts, are
    exactly the length-n factors of the word.

    When every letter of the word grows, the blocks of sigma^m(ab) that
    start inside sigma^m(a), over the 2-factors ab, where m is the least
    power with |sigma^m(c)| >= n-1 for every letter c of the word: the word
    is sigma^m of itself, so a factor starts inside the image of some
    letter a and ends inside the image of the letter b after it (Pansiot
    1984); see `_exact_spans`.  Otherwise each member of the n-prefix
    closure (`_MorphicWord.closure`) is a span of one block.  The coding,
    if any, is applied to the blocks; n = 0 gives one empty span.

    Raises WindowExceeded when the images or the closure would pass
    LETTER_BUDGET letters.
    """
    _check_length(n)
    word = generator._morphic_word()
    if n == 0:
        return [("", 1)]
    if word.growing:
        return _exact_spans(word, n)
    members = word.closure(n)
    if word.table is not None:
        members = {v.translate(word.table) for v in members}
    return [(v, 1) for v in members]


def _check_block_budget(spans: list[tuple[str, int]], n: int) -> None:
    """Raises WindowExceeded when the length-n blocks of the spans could
    hold more than LETTER_BUDGET letters; called before any is sliced."""
    blocks = sum(starts for _, starts in spans)
    if n * blocks > LETTER_BUDGET:
        raise WindowExceeded(
            "exact factor set of length %d reads %d blocks, past the letter "
            "budget of %d letters" % (n, blocks, LETTER_BUDGET)
        )


def exact_factors(generator, n: int) -> frozenset[str]:
    """Length-n factors of the word, computed exactly: the blocks of
    `factor_spans`, within `_check_block_budget`."""
    spans = factor_spans(generator, n)
    _check_block_budget(spans, n)
    return _span_blocks(spans, n)


def saturation_window(generator, n: int) -> tuple[int, bool]:
    """The least power of two w >= max(n, 1) whose prefix has exactly
    `exact_factors(generator, n)` as its length-n blocks, plus the
    certification flag.  Sizes a prefix for brute-force checks; no route
    reads it.  The blocks are not held to `exact_factors`' budget: the
    brute-force checks go past it (thue-morse at n = 4,096).

    Raises WindowExceeded when w would pass LETTER_BUDGET letters.
    """
    members = _span_blocks(factor_spans(generator, n), n)
    w = 1
    while w < n:
        w *= 2
    while True:
        if w > LETTER_BUDGET:
            raise WindowExceeded(
                "no prefix within the letter budget of %d letters holds every "
                "factor of length %d" % (LETTER_BUDGET, n)
            )
        s = generator.prefix(w)
        # the blocks of a prefix are factors, so equal counts mean equal sets
        if len({s[i : i + n] for i in range(w - n + 1)}) == len(members):
            return w, generator.certifiable
        w *= 2


# ---------------------------------------------------------------------------
# text formats


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """Nonblank stripped lines with their 1-based line numbers."""
    return [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError("expected an integer, got %r" % text.strip(), line) from None


def _base_header(lines: list[tuple[int, str]]) -> tuple[int, int]:
    """Line number and value of the leading 'base: k' line, k >= 2."""
    if not lines or not lines[0][1].startswith("base:"):
        raise FormatError("first line must declare 'base: k'", lines[0][0] if lines else None)
    header, first = lines[0]
    base = _parse_int(first[len("base:") :], header)
    if base < 2:
        raise FormatError("base must be at least 2", header)
    return header, base


def _read_states(lines, header, tail_ok, symbol, n_symbols, need):
    """State blocks of a table file: a line 'state q <tail>' followed by
    lines '<lhs> -> <target>'.

    `tail_ok(words)` accepts a state line's tail and `symbol(lhs, line)`
    reads a transition's symbol.  Returns the tails and the rows of
    targets, after checking that the states are 0..n-1, that each has one
    transition per symbol below n_symbols (else "state q needs <need>")
    and that every target is a state."""
    tails: dict[int, list[str]] = {}
    trans: dict[int, dict[int, tuple[int, int]]] = {}
    declared: dict[int, int] = {}
    state = None
    for no, ln in lines:
        if ln.startswith("state "):
            parts = ln.split()
            if not tail_ok(parts[2:]):
                raise FormatError("bad state line %r" % ln, no)
            state = _parse_int(parts[1], no)
            if state in trans:
                raise FormatError("state %d declared twice" % state, no)
            tails[state], trans[state], declared[state] = parts[2:], {}, no
        else:
            if "->" not in ln:
                raise FormatError("bad transition line %r" % ln, no)
            if state is None:
                raise FormatError("transition before any state: %r" % ln, no)
            lhs, rhs = (part.strip() for part in ln.split("->", 1))
            sym = symbol(lhs, no)
            if sym in trans[state]:
                raise FormatError("second transition for %s" % lhs, no)
            trans[state][sym] = (_parse_int(rhs, no), no)
    n = len(trans)
    if not n:
        raise FormatError("no states declared", header)
    if sorted(trans) != list(range(n)):
        raise FormatError("states must be numbered 0..%d" % (n - 1))
    rows = []
    for q in range(n):
        row = trans[q]
        if len(row) != n_symbols or sorted(row) != list(range(n_symbols)):
            raise FormatError("state %d needs %s" % (q, need), declared[q])
        for target, no in row.values():
            if not 0 <= target < n:
                raise FormatError("transition to undeclared state %d" % target, no)
        rows.append(tuple(row[s][0] for s in range(n_symbols)))
    return tails, rows


def parse_morphism(text: str) -> Morphism:
    """Read the rule file format::

        alphabet: 0 1
        0 -> 01
        1 -> 10

    Malformed input raises FormatError with the 1-based line number.
    """
    lines = _numbered_lines(text)
    if not lines or not lines[0][1].startswith("alphabet:"):
        raise FormatError(
            "first line must declare 'alphabet: ...'", lines[0][0] if lines else None
        )
    header, first = lines[0]
    alphabet = tuple(first[len("alphabet:") :].split())
    rules = {}
    for no, ln in lines[1:]:
        if "->" not in ln:
            raise FormatError("bad rule line %r" % ln, no)
        src, image = (part.strip() for part in ln.split("->", 1))
        if src not in alphabet:
            raise FormatError("rule for undeclared letter %r" % src, no)
        if src in rules:
            raise FormatError("second rule for letter %r" % src, no)
        rules[src] = image
    for a in alphabet:
        if a not in rules:
            raise FormatError("no rule for letter %r" % a, header)
    return morphism(alphabet, rules)


def morphism_to_text(m: Morphism) -> str:
    out = ["alphabet: " + " ".join(m.alphabet)]
    out.extend("%s -> %s" % (a, image) for a, image in m.rules)
    return "\n".join(out) + "\n"


def parse_dfao(text: str) -> Dfao:
    """Read the automaton file format::

        base: 2
        state 0 output 0
        0 -> 0
        1 -> 1
        state 1 output 1
        0 -> 1
        1 -> 0

    State 0 is initial.  Malformed input raises FormatError with the
    1-based line number.
    """
    lines = _numbered_lines(text)
    header, base = _base_header(lines)
    tails, rows = _read_states(
        lines[1:],
        header,
        lambda tail: len(tail) == 2 and tail[0] == "output",
        _parse_int,
        base,
        "one transition per digit",
    )
    outputs = tuple(tails[q][1] for q in range(len(rows)))
    return Dfao(base, tuple(rows), outputs, tuple(sorted(set(outputs))))


def dfao_to_text(d: Dfao) -> str:
    out = ["base: %d" % d.base]
    for q in range(d.n_states):
        out.append("state %d output %s" % (q, d.outputs[q]))
        out.extend("%d -> %d" % (digit, d.transitions[q][digit]) for digit in range(d.base))
    return "\n".join(out) + "\n"

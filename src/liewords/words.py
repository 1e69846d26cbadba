"""Infinite word engine.

Words come from two interchangeable sources: fixed points of prolongable
morphisms (optionally followed by a letter-to-letter coding) and DFAOs
reading the base-k digits of the position, most significant digit first.
A DFAO word is also the coded fixed point of a k-uniform morphism on its
states (Cobham), so every word here is morphic.

Factor sets are exact when every letter of the word grows under its
morphism (Pansiot 1984): the length-n factors are the blocks of
sigma^m(ab) that start inside sigma^m(a), over the 2-factors ab, which
are themselves computed as a closure.  All bundled words and every DFAO
word qualify.  A word with a non-growing letter falls back to a doubling
window: once the factor set of a prefix stops changing when the window
doubles, it is taken as the factor set of the infinite word, which is
a heuristic.

The `certified` label is separate: it is set only when the generator is
the fixed point of a primitive morphism (or a coding of one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import (
    FormatError,
    NotProlongable,
    ToolError,
    UnknownLetter,
    WindowExceeded,
    WindowTooSmall,
)

DEFAULT_WINDOW_START = 1 << 10
DEFAULT_WINDOW_CAP = 1 << 24
# letters the exact path may hold in images, as many as the largest prefix
# (twice the window cap) the fallback reads
IMAGE_LETTER_BUDGET = 2 * DEFAULT_WINDOW_CAP


@dataclass(frozen=True)
class Morphism:
    """Letter substitution over single-character letters.

    `alphabet` fixes the declared letter order, used wherever a
    lexicographic comparison is needed.
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


def dfao_prefix(d: Dfao, length: int) -> "Prefix":
    return Prefix("".join(dfao_eval(d, n) for n in range(length)), "dfao")


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


@dataclass(frozen=True)
class Prefix:
    """A certified chunk of an infinite word, with its provenance tag."""

    letters: str
    source: str

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, item):
        return self.letters[item]


def fixed_point_prefix(m: Morphism, seed: str, length: int) -> Prefix:
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
    return Prefix(s[:length], "morphism")


def _require_prolongable(m: Morphism, seed: str) -> None:
    if seed not in m.rule_map:
        raise UnknownLetter("seed %r not in alphabet" % seed)
    if not m.is_prolongable_on(seed):
        raise NotProlongable(
            "image of %r is %r; need it to start with %r and have length >= 2"
            % (seed, m.rule_map[seed], seed)
        )


def is_primitive_morphism(m: Morphism) -> bool:
    """True when some power of the incidence matrix is everywhere positive."""
    letters = m.alphabet
    idx = {a: i for i, a in enumerate(letters)}
    d = len(letters)
    reach = [[False] * d for _ in range(d)]
    for a, image in m.rules:
        for c in image:
            reach[idx[a]][idx[c]] = True
    cur = [row[:] for row in reach]
    for _ in range(d * d + 1):
        if all(all(row) for row in cur):
            return True
        nxt = [[False] * d for _ in range(d)]
        for i in range(d):
            row = cur[i]
            out = nxt[i]
            for j in range(d):
                if row[j]:
                    rj = reach[j]
                    for t in range(d):
                        if rj[t]:
                            out[t] = True
        cur = nxt
    return False


def two_factor_closure(m: Morphism, seed: str) -> frozenset[str]:
    """The 2-factors of the fixed point of m from seed, computed exactly.

    Starts from sigma(seed)[:2] and adds every 2-block of sigma(a)sigma(b)
    for each pair ab already found, until nothing new appears.  Each
    2-factor of the fixed point x = sigma(x) lies in the image of an
    earlier one, so nothing is missed, and images of factors are factors.
    """
    _require_prolongable(m, seed)
    rules = m.rule_map
    first = rules[seed][:2]
    found = {first}
    todo = [first]
    while todo:
        ab = todo.pop()
        s = rules[ab[0]] + rules[ab[1]]
        for i in range(len(s) - 1):
            block = s[i : i + 2]
            if block not in found:
                found.add(block)
                todo.append(block)
    return frozenset(found)


def growing_letters(m: Morphism) -> frozenset[str]:
    """Letters c whose images sigma^k(c) grow without bound.

    That holds exactly when c reaches, in the letter graph (c itself
    included), a letter that lies on a cycle and has an image of length
    >= 2: each turn of that cycle adds a letter.  Without one, every long
    path ends on a cycle of one-letter images, which adds none.
    """
    rules = m.rule_map
    succ = {a: set(rules[a]) for a in m.alphabet}
    pred: dict[str, set[str]] = {a: set() for a in m.alphabet}
    for a, out in succ.items():
        for b in out:
            pred[b].add(a)
    found = {a for a in _cyclic_letters(succ, pred) if len(rules[a]) >= 2}
    todo = list(found)
    while todo:
        for a in pred[todo.pop()]:
            if a not in found:
                found.add(a)
                todo.append(a)
    return frozenset(found)


def _cyclic_letters(succ: dict[str, set[str]], pred: dict[str, set[str]]) -> set[str]:
    """Letters on a cycle: the strongly connected components with more than
    one letter or with a loop (Kosaraju's two passes)."""
    order: list[str] = []
    seen: set[str] = set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, nexts = stack[-1]
            for b in nexts:
                if b not in seen:
                    seen.add(b)
                    stack.append((b, iter(succ[b])))
                    break
            else:
                stack.pop()
                order.append(node)
    cyclic: set[str] = set()
    done: set[str] = set()
    for root in reversed(order):
        if root in done:
            continue
        done.add(root)
        comp = [root]
        for a in comp:
            for p in pred[a]:
                if p not in done:
                    done.add(p)
                    comp.append(p)
        if len(comp) > 1 or root in succ[root]:
            cyclic.update(comp)
    return cyclic


class _MorphicWord:
    """A word as the coded fixed point of a morphism, with what exact factor
    sets need: the 2-factors, their letters (the 1-factors), whether those
    all grow, and the images sigma^k(c) built so far, by k."""

    def __init__(self, m: Morphism, seed: str, coding: Optional[Mapping[str, str]]):
        self.rules = m.rule_map
        self.pairs = sorted(two_factor_closure(m, seed))
        self.letters = sorted({c for ab in self.pairs for c in ab})
        self.growing = set(self.letters) <= growing_letters(m)
        self.table = str.maketrans(dict(coding)) if coding else None
        self.images: list[dict[str, str]] = [{c: c for c in self.letters}]

    def images_for(self, n: int) -> dict[str, str]:
        """sigma^m(c) for each letter, with m the least power that makes
        every image at least n-1 letters long.  Sizes are worked out before
        any image is built; raises WindowExceeded when the images held
        would pass IMAGE_LETTER_BUDGET letters."""
        rules, images = self.rules, self.images
        held = sum(len(s) for level in images for s in level.values())
        size = dict.fromkeys(self.letters, 1)
        m = 0
        while min(size.values()) < n - 1:
            m += 1
            size = {c: sum(size[d] for d in rules[c]) for c in self.letters}
            if m >= len(images):
                held += sum(size.values())
                if held > IMAGE_LETTER_BUDGET:
                    raise WindowExceeded(
                        "exact factor set of length %d needs images of more than "
                        "the letter budget of %d letters" % (n, IMAGE_LETTER_BUDGET)
                    )
        while len(images) <= m:
            last = images[-1]
            images.append({c: "".join([last[d] for d in rules[c]]) for c in self.letters})
        return images[m]


class WordGenerator:
    """A named source of prefixes, with an in-memory cache of the longest
    prefix built so far.  It also keeps, built on first use, the 2-factors
    and letter images that `exact_factors` reads.

    Exactly one of `morphism`/`dfao` drives generation when both are given
    the morphism wins (it is cheaper); tests assert the two agree for the
    bundled words.  `coding` is an optional letter-to-letter map applied to
    the fixed point.
    """

    def __init__(
        self,
        name: str,
        *,
        morphism: Optional[Morphism] = None,
        seed: Optional[str] = None,
        coding: Optional[Mapping[str, str]] = None,
        dfao: Optional[Dfao] = None,
        letters: Optional[tuple[str, ...]] = None,
    ):
        if morphism is None and dfao is None:
            raise ValueError("need a morphism or a dfao")
        if morphism is not None and seed is None:
            seed = morphism.alphabet[0]
        self.name = name
        self.morphism = morphism
        self.seed = seed
        self.coding = dict(coding) if coding else None
        self.dfao = dfao
        if letters is not None:
            self.letters = tuple(letters)
        elif dfao is not None:
            self.letters = dfao.letters
        elif coding:
            self.letters = tuple(sorted(set(coding.values())))
        else:
            self.letters = morphism.alphabet
        self.certifiable = morphism is not None and is_primitive_morphism(morphism)
        self._cached = ""
        self._morphic: Optional[_MorphicWord] = None

    def __repr__(self):
        return "WordGenerator(%r)" % self.name

    def _morphic_word(self) -> _MorphicWord:
        """The word as a coded morphic fixed point, with its 2-factors and
        the images cached for exact factor sets; built on first use."""
        if self._morphic is None:
            if self.morphism is not None:
                self._morphic = _MorphicWord(self.morphism, self.seed, self.coding)
            else:
                self._morphic = _MorphicWord(*dfao_morphism(self.dfao))
        return self._morphic

    def _generate(self, length: int) -> str:
        if self.morphism is not None:
            s = fixed_point_prefix(self.morphism, self.seed, length).letters
            if self.coding:
                s = s.translate(str.maketrans(self.coding))
            return s
        return dfao_prefix(self.dfao, length).letters

    def prefix(self, length: int) -> Prefix:
        """The first `length` letters, memoized in memory."""
        if length > len(self._cached):
            self._cached = self._generate(length)
        return Prefix(self._cached[:length], self.name)


def _exact_spans(word: _MorphicWord, n: int) -> list[tuple[str, int]]:
    """The spans (sigma^m(a) + sigma^m(b)[:n-1], |sigma^m(a)|) over the
    2-factors ab, coded (see exact_factors); one empty span for n = 0."""
    if n == 0:
        return [("", 1)]
    images = word.images_for(n)
    table = word.table
    spans = []
    for a, b in word.pairs:
        s = images[a] + images[b][: n - 1]
        spans.append((s if table is None else s.translate(table), len(images[a])))
    return spans


def _span_blocks(spans: list[tuple[str, int]], n: int) -> frozenset[str]:
    # one frozenset straight from the blocks: filling a set and copying it
    # raised the peak memory of a table
    return frozenset(s[i : i + n] for s, starts in spans for i in range(starts))


def exact_factors(generator, n: int) -> frozenset[str]:
    """Length-n factors of a word whose letters all grow, computed exactly.

    For n >= 1 they are the blocks (sigma^m(a) + sigma^m(b)[:n-1])[i:i+n]
    with i < |sigma^m(a)|, over the 2-factors ab, where m is the least power
    with |sigma^m(c)| >= n-1 for every letter c of the word: the word is
    sigma^m of itself, so a factor starts inside the image of some letter
    a and ends inside the image of the letter b after it (Pansiot 1984).
    The coding, if any, is applied to the blocks.

    Raises ToolError when a letter of the word does not grow, and
    WindowExceeded when the images would pass IMAGE_LETTER_BUDGET letters.
    """
    if n < 0:
        raise ValueError("factor length must be nonnegative")
    word = generator._morphic_word()
    if not word.growing:
        raise ToolError(
            "%s has a letter that does not grow; its factor sets are not exact"
            % generator.name
        )
    return _span_blocks(_exact_spans(word, n), n)


def factor_spans(
    generator,
    n: int,
    *,
    start: int = DEFAULT_WINDOW_START,
    cap: int = DEFAULT_WINDOW_CAP,
) -> tuple[list[tuple[str, int]], int]:
    """Spans (text, starts) whose blocks text[i:i+n], i < starts, are the
    length-n factors of the word, and the window they were read from.

    Exact (the spans of `exact_factors`, window 0) when every letter of the
    word grows.  Otherwise the blocks of the smallest window w of the
    doubling schedule from `start` that `saturation_window` accepts, each
    a span of one block: the stability check has already collected them,
    and a window holds far more blocks than distinct ones.  Raises
    WindowExceeded past `cap`.  The schedule is checked first, for every
    word (see `_check_schedule`).
    """
    if n < 0:
        raise ValueError("factor length must be nonnegative")
    _check_schedule(start, cap)
    word = generator._morphic_word()
    if word.growing:
        return _exact_spans(word, n), 0
    w, blocks = _stable_window(generator, n, start, cap)
    return [(v, 1) for v in blocks], w


def factor_blocks(
    generator,
    n: int,
    *,
    start: int = DEFAULT_WINDOW_START,
    cap: int = DEFAULT_WINDOW_CAP,
) -> tuple[frozenset[str], int]:
    """Length-n factors of the word and the window they were read from:
    the blocks of `factor_spans`."""
    spans, window = factor_spans(generator, n, start=start, cap=cap)
    return _span_blocks(spans, n), window


def saturation_window(
    generator,
    n: int,
    *,
    start: int = DEFAULT_WINDOW_START,
    cap: int = DEFAULT_WINDOW_CAP,
) -> tuple[int, bool]:
    """Smallest window (from a doubling schedule) whose length-n factor set
    agrees with the doubled window, plus the certification flag.

    The doubled prefix extends the window, so its blocks are those of the
    window plus the blocks that start at or after w-n+1; the two sets agree
    exactly when each of those tail blocks is already a block of the window.

    Returns (window, certified).  Raises WindowExceeded past the cap.
    """
    if n < 0:
        raise ValueError("factor length must be nonnegative")
    _check_schedule(start, cap)
    w, _ = _stable_window(generator, n, start, cap)
    return w, bool(getattr(generator, "certifiable", False))


def _check_schedule(start: int, cap: int) -> None:
    """Refuse a window schedule that can read no window: a start below 1,
    which doubling never lifts, or a cap below the start."""
    if start < 1:
        raise WindowTooSmall("the window schedule must start at 1 or more, got %d" % start)
    if cap < start:
        raise WindowExceeded("window cap %d is below the window start %d" % (cap, start))


def _stable_window(generator, n: int, start: int, cap: int) -> tuple[int, set[str]]:
    """The window `saturation_window` returns, with its length-n blocks,
    for a checked schedule."""
    w = start
    while w < n:
        w *= 2
    if w > cap:
        raise WindowExceeded(
            "factor length %d needs a window of %d, past the window cap %d" % (n, w, cap)
        )
    while w <= cap:
        blocks = _block_set(generator.prefix(w).letters, n)
        big = generator.prefix(2 * w).letters
        if _block_set(big[w - n + 1 :], n) <= blocks:
            return w, blocks
        w *= 2
    raise WindowExceeded(
        "factor set of length %d still growing at window cap %d" % (n, cap)
    )


def _block_set(s: str, n: int) -> set[str]:
    return {s[i : i + n] for i in range(len(s) - n + 1)}


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

"""Infinite word engine.

Words come from two interchangeable sources: fixed points of prolongable
morphisms (optionally followed by a letter-to-letter coding) and DFAOs
reading the base-k digits of the position, most significant digit first.
Prefixes are certified by a doubling window check: once the factor set of
a prefix stops changing when the window doubles, it is taken as the factor
set of the infinite word.  That certificate is only sound for uniformly
recurrent words, so it is labeled `certified` only when the generator is
the fixed point of a primitive morphism (or a coding of one).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import (
    FormatError,
    NotProlongable,
    UnknownLetter,
    WindowExceeded,
)

DEFAULT_WINDOW_START = 1 << 10
DEFAULT_WINDOW_CAP = 1 << 24


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
    if seed not in m.rule_map:
        raise UnknownLetter("seed %r not in alphabet" % seed)
    if not m.is_prolongable_on(seed):
        raise NotProlongable(
            "image of %r is %r; need it to start with %r and have length >= 2"
            % (seed, m.rule_map[seed], seed)
        )
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


class WordGenerator:
    """A named source of prefixes, with an in-memory (and optional on-disk,
    content-keyed) cache.

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

    def __repr__(self):
        return "WordGenerator(%r)" % self.name

    def _generate(self, length: int) -> str:
        if self.morphism is not None:
            s = fixed_point_prefix(self.morphism, self.seed, length).letters
            if self.coding:
                s = s.translate(str.maketrans(self.coding))
            return s
        return dfao_prefix(self.dfao, length).letters

    def definition(self) -> str:
        """Text that fixes the word: rules, seed and coding, or the DFAO."""
        if self.morphism is not None:
            coding = " ".join("%s=%s" % kv for kv in sorted((self.coding or {}).items()))
            return "morphism\n%sseed: %s\ncoding: %s\n" % (
                morphism_to_text(self.morphism),
                self.seed,
                coding,
            )
        return "dfao\n" + dfao_to_text(self.dfao)

    def prefix(self, length: int) -> Prefix:
        """The first `length` letters.  With LIEWORDS_CACHE_DIR set, prefixes
        are also kept on disk, in files named by the sha256 of `definition()`
        and the length."""
        if length > len(self._cached):
            cache_dir = os.environ.get("LIEWORDS_CACHE_DIR")
            path = None
            if cache_dir:
                # imported here so that the command line starts without it
                import hashlib

                digest = hashlib.sha256(self.definition().encode()).hexdigest()
                path = os.path.join(cache_dir, "%s-%d.txt" % (digest, length))
                if os.path.exists(path):
                    with open(path) as fh:
                        self._cached = fh.read().strip()
            if length > len(self._cached):
                self._cached = self._generate(length)
                if path is not None:
                    os.makedirs(cache_dir, exist_ok=True)
                    with open(path, "w") as fh:
                        fh.write(self._cached)
        return Prefix(self._cached[:length], self.name)


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
    w = start
    while w < n:
        w *= 2
    while w <= cap:
        small = generator.prefix(w).letters
        big = generator.prefix(2 * w).letters
        if _block_set(big[w - n + 1 :], n) <= _block_set(small, n):
            return w, bool(getattr(generator, "certifiable", False))
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
    if not lines or not lines[0][1].startswith("base:"):
        raise FormatError("first line must declare 'base: k'", lines[0][0] if lines else None)
    header, first = lines[0]
    base = _parse_int(first[len("base:") :], header)
    if base < 2:
        raise FormatError("base must be at least 2", header)
    outputs: dict[int, str] = {}
    trans: dict[int, dict[int, tuple[int, int]]] = {}
    declared: dict[int, int] = {}
    state = None
    for no, ln in lines[1:]:
        if ln.startswith("state "):
            parts = ln.split()
            if len(parts) != 4 or parts[2] != "output":
                raise FormatError("bad state line %r" % ln, no)
            state = _parse_int(parts[1], no)
            outputs[state] = parts[3]
            trans[state] = {}
            declared[state] = no
        else:
            if "->" not in ln:
                raise FormatError("bad transition line %r" % ln, no)
            if state is None:
                raise FormatError("transition before any state: %r" % ln, no)
            digit, target = (part.strip() for part in ln.split("->", 1))
            trans[state][_parse_int(digit, no)] = (_parse_int(target, no), no)
    n = len(outputs)
    if not n:
        raise FormatError("no states declared", header)
    if sorted(outputs) != list(range(n)):
        raise FormatError("states must be numbered 0..%d" % (n - 1))
    rows = []
    for q in range(n):
        row = trans[q]
        if sorted(row) != list(range(base)):
            raise FormatError("state %d needs one transition per digit" % q, declared[q])
        for target, no in row.values():
            if not 0 <= target < n:
                raise FormatError("transition to undeclared state %d" % target, no)
        rows.append(tuple(row[d][0] for d in range(base)))
    letters = tuple(sorted(set(outputs.values())))
    return Dfao(base, tuple(rows), tuple(outputs[q] for q in range(n)), letters)


def dfao_to_text(d: Dfao) -> str:
    out = ["base: %d" % d.base]
    for q in range(d.n_states):
        out.append("state %d output %s" % (q, d.outputs[q]))
        out.extend("%d -> %d" % (digit, d.transitions[q][digit]) for digit in range(d.base))
    return "\n".join(out) + "\n"

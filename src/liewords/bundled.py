"""Bundled word generators.

Six classical words ship with the package.  Each has a morphism
description; the 2-automatic ones (and the base-3/base-4 ones) also carry
a DFAO so the logic pipeline can run on them.  The twelve-letter word uses
letters a..f for the first block and g..l for the second, in that declared
order.
"""

from __future__ import annotations

from .words import Dfao, Morphism, WordGenerator, morphism

# Thue-Morse: parity of the binary digit sum.
thue_morse_morphism = morphism("01", {"0": "01", "1": "10"})
thue_morse_dfao = Dfao(
    base=2,
    transitions=((0, 1), (1, 0)),
    outputs=("0", "1"),
    letters=("0", "1"),
)

# Ternary squarefree word, fixed point of 2 -> 210, 1 -> 20, 0 -> 1.
# Its letters can be read off a sliding pair of Thue-Morse values
# (value at n and at n+1), which gives the 4-state base-2 automaton below:
# state (p, t) tracks the digit-sum parity p and the parity t of the
# current run of trailing ones.
vtm_morphism = morphism("012", {"2": "210", "1": "20", "0": "1"})


def _vtm_dfao() -> Dfao:
    states = [(0, 0), (1, 1), (1, 0), (0, 1)]
    index = {s: i for i, s in enumerate(states)}
    trans = []
    outs = []
    for p, t in states:
        trans.append((index[(p, 0)], index[(1 - p, 1 - t)]))
        nxt = (p + t + 1) % 2
        outs.append(str(1 - p + nxt))
    return Dfao(2, tuple(trans), tuple(outs), ("0", "1", "2"))


vtm_dfao = _vtm_dfao()

# Cantor-like word, fixed point of 1 -> 101, 0 -> 000: position n holds 1
# exactly when the ternary digits of n avoid the digit 1.
cantor_morphism = morphism("01", {"1": "101", "0": "000"})
cantor_dfao = Dfao(
    base=3,
    transitions=((0, 1, 0), (1, 1, 1)),
    outputs=("1", "0"),
    letters=("0", "1"),
)

fibonacci_morphism = morphism("01", {"0": "01", "1": "0"})

tribonacci_morphism = morphism("012", {"0": "01", "1": "02", "2": "0"})

# Twelve-letter 4-uniform substitution; x1..x6 -> a..f, y1..y6 -> g..l.
_TWELVE_RULES = {
    "a": "abgh",
    "b": "acgi",
    "c": "adgj",
    "d": "aegk",
    "e": "afgl",
    "f": "bchi",
    "g": "bdhk",
    "h": "beij",
    "i": "bfhl",
    "j": "cdik",
    "k": "ceil",
    "l": "cfjk",
}
twelve_morphism = morphism("abcdefghijkl", _TWELVE_RULES)


def _twelve_dfao() -> Dfao:
    letters = twelve_morphism.alphabet
    index = {c: i for i, c in enumerate(letters)}
    trans = tuple(
        tuple(index[_TWELVE_RULES[c][d]] for d in range(4)) for c in letters
    )
    return Dfao(4, trans, letters, letters)


twelve_dfao = _twelve_dfao()


def _build_registry() -> dict[str, WordGenerator]:
    gens = [
        WordGenerator(
            "thue-morse", morphism=thue_morse_morphism, seed="0", dfao=thue_morse_dfao
        ),
        WordGenerator("vtm", morphism=vtm_morphism, seed="2", dfao=vtm_dfao),
        WordGenerator("cantor", morphism=cantor_morphism, seed="1", dfao=cantor_dfao),
        WordGenerator("fibonacci", morphism=fibonacci_morphism, seed="0"),
        WordGenerator("tribonacci", morphism=tribonacci_morphism, seed="0"),
        WordGenerator("twelve", morphism=twelve_morphism, seed="a", dfao=twelve_dfao),
    ]
    return {g.name: g for g in gens}


WORDS = _build_registry()

PIPELINE_WORDS = ("thue-morse", "vtm", "cantor", "twelve")


def get_word(name: str) -> WordGenerator:
    try:
        return WORDS[name]
    except KeyError:
        raise KeyError(
            "unknown word %r; bundled: %s" % (name, ", ".join(sorted(WORDS)))
        ) from None

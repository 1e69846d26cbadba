"""Reference tables for the bundled words and the report checking them.

Each closed form is an explicit membership test (powers, shifted
Fibonacci and Tribonacci numbers, and the listed sporadic values), so a
reader can audit it against the table it transcribes.  The report
recomputes every value by brute force on the words' factor sets and, for
the automatic words, through the logic pipeline as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from .bundled import get_word
from .complexity import lie_complexity, saturated_factor_set
from .counting import counting_representation, minimize_representation, to_dfao
from .logic import build_predicate_library
from .words import Dfao, dfao_eval


def _power_of(n: int, b: int) -> Optional[int]:
    """Exponent k with n = b^k, else None."""
    if n < 1:
        return None
    k = 0
    while n % b == 0:
        n //= b
        k += 1
    return k if n == 1 else None


def _is_power(n: int, b: int, min_exp: int = 0) -> bool:
    k = _power_of(n, b)
    return k is not None and k >= min_exp


def _is_times_power(n: int, c: int, b: int, min_exp: int = 0) -> bool:
    return n % c == 0 and _is_power(n // c, b, min_exp)


def _fibonaccis(limit: int) -> list[int]:
    seq = [0, 1]
    while seq[-1] <= limit:
        seq.append(seq[-1] + seq[-2])
    return seq


def _tribonaccis(limit: int) -> list[int]:
    seq = [0, 1, 1]
    while seq[-1] <= limit:
        seq.append(seq[-1] + seq[-2] + seq[-3])
    return seq


def closed_form(name: str, n: int) -> int:
    """Published value of the rotation-class count at length n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    if name == "thue-morse":
        if n == 0 or _is_power(n, 2, 3):
            return 1
        if n in (1, 4) or _is_times_power(n, 3, 2):
            return 2
        if n == 2:
            return 3
        return 0
    if name == "vtm":
        if n == 0 or _is_power(n, 2, 2):
            return 1
        if _is_times_power(n, 3, 2):
            return 2
        if n in (1, 2):
            return 3
        return 0
    if name == "cantor":
        if n == 4:
            return 3
        if n in (0, 1, 3) or _is_times_power(n, 2, 3):
            return 2
        return 1
    if name == "fibonacci":
        fib = _fibonaccis(n)
        hits = {fib[k] for k in range(4, len(fib))}
        hits |= {fib[k] + fib[k - 3] for k in range(4, len(fib))}
        if n == 0 or n in hits:
            return 1
        if n in (1, 2):
            return 2
        return 0
    if name == "tribonacci":
        tri = _tribonaccis(n)
        hits = {tri[k] for k in range(5, len(tri))}
        hits |= {tri[k] + tri[k - 1] for k in range(3, len(tri))}
        hits |= {tri[k] + tri[k - 4] for k in range(5, len(tri))}
        if n == 0 or n in hits:
            return 1
        if n == 4:
            return 2
        if n in (1, 2):
            return 3
        return 0
    if name == "twelve":
        # n >= 2 is the published claim; the two small values are what
        # this package computes and cross-checks itself
        if n == 0:
            return 1
        if n == 1:
            return 12
        return 0
    raise KeyError("no closed form for %r" % name)


@dataclass(frozen=True)
class GoldenRow:
    word: str
    n: int
    expected: int
    computed: int
    method: Literal["brute", "pipeline"]
    certified: bool

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


# word, method, lengths; the Cantor table starts at 1 because the
# published n = 0 entry disagrees with the one-class convention for the
# empty word used throughout this package
GOLDEN_PLAN: tuple[tuple[str, str, tuple[int, int]], ...] = (
    ("thue-morse", "pipeline", (0, 256)),
    ("thue-morse", "brute", (0, 64)),
    ("vtm", "brute", (0, 50)),
    ("cantor", "pipeline", (1, 50)),
    ("cantor", "brute", (1, 50)),
    ("fibonacci", "brute", (0, 50)),
    ("tribonacci", "brute", (0, 50)),
    ("twelve", "brute", (2, 40)),
)


def pipeline_dfao(name: str) -> Dfao:
    """End-to-end logic pipeline: predicates, counting, then a DFAO."""
    seq = get_word(name).dfao
    if seq is None:
        raise KeyError("%r has no digit automaton" % name)
    lib = build_predicate_library(seq)
    rep = minimize_representation(counting_representation(lib["lie"]))
    return to_dfao(rep)


def golden_rows(
    word: str, method: str, ns: Iterable[int]
) -> list[GoldenRow]:
    ns = sorted(set(ns))
    rows = []
    if method == "pipeline":
        d = pipeline_dfao(word)
        for n in ns:
            rows.append(
                GoldenRow(word, n, closed_form(word, n), int(dfao_eval(d, n)), "pipeline", True)
            )
    elif method == "brute":
        gen = get_word(word)
        for n in ns:
            fs = saturated_factor_set(gen, n)
            rows.append(
                GoldenRow(word, n, closed_form(word, n), lie_complexity(fs), "brute", fs.certified)
            )
    else:
        raise ValueError("method must be 'brute' or 'pipeline'")
    return rows


def golden_report(plan=GOLDEN_PLAN) -> list[GoldenRow]:
    rows: list[GoldenRow] = []
    for word, method, (lo, hi) in plan:
        rows.extend(golden_rows(word, method, range(lo, hi + 1)))
    return rows

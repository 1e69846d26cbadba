"""Recurrent binary word with slow factor growth and unbounded powers.

Stages pick nested Fibonacci-word prefixes u_1, u_2, ... where each u_i
ends with u_{i-1} and is longer than a growth threshold times its
predecessor.  Interleaving high powers of the u_i into separator blocks
v_n and doubling through s_n = s_{n-1} v_n s_{n-1} v_n yields a
recurrent word whose factor complexity stays close to linear while
every u_i appears to arbitrarily large powers.

Honest mode derives the thresholds 2^(m_j), with m_j the largest m
whose f(m) stays under 19 j^2, for f the doubly logarithmic
`double_log_threshold`; for so slowly growing an f those lengths
explode past any memory budget, which is the designed failure mode.
Toy mode swaps the thresholds for small multipliers and keeps every
structural property testable at desk scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .bundled import fibonacci_morphism
from .complexity import factor_set, primitive_root
from .errors import (
    InvalidParameter,
    ParameterOverflow,
    PrefixTooShort,
    SuffixSearchExceeded,
    WindowUnstable,
)
from .words import fixed_point_prefix

# the most letters a stage word or prefix search may take; read at call time
MAX_LETTERS = 1 << 22
CALIBRATION = 19


def double_log_threshold(n: int) -> int:
    """The honest-mode growth function f, about log log n; weakly
    increasing, with f(0) = 1."""
    return max(0, math.ceil(math.log2(math.log2(n + 4))))


@dataclass(frozen=True)
class ConstructionParams:
    depth: int
    mode: str = "toy"
    growth: tuple[int, ...] = ()
    variant: str = "symmetric"

    def __post_init__(self):
        if self.depth < 1:
            raise InvalidParameter("depth must be at least 1")
        if self.mode not in ("toy", "honest"):
            raise InvalidParameter("mode must be 'toy' or 'honest'")
        if self.variant not in ("symmetric", "verbatim"):
            raise InvalidParameter("variant must be 'symmetric' or 'verbatim'")
        if self.mode == "toy":
            if len(self.growth) != self.depth:
                raise InvalidParameter(
                    "toy mode needs one growth multiplier per stage"
                )
            if any(g < 2 for g in self.growth):
                raise InvalidParameter("growth multipliers must be at least 2")


@dataclass(frozen=True)
class ConstructionTrace:
    """Everything the build produced; indices in accessors are 1-based
    to match the stage numbering."""

    params: ConstructionParams
    thresholds: tuple[int, ...]
    u: tuple[str, ...]
    d: tuple[int, ...]
    a: tuple[tuple[int, ...], ...]
    v: tuple[str, ...]
    s: tuple[str, ...]
    prefix: str

    def u_word(self, i: int) -> str:
        return self.u[i - 1]

    def exponent(self, i: int, j: int) -> int:
        return self.a[i - 1][j - 1]

    def v_word(self, n: int) -> str:
        if n < 2:
            raise IndexError("separator blocks start at stage 2")
        return self.v[n - 2]

    def s_word(self, n: int) -> str:
        return self.s[n - 1]

    @property
    def depth(self) -> int:
        return len(self.u)


def _fib_letters(length: int) -> str:
    return fixed_point_prefix(fibonacci_morphism, "0", length)


def _honest_threshold(stage: int, prev_len: int) -> int:
    """2^m for the largest m with f(m) <= 19 * stage^2, f the
    `double_log_threshold`, bailing out as soon as the implied prefix
    length exceeds the letter budget."""
    bound = CALIBRATION * stage * stage
    m = 0
    while double_log_threshold(m + 1) <= bound:
        m += 1
        if (1 << m) * max(prev_len, 1) > MAX_LETTERS:
            raise ParameterOverflow(
                "stage %d needs more than 2^%d letters (budget %d)"
                % (stage, m, MAX_LETTERS)
            )
    return 1 << m


def _find_stage_prefix(prev: str, threshold_len: int) -> str:
    """Shortest Fibonacci prefix longer than threshold_len ending in prev."""
    if threshold_len >= MAX_LETTERS:
        raise ParameterOverflow(
            "stage prefix must exceed %d letters (budget %d)"
            % (threshold_len, MAX_LETTERS)
        )
    size = max(2 * (threshold_len + len(prev)) + 4, 1024)
    while True:
        size = min(size, MAX_LETTERS)
        letters = _fib_letters(size)
        idx = letters.find(prev, max(0, threshold_len + 1 - len(prev)))
        while idx != -1:
            end = idx + len(prev)
            if end > threshold_len:
                return letters[:end]
            idx = letters.find(prev, idx + 1)
        if size >= MAX_LETTERS:
            raise SuffixSearchExceeded(
                "no qualifying prefix within %d letters" % MAX_LETTERS
            )
        size *= 2


def _separator_block(u, a, n: int, variant: str) -> str:
    """v_n: the stage-n prefix wrapped around descending, center, and
    ascending power runs of the earlier prefixes.

    The published display shows exponent a_{2,1} at the descending u_2
    slot where the surrounding pattern suggests a_{n,2}; the verbatim
    variant keeps the display, the symmetric one follows the pattern."""
    parts = [u[n - 1]]
    for k in range(n - 1, 1, -1):
        exp = a[1][0] if (variant == "verbatim" and k == 2) else a[n - 1][k - 1]
        parts.append(u[k - 1] * exp)
    parts.append(u[0] * a[n - 1][0])
    for k in range(2, n):
        parts.append(u[k - 1] * a[n - 1][k - 1])
    parts.append(u[n - 1])
    return "".join(parts)


def build(params: ConstructionParams) -> ConstructionTrace:
    """Run the staged construction and return the full trace."""
    depth = params.depth

    thresholds: list[int] = []
    u: list[str] = []
    d: list[int] = []
    for i in range(1, depth + 1):
        if params.mode == "toy":
            g = params.growth[i - 1]
        else:
            g = _honest_threshold(i, d[-1] if d else 1)
        thresholds.append(g)
        if i == 1:
            if g > MAX_LETTERS:
                raise ParameterOverflow(
                    "first stage needs %d letters (budget %d)" % (g, MAX_LETTERS)
                )
            u.append(_fib_letters(g))
        else:
            u.append(_find_stage_prefix(u[-1], g * d[-1]))
        d.append(len(u[-1]))

    a = tuple(
        tuple(-(-d[i] // d[j]) for j in range(depth)) for i in range(depth)
    )

    v = [
        _separator_block(u, a, n, params.variant) for n in range(2, depth + 1)
    ]

    s: list[str] = [u[0]]
    for n in range(2, depth + 1):
        nxt = s[-1] + v[n - 2] + s[-1] + v[n - 2]
        if len(nxt) > MAX_LETTERS:
            raise ParameterOverflow(
                "stage %d word needs %d letters (budget %d)" % (n, len(nxt), MAX_LETTERS)
            )
        s.append(nxt)

    return ConstructionTrace(
        params=params,
        thresholds=tuple(thresholds),
        u=tuple(u),
        d=tuple(d),
        a=a,
        v=tuple(v),
        s=tuple(s),
        prefix=s[-1],
    )


def verify_powers(trace: ConstructionTrace, i: int, e: int) -> bool:
    """Whether u_i repeated e times occurs in the built prefix."""
    block = trace.u_word(i) * e
    if len(block) > len(trace.prefix):
        raise PrefixTooShort(
            "power needs %d letters, prefix has %d"
            % (len(block), len(trace.prefix))
        )
    return block in trace.prefix


@dataclass(frozen=True)
class BoundRow:
    n: int
    p: int
    bound: int
    ok: bool


def verify_complexity_bound(trace: ConstructionTrace, n_range) -> list[BoundRow]:
    """Per-length comparison of factor counts against n * f(n), f the
    `double_log_threshold`.

    Counts must agree between the built prefix and its first half, the
    finite-stage stand-in for window stability; otherwise the prefix is
    too short to trust and WindowUnstable is raised.
    """
    letters = trace.prefix
    half = letters[: len(letters) // 2]
    rows = []
    for n in sorted(set(n_range)):
        p = len(factor_set(letters, n).members)
        p_half = len(factor_set(half, n).members)
        if p != p_half:
            raise WindowUnstable(
                "factor count at n=%d still grows with the window (%d -> %d)"
                % (n, p_half, p)
            )
        bound = n * double_log_threshold(n)
        rows.append(BoundRow(n=n, p=p, bound=bound, ok=p <= bound))
    return rows


def _factors_occur_twice(small: str, big: str) -> bool:
    """Whether every nonempty factor of `small` occurs at least twice in
    `big`, overlaps allowed.

    Every factor of `small` is a prefix of one of its suffixes, and two
    occurrences of a suffix give two occurrences of each of its prefixes,
    so it is enough to find each suffix twice: two `find` calls per suffix
    instead of per factor."""
    for start in range(len(small)):
        suffix = small[start:]
        first = big.find(suffix)
        if first == -1 or big.find(suffix, first + 1) == -1:
            return False
    return True


def verify_structure(trace: ConstructionTrace) -> list[tuple[str, bool]]:
    """Named structural invariants of a built trace."""
    checks: list[tuple[str, bool]] = []
    u, d, a = trace.u, trace.d, trace.a
    depth = trace.depth
    checks.append(
        ("suffix-chain", all(u[i].endswith(u[i - 1]) for i in range(1, depth)))
    )
    growth_ok = True
    for i in range(1, depth):
        if d[i] <= trace.thresholds[i] * d[i - 1]:
            growth_ok = False
    checks.append(("growth", growth_ok))
    checks.append(("first-stage-length", d[0] == trace.thresholds[0]))
    checks.append(("unit-diagonal", all(a[i][i] == 1 for i in range(depth))))
    checks.append(("seed-stage", trace.s[0] == u[0]))
    checks.append(
        (
            "prefix-chain",
            all(trace.s[i + 1].startswith(trace.s[i]) for i in range(depth - 1)),
        )
    )
    comp_ok = all(
        trace.v_word(n) == _separator_block(u, a, n, trace.params.variant)
        for n in range(2, depth + 1)
    )
    checks.append(("separator-composition", comp_ok))
    recursion_ok = all(
        trace.s[i] == trace.s[i - 1] + trace.v[i - 1] + trace.s[i - 1] + trace.v[i - 1]
        for i in range(1, depth)
    )
    checks.append(("stage-recursion", recursion_ok))
    powers_ok = True
    for n in range(2, depth + 1):
        vn = trace.v_word(n)
        for i in range(1, n):
            if u[i - 1] * a[n - 1][i - 1] not in vn:
                powers_ok = False
    checks.append(("powers-in-separators", powers_ok))
    twice_ok = all(
        _factors_occur_twice(trace.s[i], trace.s[i + 1]) for i in range(depth - 1)
    )
    checks.append(("factors-occur-twice", twice_ok))
    roots_ok = all(len(w) // len(primitive_root(w)) in (1, 2, 3) for w in u)
    checks.append(("root-exponents", roots_ok))
    return checks


def trace_to_json(trace: ConstructionTrace) -> str:
    params = trace.params
    payload = {
        "mode": params.mode,
        "variant": params.variant,
        "depth": trace.depth,
        "thresholds": list(trace.thresholds),
        "u": list(trace.u),
        "d": list(trace.d),
        "a": [list(row) for row in trace.a],
        "v": list(trace.v),
        "v_lengths": [len(x) for x in trace.v],
        "s_lengths": [len(x) for x in trace.s],
        "prefix": trace.prefix,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

"""Output checks that do not trust the code under test.

Each check returns a list of problems; an empty list means the operation
passed.  Three kinds of evidence are used:

* byte-exact sha256 of stdout and of every emitted file, against the
  values recorded in `expected.json`;
* the closed-form tables of `liewords.golden.closed_form` for every `L`
  value the command prints or encodes, with `.dfao` and `.linrep` files
  evaluated here by their own small readers;
* for the compiled factor-equality automaton, acceptance on sampled
  `(i, j, n)` compared with the twelve-letter word built here from its
  morphism.

`cantor` is compared from `n = 1`: its published `n = 0` entry differs
from the one-class convention for the empty word that the package uses.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

MAX_DFAO_N = 256

# 12-letter 4-uniform morphism; its fixed point from `a` is the `twelve` word
TWELVE_RULES = {
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def first_checked_n(word: str) -> int:
    return 1 if word == "cantor" else 0


def _digits(n: int, base: int) -> list[int]:
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return out[::-1]


# ---------------------------------------------------------------------------
# readers for the emitted formats


def dfao_values(text: str, count: int) -> list[int]:
    """Outputs at n = 0..count-1 of a `.dfao` file."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    base = int(lines[0][1])
    out: dict[int, int] = {}
    trans: dict[int, dict[int, int]] = {}
    for parts in lines[1:]:
        if parts[0] == "state":
            q = int(parts[1])
            out[q] = int(parts[3])
            trans[q] = {}
        else:
            trans[q][int(parts[0])] = int(parts[2])
    values = []
    for n in range(count):
        q = 0
        for d in _digits(n, base):
            q = trans[q][d]
        values.append(out[q])
    return values


def linrep_values(text: str, count: int) -> list[Fraction]:
    """v . M(d_1) ... M(d_k) . w at n = 0..count-1 of a `.linrep` file."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    base = int(lines[0].split(":")[1])
    dim = int(lines[1].split(":")[1])
    row = lambda s: [Fraction(x) for x in s.split()]  # noqa: E731
    v = row(lines[2].split(":")[1])
    mats = []
    pos = 3
    for _ in range(base):
        mats.append([row(lines[pos + 1 + r]) for r in range(dim)])
        pos += 1 + dim
    w = row(lines[pos].split(":")[1])
    values = []
    for n in range(count):
        vec = v
        for d in _digits(n, base):
            m = mats[d]
            vec = [sum(vec[p] * m[p][q] for p in range(dim)) for q in range(dim)]
        values.append(sum(a * b for a, b in zip(vec, w)))
    return values


def mtdfa_reader(text: str):
    """(tracks, state count, accepts(assignment)) of a `.mtdfa` file."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    base = int(lines[0].split(":")[1])
    tracks = tuple(lines[1].split(":")[1].split())
    accepting = set()
    trans: dict[int, dict[tuple, int]] = {}
    for ln in lines[2:]:
        if ln.startswith("state"):
            parts = ln.split()
            q = int(parts[1])
            trans[q] = {}
            if parts[-1] == "accepting":
                accepting.add(q)
        else:
            lhs, rhs = ln.split("->")
            trans[q][tuple(int(x) for x in lhs.split(","))] = int(rhs)

    def accepts(values: dict[str, int]) -> bool:
        digits = [_digits(values[t], base) for t in tracks]
        width = max(len(d) for d in digits)
        padded = [[0] * (width - len(d)) + d for d in digits]
        q = 0
        for col in zip(*padded):
            q = trans[q][col]
        return q in accepting

    return tracks, len(trans), accepts


def twelve_prefix(length: int) -> str:
    s = "a"
    while len(s) < length:
        s = "".join(TWELVE_RULES[c] for c in s)
    return s[:length]


# ---------------------------------------------------------------------------
# per-kind semantic checks


def _table(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("header %r" % (lines[:1],))
    return [ln.split("\t") for ln in lines[1:]]


def check_complexity(word: str, span: range, stdout: str, closed_form) -> list[str]:
    problems = []
    rows = _table(stdout, "n\tp\tc\ta\tL\tcertified")
    if [int(r[0]) for r in rows] != list(span):
        return ["complexity rows are not n = %d..%d" % (span[0], span[-1])]
    for r in rows:
        n, p, c, a, L = (int(x) for x in r[:5])
        if n >= first_checked_n(word) and L != closed_form(word, n):
            problems.append("%s n=%d L=%d, closed form %d" % (word, n, L, closed_form(word, n)))
        if not (L <= c <= p and L <= a):
            problems.append("%s n=%d breaks L <= c <= p or L <= a" % (word, n))
    return problems


def check_algebra(word: str, max_n: int, stdout: str, closed_form) -> list[str]:
    problems = []
    rows = _table(stdout, "n\tdimV\tdimW\tL_algebra\tL_direct\tmatch")
    if [int(r[0]) for r in rows] != list(range(max_n + 1)):
        return ["algebra rows are not n = 0..%d" % max_n]
    for r in rows:
        n, dim_v, dim_w, l_alg, l_dir = (int(x) for x in r[:5])
        if r[5] != "true" or l_alg != l_dir or dim_v - dim_w != l_alg:
            problems.append("%s n=%d rank route and direct count disagree" % (word, n))
        if n >= first_checked_n(word) and l_alg != closed_form(word, n):
            problems.append("%s n=%d L=%d, closed form %d" % (word, n, l_alg, closed_form(word, n)))
    return problems


def check_pipeline(word: str, stdout: str, files: dict[str, bytes], closed_form) -> list[str]:
    problems = []
    fields = dict(ln.split(": ", 1) for ln in stdout.splitlines() if ": " in ln)
    lo = first_checked_n(word)
    want = [closed_form(word, n) for n in range(MAX_DFAO_N + 1)]
    dfao = dfao_values(files["lie_L.dfao"].decode(), MAX_DFAO_N + 1)
    rep = linrep_values(files["lie.linrep"].decode(), MAX_DFAO_N + 1)
    for n in range(lo, MAX_DFAO_N + 1):
        if dfao[n] != want[n] or rep[n] != want[n]:
            problems.append(
                "%s n=%d dfao %d linrep %s, closed form %d" % (word, n, dfao[n], rep[n], want[n])
            )
            break
    if int(fields.get("sup", -1)) != max(want[lo:]):
        problems.append("%s sup %s, closed form max %d" % (word, fields.get("sup"), max(want[lo:])))
    return problems


def check_factoreq(stdout: str, files: dict[str, bytes]) -> list[str]:
    tracks, n_states, accepts = mtdfa_reader(files["factoreq.mtdfa"].decode())
    if stdout.splitlines()[:2] != ["tracks: i j n", "states: %d" % n_states]:
        return ["stdout does not describe the emitted automaton"]
    w = twelve_prefix(4096 + 64)
    rng = random.Random(2102)
    triples = [(i, j, n) for i in range(24) for j in range(24) for n in range(10)]
    triples += [(rng.randrange(4096), rng.randrange(4096), rng.randrange(64)) for _ in range(2000)]
    for i, j, n in triples:
        if accepts({"i": i, "j": j, "n": n}) != (w[i : i + n] == w[j : j + n]):
            return ["factoreq wrong at i=%d j=%d n=%d" % (i, j, n)]
    return []


def check_hashes(op_id: str, stdout: bytes, files: dict[str, bytes], expected: dict) -> list[str]:
    want = expected.get(op_id)
    if want is None:
        return ["no recorded hashes for %s" % op_id]
    got = {"stdout": sha256(stdout)}
    got.update({name: sha256(data) for name, data in files.items()})
    return ["%s sha256 differs from the recorded value" % k for k in sorted(want) if got.get(k) != want[k]]

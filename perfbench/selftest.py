#!/usr/bin/env python3
"""Smoke test of the benchmark itself; it takes a few seconds.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

* every name the tracer wraps still exists where the package looks it up,
  and `BENCHMARK.json` lists the metrics and workloads this code reports;
* one traced operation per route passes its output check, records spans
  in each layer that route uses and none in the layers it must not touch;
* the checker flags a corrupted `L` value in each output format, a wrong
  automaton, and a recorded hash that does not match.

Exit status 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import checks
import run
import tracing

# operation -> layers that must record time, layers that must record none
SMOKE = {
    "pipeline:thue-morse": (
        ("cli", "formulas", "automata", "logic", "counting", "linalg"),
        ("complexity", "algebra"),
    ),
    "complexity:thue-morse": (("cli", "words", "complexity"), ("automata", "logic", "algebra")),
    "algebra-check:fibonacci:30": (
        ("cli", "words", "complexity", "algebra", "linalg"),
        ("automata", "logic", "counting"),
    ),
}


def _replace_field(text: str, row: int, col: int, delta: int) -> bytes:
    lines = text.splitlines()
    cells = lines[row].split("\t")
    cells[col] = str(int(cells[col]) + delta)
    lines[row] = "\t".join(cells)
    return ("\n".join(lines) + "\n").encode()


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "liewords", "cli.py")):
        print("selftest: no src/liewords here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    import liewords.cli  # noqa: F401  (loads every layer module)
    from liewords.golden import closed_form

    failures = []

    def expect(ok: bool, what: str):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    missing = tracing.missing_names()
    expect(not missing, "traced names exist %s" % (missing or ""))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect(
        [m["name"] for m in bench["per_layer"]] == [m[0] for m in tracing.METRICS],
        "BENCHMARK.json per_layer matches tracing.METRICS",
    )
    expect(
        [m["name"] for m in bench["end_to_end"]] == [m[0] for m in run.END_TO_END],
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    expect(
        all(w["name"] in run.WORKLOADS for w in bench["workloads"]),
        "BENCHMARK.json workloads are defined in run.py",
    )

    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    ops = {op.id: op for ops in run.WORKLOADS.values() for op in ops}
    expect(set(ops) == set(expected), "every operation has recorded hashes")

    results = {}
    os.makedirs(run.RUN_DIR, exist_ok=True)
    try:
        deadline = time.monotonic() + run.RUN_LIMIT_S
        for op_id, (active, idle) in SMOKE.items():
            r = run.run_op(ops[op_id], True, deadline, expected, closed_form)
            results[op_id] = r
            expect(not r.problems, "%s passes its checks %s" % (op_id, r.problems or ""))
            raw = tracing.summarize(r.trace) if r.trace else {}
            for layer in active:
                expect(raw.get(layer + ".self_s", 0) > 0, "%s records time in %s" % (op_id, layer))
            for layer in idle:
                calls = sum(v for k, v in raw.items() if k.startswith(layer + ".") and k.endswith(".calls"))
                expect(calls == 0, "%s makes no %s calls" % (op_id, layer))
    finally:
        shutil.rmtree(run.RUN_DIR, ignore_errors=True)

    def flagged(op_id, stdout, files, exp=expected, want=None):
        problems = run.check_output(ops[op_id], stdout, files, exp, closed_form)
        return bool(problems) and (want is None or any(want in p for p in problems))

    cx = results["complexity:thue-morse"]
    bad = _replace_field(cx.stdout.decode(), 6, 4, 1)  # L at n = 5
    expect(flagged(cx.op.id, bad, {}, want="closed form"), "corrupt L in complexity fails its closed form")
    expect(flagged(cx.op.id, bad, {}, want="sha256"), "corrupt L in complexity fails its hash")

    al = results["algebra-check:fibonacci:30"]
    bad = _replace_field(al.stdout.decode(), 4, 3, 1)  # L_algebra at n = 3
    expect(flagged(al.op.id, bad, {}, exp={}, want="disagree"), "corrupt L in algebra-check is caught")

    pl = results["pipeline:thue-morse"]
    dfao = pl.files["lie_L.dfao"].decode().replace("output 3", "output 2", 1).encode()
    expect(
        flagged(pl.op.id, pl.stdout, dict(pl.files, **{"lie_L.dfao": dfao}), exp={}, want="closed form"),
        "corrupt .dfao output fails its closed form",
    )
    rep = pl.files["lie.linrep"].decode().rsplit("w:", 1)
    rep = (rep[0] + "w: " + " ".join("2" if x == "1" else x for x in rep[1].split()) + "\n").encode()
    expect(
        flagged(pl.op.id, pl.stdout, dict(pl.files, **{"lie.linrep": rep}), exp={}, want="closed form"),
        "corrupt .linrep fails its closed form",
    )
    wrong = {pl.op.id: dict(expected[pl.op.id], stdout="0" * 64)}
    expect(flagged(pl.op.id, pl.stdout, pl.files, exp=wrong, want="sha256"), "a wrong recorded hash is caught")

    universal = "base: 4\ntracks: i j n\nstate 0 accepting\n" + "".join(
        "%d,%d,%d -> 0\n" % (a, b, c) for a in range(4) for b in range(4) for c in range(4)
    )
    expect(
        bool(checks.check_factoreq("tracks: i j n\nstates: 1\n", {"factoreq.mtdfa": universal.encode()})),
        "an automaton accepting every (i, j, n) fails the factor-equality check",
    )

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Cold-start benchmark of the liewords command line.

Run from the repository root:

    python3 perfbench/run.py --workload routes-tables --seed 1 --seconds 60 --trace 0

Every operation is one CLI call in a fresh interpreter (`child.py`), so
no cache survives from one operation to the next.  Operations run one at
a time from this process (a closed loop with one client).  The workload
seed shuffles the order of the operations in each pass; the inputs are
the bundled words, whose closed forms are the reference.  Passes repeat
until `--seconds` have elapsed or the workload's pass limit is reached,
and at least one pass always runs.

The last line of stdout is one JSON object.  With `--trace 0` it holds
the end-to-end metrics, with `--trace 1` the per-layer metrics of
`tracing.METRICS`.  Every operation's output is checked (`checks.py`);
an operation that exits non-zero, times out or fails a check counts as
failed and the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
# scratch space of this run: child info files and emitted outputs
RUN_DIR = os.path.join(WORK, "run-%d" % os.getpid())
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")

import checks  # noqa: E402
import tracing  # noqa: E402

# a run must end within 180 s; leave room for checking and reporting
RUN_LIMIT_S = 165.0
SETUP_PROBES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
FACTOREQ = "Au (u<n) => W[i+u]=W[j+u]"

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "ratio"),
)


class Op(NamedTuple):
    id: str
    argv: tuple[str, ...]
    emits: tuple[str, ...]
    check: Callable[[str, dict, Callable], list]


def _pipeline(word: str) -> Op:
    return Op(
        "pipeline:%s" % word,
        ("pipeline", "--seq", word, "--emit-rep", "lie.linrep", "--emit-dfao", "lie_L.dfao"),
        ("lie.linrep", "lie_L.dfao"),
        lambda out, files, cf: checks.check_pipeline(word, out, files, cf),
    )


def _complexity(word: str) -> Op:
    span = range(0, 101)
    return Op(
        "complexity:%s" % word,
        ("complexity", "--word", word, "--n", "%d..%d" % (span[0], span[-1])),
        (),
        lambda out, files, cf: checks.check_complexity(word, span, out, cf),
    )


def _algebra(word: str, max_n: int) -> Op:
    return Op(
        "algebra-check:%s:%d" % (word, max_n),
        ("algebra-check", "--word", word, "--max-n", str(max_n)),
        (),
        lambda out, files, cf: checks.check_algebra(word, max_n, out, cf),
    )


def _factoreq_twelve() -> Op:
    return Op(
        "logic-compile:twelve:factoreq",
        ("logic", "compile", "--seq", "twelve", "--formula", FACTOREQ, "--emit", "factoreq.mtdfa"),
        ("factoreq.mtdfa",),
        lambda out, files, cf: checks.check_factoreq(out, files),
    )


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "pipeline-small": tuple(_pipeline(w) for w in ("thue-morse", "vtm", "cantor")),
    "routes-tables": tuple(
        _complexity(w) for w in ("thue-morse", "vtm", "cantor", "fibonacci", "tribonacci", "twelve")
    )
    + tuple(
        _algebra(w, n)
        for w, n in (("thue-morse", 24), ("vtm", 20), ("fibonacci", 30), ("tribonacci", 24), ("twelve", 8))
    ),
    # The two twelve workloads are run by hand, not from BENCHMARK.json: one
    # call takes 45 to 55 s and 130 to 150 s, and 22 runs of either next to
    # the two listed workloads would overrun the time a comparison round
    # may take.
    "compile-twelve": (_factoreq_twelve(),),
    "pipeline-twelve": (_pipeline("twelve"),),
}
# A routes-tables pass takes 30 to 45 s, so one pass per run is what a
# comparison round has time for; the twelve workloads are one call each.
MAX_PASSES = {"routes-tables": 1, "compile-twelve": 1, "pipeline-twelve": 1}
# run limits for workloads run by hand only
LONG_RUN_LIMIT_S = {"pipeline-twelve": 600.0}


class OpResult(NamedTuple):
    op: Op
    problems: list
    setup_s: Optional[float] = None
    op_s: Optional[float] = None
    rss_mb: Optional[float] = None
    trace: Optional[dict] = None
    stdout: bytes = b""
    files: dict = {}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LIEWORDS_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv, trace: bool, deadline: float, workdir: str):
    """Run child.py once; returns (rc, stdout, info or None, spawn time, stderr tail)."""
    info_path = os.path.join(RUN_DIR, "info.json")
    if os.path.exists(info_path):
        os.remove(info_path)
    cmd = [sys.executable, CHILD, info_path, "1" if trace else "0", *argv]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=workdir, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, b"", None, t_spawn, "timed out"
    info = None
    if os.path.exists(info_path):
        with open(info_path) as fh:
            info = json.load(fh)
    return proc.returncode, out, info, t_spawn, err.decode(errors="replace")[-500:]


def setup_probe(deadline: float) -> Optional[float]:
    rc, _, info, t_spawn, _ = spawn((), False, deadline, RUN_DIR)
    return info["ready"] - t_spawn if rc == 0 and info else None


def run_op(op: Op, trace: bool, deadline: float, expected: dict, closed_form) -> OpResult:
    if time.monotonic() >= deadline:
        return OpResult(op, ["not started: the run's time limit is reached"])
    workdir = os.path.join(RUN_DIR, "op")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rc, out, info, t_spawn, err = spawn(op.argv, trace, deadline, workdir)
    if rc != 0 or info is None:
        return OpResult(op, ["exit %s: %s" % (rc, err.strip())])
    files = {}
    problems = []
    for name in op.emits:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
        else:
            problems.append("%s was not written" % name)
    problems += check_output(op, out, files, expected, closed_form)
    return OpResult(
        op,
        problems,
        info["ready"] - t_spawn,
        info["end"] - info["go"],
        info["maxrss_kb"] / 1024.0,
        info.get("trace"),
        out,
        files,
    )


def check_output(op: Op, stdout: bytes, files: dict, expected: dict, closed_form) -> list:
    problems = checks.check_hashes(op.id, stdout, files, expected)
    try:
        problems += op.check(stdout.decode(), files, closed_form)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        problems.append("unreadable output: %r" % (exc,))
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, log=sys.stderr):
    """All passes of one run; returns (passes, setup samples)."""
    from liewords.golden import closed_form

    with open(EXPECTED) as fh:
        expected = json.load(fh)
    os.makedirs(RUN_DIR, exist_ok=True)
    try:
        deadline = time.monotonic() + LONG_RUN_LIMIT_S.get(name, RUN_LIMIT_S)
        setup_probe(deadline)  # compiles bytecode and warms the file cache; not timed
        setups = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
        rng = random.Random(seed)
        passes = []
        t_begin = time.monotonic()
        max_passes = MAX_PASSES.get(name)
        while not passes or (time.monotonic() - t_begin < seconds and len(passes) != max_passes):
            order = list(WORKLOADS[name])
            rng.shuffle(order)
            results = []
            for op in order:
                r = run_op(op, trace, deadline, expected, closed_form)
                setups.append(r.setup_s)
                results.append(r)
                print(
                    "%-32s %s  %s"
                    % (op.id, "%.3fs" % r.op_s if r.op_s else "-", "; ".join(r.problems) or "ok"),
                    file=log,
                )
            passes.append(results)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    return passes, [s for s in setups if s is not None]


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes, setups) -> dict:
    ops = [r for p in passes for r in p]
    done = [r for r in ops if r.op_s is not None]
    values = {
        "wall_s": median([sum(r.op_s or 0.0 for r in p) for p in passes]),
        "op_p50_s": median([r.op_s for r in done]),
        "setup_s": median(setups),
        "peak_rss_mb": max((r.rss_mb for r in done), default=0.0),
        "pass_rate": sum(1 for r in ops if not r.problems) / len(ops),
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}


def per_layer(passes) -> dict:
    per_pass = []
    for p in passes:
        total = tracing.merge(tracing.summarize(r.trace) for r in p if r.trace)
        total["trace.wall_s"] = sum(r.op_s or 0.0 for r in p)
        per_pass.append(tracing.layer_metrics(total))
    return {
        name: {"value": median([m[name] for m in per_pass]), "unit": unit}
        for name, unit, _, _ in tracing.METRICS
    }


def write_spans(name: str, seed: int, passes) -> str:
    path = os.path.join(WORK, "spans-%s-seed%d.json" % (name, seed))
    payload = [
        {"pass": i, "op": r.op.id, "trace": r.trace} for i, p in enumerate(passes) for r in p if r.trace
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liewords", "cli.py")):
        print("perfbench: no src/liewords here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    passes, setups = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        print("spans: %s" % write_spans(args.workload, args.seed, passes), file=sys.stderr)
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setups)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.problems)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

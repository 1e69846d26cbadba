"""Command line surface.

Subcommands cover the three verification routes (tables, algebra ranks,
logic pipeline), the staged construction, and the power scans.  Output
is deterministic for a fixed invocation: tables are sorted and all set
iteration happens over sorted copies.

Exit codes: 0 success, 1 contract violation, tool error or unreadable
input file, 2 usage.

`construct` and `golden` import their modules when they run, so no other
call loads them.  numpy and the automaton layer load with this module, so
a pipeline call pays for them before `main` starts.
"""

from __future__ import annotations

import argparse
import sys
from itertools import groupby
from typing import Optional

from . import automata as au
from . import words as wd
from .algebra import algebra_report, algebra_rows_to_tsv
from .bundled import WORDS, get_word
from .complexity import (
    complexity_table,
    first_difference_margin,
    rows_to_json,
    rows_to_tsv,
    unbounded_exponent_scan,
)
from .counting import (
    counting_representation,
    minimize_representation,
    representation_to_text,
    sup_value,
    to_dfao,
)
from .errors import FormulaSyntaxError, InvalidParameter, ToolError
from .logic import build_predicate_library, compile_formula, parse_with_library
from .words import WordGenerator


def _parse_span(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        span = range(int(lo), int(hi) + 1)
    else:
        v = int(text)
        span = range(v, v + 1)
    if len(span) == 0:
        raise argparse.ArgumentTypeError("empty range %r" % text)
    return span


def _add_word_source(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--word", choices=sorted(WORDS), help="bundled word")
    g.add_argument("--morphism-file", help="rule file; fixed point of the morphism")
    g.add_argument("--dfao-file", help="digit automaton file")
    p.add_argument("--seed", help="fixed-point seed letter for --morphism-file")


def _generator(args) -> WordGenerator:
    if args.seed is not None and not args.morphism_file:
        raise InvalidParameter("--seed needs --morphism-file")
    if args.word:
        return get_word(args.word)
    if args.morphism_file:
        with open(args.morphism_file) as fh:
            m = wd.parse_morphism(fh.read())
        seed = args.seed
        if seed is None:
            seed = next(
                (c for c in m.alphabet if m.is_prolongable_on(c)), None
            )
            if seed is None:
                raise ToolError("morphism is not prolongable on any letter")
        return WordGenerator("file:%s" % args.morphism_file, morphism=m, seed=seed)
    with open(args.dfao_file) as fh:
        d = wd.parse_dfao(fh.read())
    return WordGenerator("file:%s" % args.dfao_file, dfao=d)


def _sequence(value: str) -> wd.Dfao:
    """A digit automaton from a bundled word name or a file path."""
    if value in WORDS:
        d = WORDS[value].dfao
        if d is None:
            raise ToolError("%r has no digit automaton" % value)
        return d
    with open(value) as fh:
        return wd.parse_dfao(fh.read())


def cmd_complexity(args) -> int:
    rows = complexity_table(_generator(args), args.n)
    text = rows_to_json(rows) if args.format == "json" else rows_to_tsv(rows)
    sys.stdout.write(text)
    return 0


def cmd_verify_inequalities(args) -> int:
    gen = _generator(args)
    ns = args.n
    lo = min(ns)
    # from n-1 for the margin; a negative lo is passed on to be refused
    rows = complexity_table(gen, range(lo - 1 if lo > 0 else lo, max(ns) + 1))
    by_n = {r.n: r for r in rows}
    failures = []
    skipped = 0
    out = ["n\tmargin\tL<=c\tL<=a\tcertified"]
    for n in sorted(ns):
        r = by_n[n]
        le_c = r.L <= r.c
        le_a = r.L <= r.a
        margin: Optional[int] = None
        if n >= 1:
            prev = by_n[n - 1]
            trusted = (r.certified and prev.certified) or args.allow_heuristic
            if trusted:
                margin = first_difference_margin(r, prev.p, strict=False)
            else:
                skipped += 1
        checked_margin = margin is None or margin >= 0
        if not (le_c and le_a and checked_margin):
            failures.append(n)
        out.append(
            "%d\t%s\t%s\t%s\t%s"
            % (
                n,
                "-" if margin is None else str(margin),
                str(le_c).lower(),
                str(le_a).lower(),
                str(r.certified).lower(),
            )
        )
    sys.stdout.write("\n".join(out) + "\n")
    if skipped:
        sys.stdout.write(
            "# %d margin(s) skipped on uncertified data (use --allow-heuristic)\n" % skipped
        )
    if failures:
        sys.stdout.write("# violations at n = %s\n" % ", ".join(map(str, failures)))
        return 1
    return 0


def cmd_algebra_check(args) -> int:
    rows = algebra_report(_generator(args), args.max_n, strict=not args.allow_heuristic)
    sys.stdout.write(algebra_rows_to_tsv(rows))
    return 0 if all(r.match for r in rows) else 1


def cmd_logic_compile(args) -> int:
    if args.formula_file:
        with open(args.formula_file) as fh:
            text = fh.read()
    else:
        text = args.formula
    try:
        f = parse_with_library(text)
        a = compile_formula(f, {"W": _sequence(args.seq)} if args.seq else None, base=args.base)
    except RecursionError:
        # the parser and the formula walkers recurse once per nesting level
        raise FormulaSyntaxError("formula nests too deeply") from None
    sys.stdout.write(
        "tracks: %s\nstates: %d\n" % (" ".join(a.tracks), a.n_states)
    )
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(au.to_text(a))
        sys.stdout.write("wrote %s\n" % args.emit)
    return 0


def cmd_pipeline(args) -> int:
    seq = _sequence(args.seq)
    lib = build_predicate_library(seq)
    lie = lib["lie"]
    rep = counting_representation(lie)
    small = minimize_representation(rep)
    dfao = to_dfao(small)
    sys.stdout.write(
        "lie states: %d\nrepresentation dimension: %d\nminimized dimension: %d\n"
        "dfao states: %d\nsup: %d\n"
        % (lie.n_states, rep.dimension, small.dimension, dfao.n_states, sup_value(dfao))
    )
    if args.emit_rep:
        with open(args.emit_rep, "w") as fh:
            fh.write(representation_to_text(small))
        sys.stdout.write("wrote %s\n" % args.emit_rep)
    if args.emit_dfao:
        with open(args.emit_dfao, "w") as fh:
            fh.write(wd.dfao_to_text(dfao))
        sys.stdout.write("wrote %s\n" % args.emit_dfao)
    return 0


def _growth(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidParameter("--g needs comma-separated integers, got %r" % text) from None


def cmd_construct(args) -> int:
    from .construction import (
        ConstructionParams,
        build,
        trace_to_json,
        verify_structure,
    )

    growth = _growth(args.g) if args.g else ()
    params = ConstructionParams(
        depth=args.depth,
        mode=args.mode,
        growth=growth,
        variant=args.variant,
    )
    trace = build(params)
    checks = verify_structure(trace)
    sys.stdout.write(
        "d: %s\ns lengths: %s\n"
        % (" ".join(map(str, trace.d)), " ".join(str(len(s)) for s in trace.s))
    )
    for name, ok in checks:
        sys.stdout.write("%s\t%s\n" % (name, "ok" if ok else "FAIL"))
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(trace_to_json(trace))
        sys.stdout.write("wrote %s\n" % args.emit)
    return 0 if all(ok for _, ok in checks) else 1


def cmd_scan_powers(args) -> int:
    roots = unbounded_exponent_scan(_generator(args), args.max_root_len, args.exponent)
    for y in roots:
        sys.stdout.write(y + "\n")
    sys.stdout.write("# %d class(es)\n" % len(roots))
    return 0


def cmd_golden(args) -> int:
    from .golden import golden_report

    rows = golden_report()
    failures = [r for r in rows if not r.ok]
    # golden_report emits the rows of each plan entry together
    for (word, method), group in groupby(rows, lambda r: (r.word, r.method)):
        group = list(group)
        ok = sum(1 for r in group if r.ok)
        sys.stdout.write(
            "%s\t%s\t%d/%d\t%s\n"
            % (word, method, ok, len(group), "pass" if ok == len(group) else "FAIL")
        )
    for r in failures:
        sys.stdout.write(
            "# %s %s n=%d expected %d got %d\n"
            % (r.word, r.method, r.n, r.expected, r.computed)
        )
    return 0 if not failures else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liewords",
        description="Rotation-class (Lie) complexity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", help="n, p, c, a, L table")
    _add_word_source(p)
    p.add_argument("--n", type=_parse_span, required=True, help="range a..b or single n")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_complexity)

    p = sub.add_parser(
        "verify-inequalities", help="first-difference margin and the c/a bounds"
    )
    _add_word_source(p)
    p.add_argument("--n", type=_parse_span, required=True)
    p.add_argument("--allow-heuristic", action="store_true")
    p.set_defaults(fn=cmd_verify_inequalities)

    p = sub.add_parser("algebra-check", help="rank route against the direct count")
    _add_word_source(p)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--allow-heuristic", action="store_true")
    p.set_defaults(fn=cmd_algebra_check)

    p = sub.add_parser("logic", help="formula operations")
    logic_sub = p.add_subparsers(dest="logic_command", required=True)
    q = logic_sub.add_parser("compile", help="formula to multi-track automaton")
    src = q.add_mutually_exclusive_group(required=True)
    src.add_argument("--formula", help="formula text")
    src.add_argument("--formula-file", help="file with the formula")
    q.add_argument("--seq", help="bundled word or .dfao file bound to W")
    q.add_argument("--base", type=int, help="digit base when no sequence is read")
    q.add_argument("--emit", help="write the automaton here (.mtdfa)")
    q.set_defaults(fn=cmd_logic_compile)

    p = sub.add_parser("pipeline", help="predicates, counting, DFAO, sup")
    p.add_argument("--seq", required=True, help="bundled word or .dfao file")
    p.add_argument("--emit-rep", help="write the linear representation (.linrep)")
    p.add_argument("--emit-dfao", help="write the counting automaton (.dfao)")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("construct", help="staged low-complexity word")
    p.add_argument("--mode", choices=("toy", "honest"), default="toy")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--g", help="comma-separated toy growth multipliers")
    p.add_argument("--variant", choices=("symmetric", "verbatim"), default="symmetric")
    p.add_argument("--emit", help="write the trace here (.json)")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("scan-powers", help="primitive roots with high powers")
    _add_word_source(p)
    p.add_argument("--max-root-len", type=int, default=6)
    p.add_argument("--exponent", type=int, default=4)
    p.set_defaults(fn=cmd_scan_powers)

    p = sub.add_parser("golden", help="closed-form tables against computed values")
    p.set_defaults(fn=cmd_golden)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ToolError, OSError, UnicodeDecodeError) as e:
        sys.stderr.write("%s: %s\n" % (type(e).__name__, e))
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance gate.

Each test covers one numbered claim about the toolkit as a whole and
reports a single ACCEPT line on success; all comparisons are exact
integer equality unless a tolerance is stated inline.
"""

import random
import time

import pytest

import conftest
from liewords import automata as au
from liewords.algebra import algebra_report
from liewords.bundled import PIPELINE_WORDS, get_word
from liewords.complexity import (
    complexity_table,
    first_difference_margin,
    lie_complexity,
    saturated_factor_set,
    unbounded_exponent_scan,
)
from liewords.construction import (
    ConstructionParams,
    build,
    double_log_threshold,
    verify_complexity_bound,
    verify_powers,
    verify_structure,
)
from liewords.counting import (
    counting_representation,
    minimize_representation,
    sup_value,
    to_dfao,
)
from liewords.errors import InfiniteCount, ParameterOverflow
from liewords.golden import GOLDEN_PLAN, golden_report
from liewords.logic import build_predicate_library
from liewords.words import dfao_eval, saturation_window

from oracles import accepts, count_direct, eval_int, sam_lie_counts

BUNDLED = ("thue-morse", "vtm", "cantor", "fibonacci", "tribonacci", "twelve")
# the staged construction example is excluded from the margin criterion,
# which quantifies over the five classical words
MARGIN_WORDS = ("thue-morse", "vtm", "cantor", "fibonacci", "tribonacci")


def _accept(k):
    line = "ACCEPT %d: PASS" % k
    conftest.ACCEPT_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def tables():
    return {name: complexity_table(get_word(name), range(0, 101)) for name in BUNDLED}


def test_accept_1_golden_tables():
    started = time.monotonic()
    rows = golden_report()
    elapsed = time.monotonic() - started

    plan = {(word, method): ns for word, method, ns in GOLDEN_PLAN}
    assert plan[("thue-morse", "pipeline")] == (0, 256)
    assert plan[("thue-morse", "brute")] == (0, 64)
    assert plan[("vtm", "brute")] == (0, 50)
    assert plan[("fibonacci", "brute")] == (0, 50)
    assert plan[("tribonacci", "brute")] == (0, 50)
    # n = 0 is excluded for this word: the package counts the empty class
    # while the published table starts the value 2 at n = 0
    assert plan[("cantor", "pipeline")] == (1, 50)
    assert plan[("cantor", "brute")] == (1, 50)

    bad = [(r.word, r.method, r.n) for r in rows if r.computed != r.expected]
    assert bad == []
    assert elapsed < 300.0
    _accept(1)


def test_accept_2_flat_word_has_no_full_classes():
    gen = get_word("twelve")
    for n in range(2, 101):
        assert lie_complexity(saturated_factor_set(gen, n)) == 0
    _accept(2)


def test_accept_3_first_difference_margin(tables):
    for name in MARGIN_WORDS:
        rows = tables[name]
        certified_word = all(r.certified for r in rows)
        for prev, row in zip(rows, rows[1:]):
            # this word's rows are not labeled certified, so its margins
            # are checked with strict=False
            margin = first_difference_margin(row, prev.p, strict=certified_word)
            assert margin >= 0, (name, row.n, margin)
    _accept(3)


def test_accept_4_class_count_bounded_by_cyclic_and_abelian(tables):
    for name in BUNDLED:
        for row in tables[name]:
            assert row.L <= row.c, (name, row.n)
            assert row.L <= row.a, (name, row.n)
    _accept(4)


def test_accept_5_rank_route_equals_direct_route():
    started = time.monotonic()
    for name, max_n in (
        ("thue-morse", 64),
        ("fibonacci", 64),
        ("vtm", 64),
        ("tribonacci", 64),
        ("twelve", 32),
    ):
        rows = algebra_report(get_word(name), max_n)
        assert len(rows) == max_n + 1
        for r in rows:
            assert r.lie_algebra == r.lie_direct, (name, r.n)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _accept(5)


def test_accept_6_pipeline_to_automatic_sequence(tm_library, cantor_library):
    lie = tm_library["lie"]
    d = to_dfao(minimize_representation(counting_representation(lie)))

    tm = get_word("thue-morse")
    window, certified = saturation_window(tm, 4096)
    assert certified
    brute = sam_lie_counts(tm.prefix(window), 4096)

    for n in range(0, 4097):
        out = int(dfao_eval(d, n))
        assert out == count_direct(lie, n), n
        assert out == brute[n], n
    assert sup_value(d) == 3

    cantor_d = to_dfao(
        minimize_representation(counting_representation(cantor_library["lie"]))
    )
    assert cantor_d.base == 3
    assert sup_value(cantor_d) == 3
    _accept(6)


def test_accept_7_counting_dual_path(
    tm_library, vtm_library, cantor_library, twelve_library
):
    libraries = {
        "thue-morse": tm_library,
        "vtm": vtm_library,
        "cantor": cantor_library,
        "twelve": twelve_library,
    }
    assert set(libraries) == set(PIPELINE_WORDS)
    for name in PIPELINE_WORDS:
        lie = libraries[name]["lie"]
        rep = counting_representation(lie)
        for n in range(0, 1001):
            assert eval_int(rep, n) == count_direct(lie, n), (name, n)

    # the remaining counters with the same track pair diverge, and both
    # paths must say so rather than return a number
    with pytest.raises(InfiniteCount):
        count_direct(tm_library["allconj"], 2)
    with pytest.raises(InfiniteCount):
        counting_representation(tm_library["allconj"])
    with pytest.raises(InfiniteCount):
        counting_representation(tm_library["lexleast"])
    _accept(7)


def test_accept_8_power_scan_proxy(tables):
    assert unbounded_exponent_scan(get_word("cantor"), 6, 4) == ["0"]
    assert unbounded_exponent_scan(get_word("fibonacci"), 6, 4) == []
    assert unbounded_exponent_scan(get_word("thue-morse"), 6, 4) == []

    for name in ("cantor", "fibonacci", "thue-morse"):
        estimate = len(unbounded_exponent_scan(get_word(name), 6, 4))
        observed = max(row.L for row in tables[name])
        assert estimate <= observed, (name, estimate, observed)
    _accept(8)


def test_accept_9_staged_construction_at_toy_scale():
    trace = build(ConstructionParams(depth=4, mode="toy", growth=(2, 2, 2, 2)))
    checks = dict(verify_structure(trace))
    for needed in (
        "suffix-chain",
        "separator-composition",
        "stage-recursion",
        "factors-occur-twice",
        "powers-in-separators",
    ):
        assert checks[needed], needed
    assert all(checks.values()), checks
    for i in range(1, 4):
        assert verify_powers(trace, i, trace.exponent(4, i))

    with pytest.raises(ParameterOverflow):
        build(ConstructionParams(depth=4, mode="honest"))

    # quantitative calibration is out of reach at this scale; the report
    # documents where the doubly logarithmic budget holds on the prefix
    report = verify_complexity_bound(trace, range(1, 18))
    prefix = trace.prefix
    for r in report:
        direct = len({prefix[i : i + r.n] for i in range(len(prefix) - r.n + 1)})
        assert r.p == direct
        assert r.bound == r.n * double_log_threshold(r.n)
        assert r.ok == (r.p <= r.bound)
    assert all(r.ok for r in report if r.n <= 8)
    _accept(9)


def test_accept_10_automata_property_suite():
    rng = random.Random(20240817)

    # arithmetic predicates against machine integers, exact
    checked = 0
    for base in (2, 3, 5):
        add = au.add_predicate("x", "y", "z", base)
        lt = au.lt_predicate("x", "y", base)
        eq = au.eq_predicate("x", "y", base)
        for _ in range(1200):
            x = rng.randrange(0, 1 << 20)
            y = rng.randrange(0, 1 << 20)
            z = rng.randrange(0, 1 << 21)
            assert accepts(add, {"x": x, "y": y, "z": z}) == (x + y == z)
            assert accepts(add, {"x": x, "y": y, "z": x + y})
            assert accepts(lt, {"x": x, "y": y}) == (x < y)
            assert accepts(eq, {"x": x, "y": y}) == (x == y)
            assert accepts(eq, {"x": x, "y": x})
            checked += 5
    assert checked >= 10**4

    # De Morgan and double complement on product automata
    a = au.lt_predicate("x", "y", 2)
    b = au.eq_predicate("y", "z", 2)
    assert au.minimize(au.complement(au.combine(a, b, "and"))) == au.minimize(
        au.combine(au.complement(a), au.complement(b), "or")
    )
    assert au.minimize(au.complement(au.combine(a, b, "or"))) == au.minimize(
        au.combine(au.complement(a), au.complement(b), "and")
    )
    assert au.minimize(au.complement(au.complement(a))) == au.minimize(a)

    # projection against bounded witness search
    inner = au.conjoin(
        [au.add_predicate("x", "y", "z", 2), au.lt_predicate("x", "z", 2)]
    )
    proj = au.project(inner, "x")
    for y in range(50):
        for z in range(50):
            witness = any(x + y == z and x < z for x in range(z + 2))
            assert accepts(proj, {"y": y, "z": z}) == witness

    # minimization: idempotent, canonical, language preserving
    c = au.conjoin([a, au.lt_predicate("y", "z", 2)])
    m = au.minimize(c)
    assert au.to_text(au.minimize(m)) == au.to_text(m)
    assert au.minimize(m) == au.minimize(c)
    assert au.to_text(au.minimize(au.lt_predicate("x", "y", 2))) == au.to_text(
        au.minimize(au.complement(au.leq_predicate("y", "x", 2)))
    )
    _accept(10)

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liewords.complexity import primitive_root
from liewords.construction import (
    _factors_occur_twice,
    BoundRow,
    ConstructionParams,
    build,
    double_log_threshold,
    trace_to_json,
    verify_complexity_bound,
    verify_powers,
    verify_structure,
)
from liewords.errors import ParameterOverflow, PrefixTooShort, WindowUnstable

from oracles import factors_occur_twice


def toy(depth=4, variant="symmetric"):
    return ConstructionParams(
        depth=depth, mode="toy", growth=(2,) * depth, variant=variant
    )


def test_toy_trace_shape():
    trace = build(toy())
    assert trace.d == (2, 5, 13, 34)
    assert [len(s) for s in trace.s] == [2, 36, 212, 924]
    assert trace.a[1][0] == 3
    assert trace.a[3] == (17, 7, 3, 1)


def test_stage_words_chain_as_suffixes():
    trace = build(toy())
    for i in range(2, trace.depth + 1):
        assert trace.u_word(i).endswith(trace.u_word(i - 1))


def test_structure_checks_pass_for_both_variants():
    for variant in ("symmetric", "verbatim"):
        trace = build(toy(variant=variant))
        checks = verify_structure(trace)
        assert len(checks) == 11
        failed = [name for name, ok in checks if not ok]
        assert failed == []


def test_variants_differ_only_in_one_slot():
    sym = build(toy(variant="symmetric"))
    ver = build(toy(variant="verbatim"))
    assert sym.v_word(2) == ver.v_word(2)
    assert len(sym.v_word(4)) != len(ver.v_word(4))


def test_every_stage_factor_occurs_twice():
    trace = build(toy())
    for i in range(1, trace.depth):
        s_i, s_next = trace.s_word(i), trace.s_word(i + 1)
        for length in (1, 2, len(s_i)):
            for start in range(0, len(s_i) - length + 1, max(1, length // 2)):
                block = s_i[start : start + length]
                first = s_next.find(block)
                assert first >= 0
                assert s_next.find(block, first + 1) >= 0


@st.composite
def _small_and_big(draw):
    """A short binary word and a longer one: random, or built from two
    copies of the short word so that the answer is often true."""
    small = draw(st.text(alphabet="01", max_size=8))
    if draw(st.booleans()):
        gap = draw(st.text(alphabet="01", max_size=4))
        big = draw(st.text(alphabet="01", max_size=3)) + small + gap + small
        if draw(st.booleans()) and big:
            # one flipped letter often leaves a factor with one occurrence
            i = draw(st.integers(min_value=0, max_value=len(big) - 1))
            big = big[:i] + "10"[int(big[i])] + big[i + 1 :]
    else:
        big = draw(st.text(alphabet="01", max_size=20))
    return small, big


@given(_small_and_big())
def test_factors_occur_twice_matches_per_factor_oracle(case):
    small, big = case
    assert _factors_occur_twice(small, big) == factors_occur_twice(small, big)


def test_power_blocks_present():
    trace = build(toy())
    assert verify_powers(trace, 1, trace.exponent(4, 1))
    assert verify_powers(trace, 2, trace.exponent(4, 2))
    with pytest.raises(PrefixTooShort):
        verify_powers(trace, 4, 40)


def test_honest_mode_overflows_at_desk_scale():
    params = ConstructionParams(depth=3, mode="honest")
    with pytest.raises(ParameterOverflow):
        build(params)


def test_toy_params_validated():
    with pytest.raises(ValueError):
        ConstructionParams(depth=0, mode="toy", growth=())
    with pytest.raises(ValueError):
        ConstructionParams(depth=2, mode="toy", growth=(2,))
    with pytest.raises(ValueError):
        ConstructionParams(depth=2, mode="toy", growth=(2, 1))


def test_primitive_root():
    assert primitive_root("010101") == "01"
    assert primitive_root("0110") == "0110"
    assert primitive_root("0") == "0"


def test_complexity_bound_report():
    trace = build(toy())
    rows = verify_complexity_bound(trace, range(1, 18))
    assert all(isinstance(r, BoundRow) for r in rows)
    prefix = trace.prefix
    for r in rows:
        direct = len({prefix[i : i + r.n] for i in range(len(prefix) - r.n + 1)})
        assert r.p == direct
        assert r.bound == r.n * double_log_threshold(r.n)
        assert r.ok == (r.p <= r.bound)
    # the doubly logarithmic budget is honest only for tiny n at toy scale
    assert all(r.ok for r in rows if r.n <= 8)
    assert any(not r.ok for r in rows)


def test_complexity_bound_rejects_unstable_window():
    trace = build(toy())
    with pytest.raises(WindowUnstable):
        verify_complexity_bound(trace, range(1, 60))


def test_trace_json_is_deterministic():
    a = trace_to_json(build(toy()))
    b = trace_to_json(build(toy()))
    assert a == b
    payload = json.loads(a)
    assert payload["depth"] == 4
    assert payload["d"] == [2, 5, 13, 34]
    assert set(payload) >= {"mode", "variant", "u", "a", "v", "s_lengths", "prefix"}

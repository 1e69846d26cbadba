import hashlib
import random
from functools import partial

import pytest

from liewords import automata as au
from liewords import formulas as fo
from liewords.bundled import get_word
from liewords.complexity import least_rotation, saturated_factor_set
from liewords.errors import BaseMismatch, CompileBlowup, UnboundSequence
from liewords.logic import (
    PREDICATE_TEXTS,
    apply_predicate,
    compile_formula,
    parse_with_library,
)
from oracles import accepted_values, accepts, conjoin_then_project, inline_calls


def test_compile_arithmetic_formula():
    a = compile_formula(fo.parse("x+y=z & y<x"), base=2)
    for x in range(12):
        for y in range(12):
            for z in range(24):
                want = x + y == z and y < x
                assert accepts(a, {"x": x, "y": y, "z": z}) == want


def test_truncated_subtraction_is_false_on_underflow():
    a = compile_formula(fo.parse("x-y=z"), base=2)
    for x in range(10):
        for y in range(10):
            accepted = accepted_values(a, {"x": x, "y": y}, "z", 20)
            if x >= y:
                assert accepted == [x - y]
            else:
                assert accepted == []


EQUATIONS = {
    "x+x=z": lambda x, y, z: x + x == z,
    "x-x=z": lambda x, y, z: z == 0,
    "x=x": lambda x, y, z: True,
    "x<x": lambda x, y, z: False,
    "x=x+y": lambda x, y, z: y == 0,
    "5=x": lambda x, y, z: x == 5,
    "z=x-y": lambda x, y, z: x >= y and z == x - y,
}


@pytest.mark.parametrize("base", [3, 33])
@pytest.mark.parametrize("text", sorted(EQUATIONS))
def test_equations_and_repeated_tracks_follow_the_arithmetic(text, base):
    # at base 33 an atom may read three tracks, not four
    want = EQUATIONS[text]
    a = compile_formula(fo.parse(text), base=base)
    rng = random.Random(text)
    for _ in range(300):
        x = rng.choice([rng.randrange(base**2), 5])
        y = rng.choice([rng.randrange(base**2), 0])
        z = rng.choice([rng.randrange(base**2), x + x, abs(x - y), 0])
        values = {"x": x, "y": y, "z": z}
        assert accepts(a, {t: values[t] for t in a.tracks}) == want(x, y, z), (x, y, z)


def test_quantifier_compilation():
    # Ey x+y=n says x <= n
    a = compile_formula(fo.parse("Ey x+y=n"), base=3)
    for x in range(15):
        for n in range(15):
            assert accepts(a, {"x": x, "n": n}) == (x <= n)


def test_sequence_atom_requires_binding():
    with pytest.raises(UnboundSequence):
        compile_formula(fo.parse("W[i]=@1"))


def test_sequence_base_must_match():
    tm = get_word("thue-morse").dfao
    with pytest.raises(BaseMismatch):
        compile_formula(fo.parse("W[i]=@1"), {"W": tm}, base=3)


def test_sequence_atoms_follow_the_word():
    tm = get_word("thue-morse")
    a = compile_formula(fo.parse("W[i]=W[j]"), {"W": tm.dfao})
    prefix = tm.prefix(128)
    for i in range(0, 120, 7):
        for j in range(0, 120, 11):
            assert accepts(a, {"i": i, "j": j}) == (prefix[i] == prefix[j])


def test_temporaries_do_not_capture_formula_variables():
    for text in ("Ey y=x+1 & x=3", "E_t1 _t1=x+1 & x=3"):
        a = compile_formula(fo.parse(text), base=2)
        assert accepted_values(a, {}, "x", 20) == [3], text
    a = compile_formula(fo.parse("_t1=x+1"), base=2)
    assert accepted_values(a, {"x": 3}, "_t1", 20) == [4]


def test_calls_apply_the_compiled_predicate():
    """A call with repeated, swapped and constant arguments gives the
    automaton of its inlined body."""
    tm = get_word("thue-morse").dfao
    calls = ("factoreq(i, i, n)", "factoreq(j, i, n+1)", "lessthan(i, 3, 2) & shift(i, j, i, 1)")
    for text in calls:
        f = parse_with_library(text)
        got = compile_formula(f, {"W": tm})
        assert au.to_text(got) == au.to_text(compile_formula(inline_calls(f), {"W": tm})), text


# the factor-equality predicate as published; PREDICATE_TEXTS holds its
# offset form
PUBLISHED_FACTOREQ = "Au,v (i+v=j+u & u>=i & u<i+n) => W[u]=W[v]"


@pytest.mark.parametrize("word", ["thue-morse", "vtm", "cantor"])
def test_published_factoreq_is_the_library_factoreq(request, word):
    lib = request.getfixturevalue(_LIBRARY_FIXTURES[word])
    published = compile_formula(fo.parse(PUBLISHED_FACTOREQ), {"W": get_word(word).dfao})
    assert au.minimize(published) == au.minimize(lib["factoreq"])


def _route_pair(name, library, dfao):
    text = dict((n, t) for n, params, t in PREDICATE_TEXTS)[name]
    f = inline_calls(parse_with_library(text))
    return compile_formula(f, {"W": dfao}), library[name]


@pytest.mark.parametrize(
    "name", [n for n, _, _ in PREDICATE_TEXTS]
)
def test_formula_route_equals_operation_route_on_thue_morse(name, tm_library):
    tm = get_word("thue-morse").dfao
    via_text, via_ops = _route_pair(name, tm_library, tm)
    assert au.minimize(via_text) == au.minimize(via_ops)


@pytest.mark.parametrize("name", ["factoreq", "conj", "lie"])
def test_formula_route_on_cantor(name, cantor_library):
    cantor = get_word("cantor").dfao
    via_text, via_ops = _route_pair(name, cantor_library, cantor)
    assert au.minimize(via_text) == au.minimize(via_ops)


def test_formula_route_on_vtm(vtm_library):
    vtm = get_word("vtm").dfao
    via_text, via_ops = _route_pair("lie", vtm_library, vtm)
    assert au.minimize(via_text) == au.minimize(via_ops)


def test_shift_false_when_offset_exceeds_length(tm_library):
    """Rotating by more than the block length names no factor; the
    truncated n-t argument must not make the inner check vacuous."""
    shift = tm_library["shift"]
    assert accepts(shift, {"i": 0, "j": 0, "n": 2, "t": 0})
    assert not accepts(shift, {"i": 0, "j": 0, "n": 2, "t": 5})


def test_factoreq_matches_prefix_comparison(tm_library):
    prefix = get_word("thue-morse").prefix(600)
    feq = tm_library["factoreq"]
    for i in range(0, 500, 13):
        for j in range(0, 500, 17):
            for n in (0, 1, 2, 3, 8):
                want = prefix[i : i + n] == prefix[j : j + n]
                assert accepts(feq, {"i": i, "j": j, "n": n}) == want


def test_conj_matches_rotation_semantics(tm_library):
    prefix = get_word("thue-morse").prefix(300)
    conj = tm_library["conj"]
    for i in range(0, 40):
        for j in range(0, 40):
            for n in (1, 2, 3, 4):
                u = prefix[i : i + n]
                v = prefix[j : j + n]
                want = least_rotation(u) == least_rotation(v)
                assert accepts(conj, {"i": i, "j": j, "n": n}) == want


def test_lie_accepted_positions_are_class_witnesses(tm_library):
    """For each fully contained rotation class, the accepted position is
    the first occurrence of its least rotation; recompute that from the
    prefix and compare."""
    tm = get_word("thue-morse")
    lie = tm_library["lie"]
    prefix = tm.prefix(4096)
    for n in (1, 2, 3, 4, 5, 6):
        fs = saturated_factor_set(tm, n)
        expected = set()
        for v in fs.members:
            doubled = v + v
            orbit = {doubled[t : t + n] for t in range(n)}
            if orbit <= fs.members and v == least_rotation(v):
                expected.add(prefix.index(v))
        got = set(accepted_values(lie, {"n": n}, "i", 256))
        assert got == expected
    assert accepted_values(lie, {"n": 2}, "i", 64) == [0, 1, 5]


def test_apply_predicate_binds_compound_arguments(tm_library):
    prefix = get_word("thue-morse").prefix(300)
    feq = tm_library["factoreq"]
    shifted = apply_predicate(
        feq, {"i": fo.Var("p"), "j": fo.Arith("+", fo.Var("p"), fo.Var("k")), "n": fo.Const(3)}
    )
    for p in range(0, 60):
        for k in range(0, 30):
            want = prefix[p : p + 3] == prefix[p + k : p + k + 3]
            assert accepts(shifted, {"p": p, "k": k}) == want


def test_apply_predicate_truncated_argument(tm_library):
    feq = tm_library["factoreq"]
    # n-5 underflows for n < 5, so nothing of negative length is compared
    trimmed = apply_predicate(
        feq, {"n": fo.Arith("-", fo.Var("n"), fo.Const(5))}
    )
    assert not accepts(trimmed, {"i": 0, "j": 0, "n": 2})
    assert accepts(trimmed, {"i": 0, "j": 0, "n": 7})


def test_state_cap_stops_compilation(monkeypatch):
    monkeypatch.setattr(au, "STATE_CAP", 3)
    assert compile_formula(fo.parse("i<j"), base=2).n_states == 3
    with pytest.raises(CompileBlowup, match="past the state cap"):
        compile_formula(fo.parse("Au (u<n) => W[i+u]=W[j+u]"), {"W": get_word("thue-morse").dfao})


# sha256 of `to_text` for each library predicate; any change to the
# automaton layer must leave these bytes as they are
LIBRARY_SHA256 = {
    "thue-morse": {
        "allconj": "433366f6b6b62baa7b6a7523c9f173a8a620cf120084a369f1d24401da83abc8",
        "conj": "7806a6bab818350a9640089b5500dd8539e95ce22809ce5b752ffd778e8655de",
        "factoreq": "27c3144ea91a3e8cd11e6b074977759419cbad25222f9dda47bbd8d8ea19c431",
        "lessthan": "0469c8df754b295b3ed1431dc7539d6c09f64aee2ce64d878184f783b04e0b68",
        "lessthaneq": "5d6e84a1dd48bec764c49d8ea015b4d9beae2b5f0a3fd276321092550f4924f5",
        "lexleast": "ec22d9480bb9dcc6b45903c78e29556c0f2856c4827d28407903f8b818b1f202",
        "lie": "4802ec5d01ccc73add7b9f74642179425d95bff9240c0541559528869ca7a392",
        "shift": "80c90e17d0206a48bb89ca986c4cb903f3f661496fda30e0feb097257f7af75c",
    },
    "vtm": {
        "allconj": "bc51dad74a1a637bfd484a9d82750040e758913dcd652c0a8a411dcb1f5e7f13",
        "conj": "a1d66f7013def37616345dada0fa00648ff6f9c8a42c389f7961a28d4e3139cf",
        "factoreq": "287b2b718de643deb3fd48e2ba8e9daec604cdc897647029aaa7a26352f7737c",
        "lessthan": "50a0532b60bf113894e2afba87a4ae9beb429c2b8ed8110b66aa7eb742a4e538",
        "lessthaneq": "6eeb3e208cbd5b99ee6d9147b74fce7fd4e001347589bad9f2e96ec31f2a6935",
        "lexleast": "2bea072c113b382ed34e641a1d90c06ac572ecb1f6aa2083660e7a8459ad5c3c",
        "lie": "46bd78e1fd9c92abaa17e7e81c73efddd6642b9fbbd6d60b9258bbcc03f8690f",
        "shift": "5362aaffbcab3f02f361214eaa2cc937b4c31f1949b94074c180334e67166609",
    },
    "cantor": {
        "allconj": "64db119c59225563698d827cccb536705d5b6b48f76aa07b421d7b1e9a4eea76",
        "conj": "61bbf947c2506e9cc9c2025d8662a71c026ce5280e5845ee32af3b44b31c9e1c",
        "factoreq": "382d35df5446ac55d7cdf1710d9d9edd9f43a808a39d947e659b1ab9d25b138f",
        "lessthan": "47f6243a7f8d0df2f72a9a29914590ea3b0e0d25cb71d95170b4ba63d8440f4c",
        "lessthaneq": "347a870de2530967d23c9aa2920c25322be031a7ff514357f21903758655a644",
        "lexleast": "76d7600f0e13cfb6fe5a73029439c202693ff74113ded12b942a21a8d5a43ffc",
        "lie": "7dab85b9f39a4fcfa66f6808a0230cc41cae78d79c6e472d8a26d93019fe87bc",
        "shift": "2d82de859e4caa99983c9ee68a14d4068b3bf85d8c982e17d158955faf6b2acd",
    },
    "twelve": {
        "allconj": "6b73c50a135089978f20f17c45aeb948cb3b2ed71baf57d441fd35891bc52121",
        "conj": "dc7c2c4dcb050f598f4092cfa8940280af64dd8a43a82702db9f804f2e66a2bf",
        "factoreq": "72cc312aa364628fa70110ea835b43b4bf577ee3dfe8d86a782fffcd64b202ea",
        "lessthan": "b8a4b3894f3ed821cc3fa18cb9cb5b3b61724b4f3415b78822536b840f7148e9",
        "lessthaneq": "55af5e5d4aa0093e9c71dad48fce3e5c2e520ee3823eca887250650dcf88fd9e",
        "lexleast": "44c4e82993fc9bc8fd93b27541278fe769001b5a2e8874ef23de1bb5f7540a4f",
        "lie": "fe94f2cd70c48b0703039ac8ca1852efde5c43af01eefc5ed704fcad622fdd40",
        "shift": "0eaa92ffa75692feee68ede1b0244180962dd48b4db17cf8c0f1ecccb422084b",
    },
}

_LIBRARY_FIXTURES = {
    "thue-morse": "tm_library",
    "vtm": "vtm_library",
    "cantor": "cantor_library",
    "twelve": "twelve_library",
}


@pytest.mark.parametrize("word", sorted(LIBRARY_SHA256))
def test_library_text_is_pinned(request, word):
    lib = request.getfixturevalue(_LIBRARY_FIXTURES[word])
    digests = {name: hashlib.sha256(au.to_text(a).encode()).hexdigest() for name, a in lib.items()}
    assert digests == LIBRARY_SHA256[word]


def _widest_product(build):
    """The result of build() and the most tracks of any product built on
    the way."""
    widths = []
    real = au.combine

    def record(a, b, op):
        out = real(a, b, op)
        widths.append(len(out.tracks))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(au, "combine", record)
        out = build()
    return out, max(widths, default=0)


V, C = fo.Var, fo.Const
P, M = partial(fo.Arith, "+"), partial(fo.Arith, "-")
SUBSTITUTIONS = [
    {"i": V("j"), "j": P(V("i"), V("t")), "n": M(V("n"), V("t"))},
    {"j": M(P(V("j"), V("n")), V("t")), "n": V("t")},
    {"n": V("t")},
    {"i": P(V("i"), C(1)), "j": P(V("j"), V("j"))},
    {"n": M(V("n"), P(V("i"), V("t")))},
]


@pytest.mark.parametrize("word", ["thue-morse", "cantor"])
def test_early_projection_matches_conjoining_first(word, tm_library, cantor_library):
    factoreq = {"thue-morse": tm_library, "cantor": cantor_library}[word]["factoreq"]
    for args in SUBSTITUTIONS:
        want = conjoin_then_project(factoreq, args)
        assert au.to_text(apply_predicate(factoreq, args)) == au.to_text(want)


def test_an_equation_writes_into_its_variable_side():
    # x+y=z is the adder on x, y and z, x+x=z reads x once, and z=x-y is
    # z+y=x: each is its one constraint, with no product
    cases = (
        ("x+y=z", au.add_predicate("x", "y", "z", 2)),
        ("x+x=z", au.add_predicate("x", "x", "z", 2)),
        ("x=5", au.const_predicate("x", 5, 2)),
        ("z=x-y", au.add_predicate("z", "y", "x", 2)),
    )
    for text, want in cases:
        out, widest = _widest_product(lambda: compile_formula(fo.parse(text), base=2))
        assert (out, widest) == (want, 0), text


def test_early_projection_keeps_shift_to_five_tracks(tm_library):
    # factoreq(i, (j+n)-t, t): conjoining first reads i, j, n, t and both
    # temporaries at once
    args = SUBSTITUTIONS[1]
    factoreq = tm_library["factoreq"]
    out, widest = _widest_product(lambda: apply_predicate(factoreq, args))
    want, widest_first = _widest_product(lambda: conjoin_then_project(factoreq, args))
    assert au.to_text(out) == au.to_text(want)
    assert (widest, widest_first) == (5, 6)

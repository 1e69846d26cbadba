import pytest
from hypothesis import given
from hypothesis import strategies as st

from liewords import formulas as fo
from liewords.errors import FormulaSyntaxError
from oracles import inline_call, inline_calls, substitute


def test_parse_basic_shapes():
    f = fo.parse("Ei i+1=n & W[i]=W[n-1]")
    assert isinstance(f, fo.Quant) and f.q == "E"
    assert f.names == ("i",)
    assert isinstance(f.body, fo.Binary) and f.body.op == "&"
    assert fo.parse("x<=y") == fo.Compare("<=", fo.Var("x"), fo.Var("y"))
    assert fo.parse("W[i]=@1") == fo.SeqIs("W", fo.Var("i"), "1")


def test_precedence_and_over_or_over_implies():
    f = fo.parse("a=0 & b=0 | c=0 => d=0")
    assert isinstance(f, fo.Binary) and f.op == "=>"
    assert isinstance(f.left, fo.Binary) and f.left.op == "|"
    assert isinstance(f.left.left, fo.Binary) and f.left.left.op == "&"


def test_negated_comparisons_desugar():
    assert fo.parse("x!=y") == fo.Not(fo.Compare("=", fo.Var("x"), fo.Var("y")))
    assert fo.parse("x>y") == fo.Compare("<", fo.Var("y"), fo.Var("x"))
    assert fo.parse("x>=y") == fo.Compare("<=", fo.Var("y"), fo.Var("x"))


def test_syntax_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as e:
        fo.parse("Ei i+ =n")
    assert e.value.line == 1
    assert e.value.col > 0
    # a comment runs to the end of its line, and the columns after it count
    with pytest.raises(FormulaSyntaxError) as e:
        fo.parse("x= # note")
    assert (e.value.line, e.value.col) == (1, 10)
    assert str(e.value) == "line 1, col 10: expected a term, got 'end of input'"


def test_free_and_bound_names():
    f = fo.parse("Ei W[i]=W[j] & i<n")
    assert fo.free_vars(f) == {"j", "n"}
    assert fo.sequence_names(f) == {"W"}


names = st.sampled_from(["a", "b", "c"])


def terms(depth):
    if depth == 0:
        return st.one_of(names.map(fo.Var), st.integers(0, 3).map(fo.Const))
    sub = terms(depth - 1)
    return st.one_of(
        names.map(fo.Var),
        st.integers(0, 3).map(fo.Const),
        st.tuples(sub, sub).map(lambda p: fo.Arith("+", *p)),
        st.tuples(sub, sub).map(lambda p: fo.Arith("-", *p)),
    )


def atoms():
    t = terms(2)
    pair = st.tuples(t, t)
    return st.one_of(
        pair.map(lambda p: fo.Compare("=", *p)),
        pair.map(lambda p: fo.Compare("<", *p)),
        pair.map(lambda p: fo.Compare("<=", *p)),
        t.map(lambda x: fo.SeqIs("W", x, "1")),
        pair.map(lambda p: fo.SeqCompare("=", "W", p[0], "W", p[1])),
        pair.map(lambda p: fo.SeqCompare("<", "W", p[0], "W", p[1])),
    )


def formulas(depth):
    if depth == 0:
        return atoms()
    sub = formulas(depth - 1)
    pair = st.tuples(sub, sub)
    return st.one_of(
        atoms(),
        sub.map(fo.Not),
        pair.map(lambda p: fo.Binary("&", *p)),
        pair.map(lambda p: fo.Binary("|", *p)),
        pair.map(lambda p: fo.Binary("=>", *p)),
        st.tuples(st.lists(names, min_size=1, max_size=2, unique=True), sub).map(
            lambda p: fo.Quant("E", tuple(p[0]), p[1])
        ),
        st.tuples(st.lists(names, min_size=1, max_size=2, unique=True), sub).map(
            lambda p: fo.Quant("A", tuple(p[0]), p[1])
        ),
    )


@given(formulas(3))
def test_text_round_trip(f):
    assert fo.parse(fo.to_text(f)) == f


def test_substitute_avoids_capture():
    f = fo.Quant("E", ("x",), fo.Compare("<", fo.Var("x"), fo.Var("y")))
    g = substitute(f, {"y": fo.Var("x")})
    assert isinstance(g, fo.Quant) and g.q == "E"
    bound = g.names[0]
    assert bound != "x"
    assert g.body == fo.Compare("<", fo.Var(bound), fo.Var("x"))


def test_substitute_leaves_unrelated_binders():
    m1 = fo.Arith("+", fo.Var("m"), fo.Const(1))
    f = fo.Quant("E", ("i",), fo.Compare("=", fo.Var("i"), fo.Var("n")))
    g = substitute(f, {"n": m1})
    assert g == fo.Quant("E", ("i",), fo.Compare("=", fo.Var("i"), m1))


def test_inline_call_substitutes_plain_arguments():
    x1 = fo.Arith("+", fo.Var("x"), fo.Const(1))
    d = fo.PredicateDef("p", ("a",), fo.Compare("=", fo.Var("a"), fo.Const(3)))
    got = inline_call(d, (x1,))
    assert got == fo.Compare("=", x1, fo.Const(3))


def test_inline_call_binds_truncated_subtraction_at_the_call():
    """n-t inside a call argument must be evaluated before the body runs,
    so an underflowing argument makes the whole call false rather than
    leaking into quantifiers inside the body."""
    d = fo.PredicateDef(
        "p", ("a",), fo.Quant("A", ("u",), fo.Binary(
            "=>",
            fo.Compare("<", fo.Var("u"), fo.Var("a")),
            fo.Compare("=", fo.Var("u"), fo.Var("u")),
        ))
    )
    n_t = fo.Arith("-", fo.Var("n"), fo.Var("t"))
    got = inline_call(d, (n_t,))
    assert isinstance(got, fo.Quant) and got.q == "E"
    bound = got.names[0]
    assert isinstance(got.body, fo.Binary) and got.body.op == "&"
    assert got.body.left == fo.Compare("=", fo.Var(bound), n_t)


def test_inline_call_checks_arity():
    d = fo.PredicateDef("p", ("a", "b"), fo.Compare("=", fo.Var("a"), fo.Var("b")))
    with pytest.raises(FormulaSyntaxError):
        inline_call(d, (fo.Var("x"),))


def test_parse_with_defs_hoists_minus_arguments():
    d = fo.parse_predicate_def(
        "p", ("a",), "Eu u+u=a", {}
    )
    call = fo.parse("p(n-t)", {"p": d})
    assert call == fo.Call(d, (fo.Arith("-", fo.Var("n"), fo.Var("t")),))
    f = inline_calls(call)
    assert isinstance(f, fo.Quant) and f.q == "E"
    assert isinstance(f.body, fo.Binary) and f.body.op == "&"


def test_call_reads_sequences_from_the_callee_and_checks_arity():
    d = fo.parse_predicate_def("p", ("a", "b"), "W[a]=V[b+1]")
    call = fo.parse("p(x, y-1) & U[x]=@1", {"p": d})
    assert fo.sequence_names(call) == {"U", "V", "W"}
    assert fo.free_vars(call) == {"x", "y"}
    assert fo.parse(fo.to_text(call), {"p": d}) == call
    with pytest.raises(FormulaSyntaxError, match="p expects 2 arguments, got 1"):
        fo.parse("p(x)", {"p": d})

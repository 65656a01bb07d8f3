"""Reduced polynomials: evaluation, parsing, trace composition."""

import pytest

from bentvec import BooleanFunction, DefiningSet, FieldSpec, ReducedPolynomial
from bentvec.errors import FieldError, ParseError

F16 = FieldSpec.default(4)
F64 = FieldSpec.default(6)


def test_eval_examples():
    zero = ReducedPolynomial.zero(2)
    assert all(zero.eval_bits((a, b)) == 0 for a in (0, 1) for b in (0, 1))
    mono = ReducedPolynomial.make(2, [(1, 2)])
    assert mono.eval_bits((1, 1)) == 1
    assert mono.eval_bits((1, 0)) == 0
    orp = ReducedPolynomial.make(2, [(1,), (2,), (1, 2)])
    table = [orp.eval_bits(((v >> 0) & 1, (v >> 1) & 1)) for v in range(4)]
    assert table == [0, 1, 1, 1]


def test_degree():
    assert ReducedPolynomial.zero(3).degree() == 0
    assert ReducedPolynomial.one(3).degree() == 0
    assert ReducedPolynomial.make(3, [(1, 2, 3)]).degree() == 3
    assert ReducedPolynomial.make(2, [(1,), (2,), (1, 2)]).degree() == 2


def test_variable_range_enforced():
    with pytest.raises(FieldError):
        ReducedPolynomial.make(2, [(3,)])


def test_parse_and_text_roundtrip():
    import random

    rng = random.Random(0)
    for _ in range(50):
        tau = rng.randrange(0, 5)
        poly = ReducedPolynomial.random(tau, tau, seed=rng.randrange(10**6))
        again = ReducedPolynomial.parse(poly.to_text(), tau=tau)
        assert again == poly


def test_parse_examples():
    p = ReducedPolynomial.parse("X1*X3+X2+1")
    assert p.tau == 3
    assert p.monomials == frozenset(
        {frozenset({1, 3}), frozenset({2}), frozenset()}
    )
    assert ReducedPolynomial.parse("0").monomials == frozenset()
    assert ReducedPolynomial.parse("1").monomials == frozenset({frozenset()})
    assert ReducedPolynomial.parse(" X2 * X1 ") == ReducedPolynomial.make(
        2, [(1, 2)]
    )
    # duplicate monomials cancel over F2
    assert ReducedPolynomial.parse("X1+X1") == ReducedPolynomial.zero(1)
    assert ReducedPolynomial.parse("X1*X1") == ReducedPolynomial.make(1, [(1,)])


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        ReducedPolynomial.parse("X1**X2")
    assert info.value.column == 4
    with pytest.raises(ParseError) as info:
        ReducedPolynomial.parse("X1+X")
    assert info.value.column == 4
    with pytest.raises(ParseError) as info:
        ReducedPolynomial.parse("X1+?")
    assert info.value.column == 4
    with pytest.raises(ParseError) as info:
        ReducedPolynomial.parse("X1+")
    assert info.value.column == 3
    with pytest.raises(ParseError) as info:
        ReducedPolynomial.parse("X0")
    assert info.value.column == 1
    with pytest.raises(ParseError) as info:
        ReducedPolynomial.parse("X1+0")
    assert info.value.column == 4
    with pytest.raises(ParseError) as info:
        ReducedPolynomial.parse("X3", tau=2)
    assert info.value.column == 1
    with pytest.raises(ParseError):
        ReducedPolynomial.parse("   ")


@pytest.mark.parametrize(
    "text, column",
    [("X\u0661*X\u0662", 1), ("X\u00b2", 1), ("X1+x\uff13", 4), ("X1\u0663", 3)],
)
def test_parse_takes_ascii_index_digits_only(text, column):
    # str.isdigit would take these Arabic-Indic, superscript and fullwidth digits
    with pytest.raises(ParseError) as info:
        ReducedPolynomial.parse(text)
    assert info.value.column == column


def test_random_polynomials():
    a = ReducedPolynomial.random(4, 2, seed=9)
    b = ReducedPolynomial.random(4, 2, seed=9)
    assert a == b  # seed determinism
    for seed in range(200):
        p = ReducedPolynomial.random(5, 3, seed=seed)
        assert p.degree() <= 3
    drawn = {ReducedPolynomial.random(1, 1, seed=s) for s in range(200)}
    assert len(drawn) == 4  # all polynomials in X1


def test_compose_traces_examples():
    u = DefiningSet(F16, (3, 7))
    one = ReducedPolynomial.one(2)
    assert one.compose_traces(u) == BooleanFunction.constant(F16, 1)
    linear = ReducedPolynomial.make(2, [(1,)])
    assert linear.compose_traces(u) == BooleanFunction(
        F16, F16.linear_form_table(3)
    )
    with pytest.raises(FieldError):
        ReducedPolynomial.make(3, [(1, 2, 3)]).compose_traces(u)


def test_compose_is_xor_homomorphic():
    import random

    rng = random.Random(11)
    u = DefiningSet(F64, (5, 9, 17))
    for _ in range(20):
        f1 = ReducedPolynomial.random(3, 3, seed=rng.randrange(10**6))
        f2 = ReducedPolynomial.random(3, 3, seed=rng.randrange(10**6))
        assert (f1 ^ f2).compose_traces(u) == f1.compose_traces(u) ^ f2.compose_traces(u)


def test_composed_degree_with_independent_set():
    basis = DefiningSet(F64, (1, 2, 4))
    assert basis.is_linearly_independent()
    for monos, d in (([(1,)], 1), ([(1, 2)], 2), ([(1, 2, 3), (2,)], 3)):
        poly = ReducedPolynomial.make(3, monos)
        assert poly.compose_traces(basis).degree() == d == poly.degree()
    dependent = DefiningSet(F64, (1, 2, 3))
    assert not dependent.is_linearly_independent()
    cubic = ReducedPolynomial.make(3, [(1, 2, 3)])
    assert cubic.compose_traces(dependent).degree() <= 3


def test_compose_traces_degenerate_tau_zero():
    empty = DefiningSet(F16, ())
    assert ReducedPolynomial.one(0).compose_traces(empty) == BooleanFunction.constant(
        F16, 1
    )
    assert ReducedPolynomial.zero(0).compose_traces(empty) == BooleanFunction.zero(F16)


def test_apply_tables():
    u = DefiningSet(F16, (1, 2))
    poly = ReducedPolynomial.make(2, [(1, 2), (1,)])
    fs = [
        BooleanFunction(F16, F16.linear_form_table(1)),
        BooleanFunction(F16, F16.linear_form_table(2)),
    ]
    assert poly.apply_tables(F16, fs) == poly.compose_traces(u)


def test_defining_set_invariants():
    with pytest.raises(FieldError):
        DefiningSet(F16, (1, 1))
    ds = DefiningSet(F16, (7, 3))
    assert ds.canonical().elements == (3, 7)
    assert set(ds.span()) == {0, 3, 7, 4}
    assert DefiningSet(F16, (1, 2, 3)).is_linearly_independent() is False

"""One spectrum per distinct component: rows copied from a parent, packed
duals, and (P_tau) checked on every dual at once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentvec import (
    BooleanFunction,
    DefiningSet,
    FieldSpec,
    ReducedPolynomial,
    VectorialFunction,
    boolfun,
    gold_auto_u,
    gold_family,
    kasami_auto_u,
    kasami_family,
    niho_auto_u,
    niho_family,
    vectorial,
)
from bentvec.constructions import _p_tau_all_lambdas, _require_p_tau_for
from bentvec.errors import PreconditionError
from bentvec.propp import satisfies_p_planes
from oracles import naive_p_tau


def _family(name, n, t):
    field = FieldSpec.default(n)
    if name == "kasami":
        build, us, args = kasami_family, kasami_auto_u(field), ()
    elif name == "niho":
        build, us, args = niho_family, niho_auto_u(field), ({8: 3, 10: 2}[n],)
    else:
        build, us, args = gold_family, gold_auto_u(field), ()
    tails = tuple(
        ReducedPolynomial.random(len(us), len(us), seed=s) for s in range(t)
    )
    poly = ReducedPolynomial.make(2, [(1, 2)])
    return build(field, *args, us, poly, tail_polys=tails)


def _parentless(F):
    return VectorialFunction(F.field, F.m, F.values, F.extra, F.t)


@pytest.mark.parametrize(
    "name, n", [("kasami", 6), ("kasami", 8), ("niho", 8), ("niho", 10), ("gold", 8)]
)
@pytest.mark.parametrize("t", [0, 1])
def test_lifted_profiles_equal_parentless_copies(name, n, t):
    result = _family(name, n, t)
    assert result.report.ok
    G = result.G
    for F in (result.H, result.H_hat):
        if F is None:
            continue
        copy = _parentless(F)
        assert F.profile() == copy.profile()
        for (lam, v), cls, _ in copy.profile():
            if v == 0 and cls.kind == "bent":
                assert F.dual(lam) == copy.component(lam).dual()
    for lam, _ in G.selectors():
        assert G.dual(lam) == G.component(lam).dual()


def test_rows_are_copied_only_where_tables_agree():
    # G + g with g = 1 changes exactly the Tr(lambda) = 1 components, and
    # those are complemented: same class, degree kept, dual complemented
    field = FieldSpec.default(6)
    G = VectorialFunction.from_univariate(field, 3, [(1, 9)])
    G.profile()
    H = G.add_boolean(BooleanFunction.constant(field, 1))
    assert H.profile() == _parentless(H).profile()
    for lam, _ in G.selectors():
        same = field.subfield_abs_trace(lam, 3) == 0
        assert (H.dual(lam) == G.dual(lam)) == same
        assert (H.dual(lam) == G.dual(lam).complement()) != same


def test_dual_keeps_the_lone_function_errors():
    from bentvec import NotBentError
    from bentvec.errors import FieldError

    field = FieldSpec.default(4)
    F = VectorialFunction(field, 2, field.subfield(2)[np.arange(16) % 4])
    for lam in (0, 2):  # zero selector; 2 is not in F_4
        with pytest.raises(FieldError) as direct:
            F.component(lam)
        with pytest.raises(FieldError) as read:
            F.dual(lam)
        assert str(read.value) == str(direct.value)
    for lam, _ in F.selectors():
        with pytest.raises(NotBentError) as direct:
            F.component(lam).dual()
        with pytest.raises(NotBentError) as read:
            F.dual(lam)
        assert str(read.value) == str(direct.value)


def test_dual_planes_layout():
    field = FieldSpec.default(6)
    G = VectorialFunction.from_univariate(field, 3, [(1, 9)])
    lams = [lam for lam, _ in G.selectors()][::-1]
    planes = G.dual_planes(lams)
    assert planes.shape == (64, 1) and planes.dtype == np.uint8
    for c, lam in enumerate(lams):
        assert np.array_equal((planes[:, c // 8] >> (c % 8)) & 1, G.dual(lam).table)


def _planted_tables(data, n, count):
    """Quadratic tables (some pairs vanish, some do not), some with flipped
    points (every pair then fails, at a point of the flipped coset)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = np.arange(1 << n)
    tables = []
    for _ in range(count):
        table = np.zeros(1 << n, dtype=np.uint8)
        for _ in range(int(rng.integers(0, 3))):
            c1, c2 = rng.integers(0, 1 << n, size=2)
            table ^= (np.bitwise_count(x & c1) & np.bitwise_count(x & c2) & 1).astype(
                np.uint8
            )
        if rng.random() < 0.3:
            table[rng.integers(0, 1 << n, size=int(rng.integers(1, 3)))] ^= 1
        tables.append(table)
    return np.array(tables)


def _pack_planes(tables):
    """Bit c % 8 of column c // 8 is table c, built independently."""
    return np.packbits(tables, axis=0, bitorder="little").T.copy()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), count=st.integers(1, 20), data=st.data())
def test_packed_checks_match_the_definition(n, count, data):
    field = FieldSpec.default(n)
    tau = data.draw(st.integers(0, min(5, 1 << n)))
    us = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=tau, max_size=tau, unique=True)
    )
    tables = _planted_tables(data, n, count)
    checks = satisfies_p_planes(_pack_planes(tables), DefiningSet(field, us), count)
    assert [tuple(c) for c in checks] == [naive_p_tau(t, us) for t in tables]


class _Duals:
    """Stands in for a vectorial bent G whose nonzero lambdas have the given
    tables as duals."""

    def __init__(self, field, tables):
        self.field = field
        self.tables = dict(enumerate(tables, start=1))

    def selectors(self):
        return ((lam, 0) for lam in self.tables)

    def dual_planes(self, lams):
        return _pack_planes(np.array([self.tables[lam] for lam in lams]))


def _loop_gate(duals, defining, lambdas):
    """The per-dual gate: first failing lambda in order, its first pair."""
    for lam in lambdas:
        holds, pair, x = naive_p_tau(duals.tables[lam], defining.elements)
        if not holds:
            return (
                f"dual of component {lam:#x} violates (P_tau) on pair {pair} at x={x}"
            )
    return None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), count=st.integers(1, 12), data=st.data())
def test_packed_gate_matches_a_per_dual_loop(n, count, data):
    field = FieldSpec.default(n)
    us = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=4, unique=True)
    )
    defining = DefiningSet(field, us)
    duals = _Duals(field, _planted_tables(data, n, count))
    lambdas = tuple(
        sorted(data.draw(st.sets(st.sampled_from(sorted(duals.tables)), min_size=1)))
    )
    expected = _loop_gate(duals, defining, lambdas)
    for gate in (_require_p_tau_for, _p_tau_all_lambdas):
        if expected is None:
            gate(duals, defining, lambdas)
        else:
            with pytest.raises(PreconditionError) as info:
                gate(duals, defining, lambdas)
            assert str(info.value) == expected
    if expected is None:
        others = [lam for lam in duals.tables if lam not in lambdas]
        assert _p_tau_all_lambdas(duals, defining, lambdas) == (
            _loop_gate(duals, defining, others) is None
        )


def test_each_distinct_component_is_transformed_once(monkeypatch):
    # columns through fwht, forward and round trip, during one family run
    columns = []
    fwht = boolfun.fwht

    def counting(signs, **kwargs):
        out = fwht(signs, **kwargs)
        columns.append(out.size // out.shape[0])
        return out

    monkeypatch.setattr(boolfun, "fwht", counting)
    monkeypatch.setattr(vectorial, "fwht", counting)
    field = FieldSpec.default(8)
    m, t = 4, 1
    tail = (ReducedPolynomial.make(4, [(1, 2), (3, 4)]),)
    result = kasami_family(
        field, kasami_auto_u(field), ReducedPolynomial.make(2, [(1, 2)]), tail_polys=tail
    )
    assert result.report.ok and result.H_hat.t == t
    trace_one = sum(
        1 for lam in field.subfield(m) if lam and field.subfield_abs_trace(int(lam), m)
    )
    G_rows = (1 << m) - 1
    H_rows = trace_one
    hat_rows = (1 << m) * ((1 << t) - 1)
    assert sum(columns) == 2 * (G_rows + H_rows + hat_rows)

"""One spectrum per distinct component: rows copied from a parent, packed
duals read from a function's own transform, and (P_tau) checked on every
dual at once, in the Hadamard index."""

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
)
from bentvec.constructions import (
    _ClosedForm,
    _component_bits,
    _component_dual_check,
    _p_tau_all_lambdas,
    _require_p_tau_for,
)
from bentvec.errors import PreconditionError
from bentvec.gf2n import _walsh_permutation
from bentvec.propp import satisfies_p_packed
from dual_reader import read_duals
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


def _kept_dual(duals, F, lam):
    """The dual of (lambda, 0) that F's reader handed over, reindexed by
    field element."""
    return np.unpackbits(duals[lam], count=F.field.size)[_walsh_permutation(F.field)]


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
        assert F.profile() == _parentless(F).profile()
    _, duals = read_duals(G)
    for lam, _ in G.selectors():
        assert np.array_equal(_kept_dual(duals, G, lam), G.component(lam).dual().table)


def _n6_child():
    """G = x^9 over GF(2^6) into F_8, profiled, its child G + 1, and the
    duals of G's reader."""
    field = FieldSpec.default(6)
    G = VectorialFunction.from_univariate(field, 3, [(1, 9)])
    _, duals = read_duals(G)
    H = G.add_boolean(BooleanFunction.constant(field, 1))
    return G, H, duals


def test_rows_are_copied_only_where_tables_agree(monkeypatch):
    # G + g with g = 1 changes exactly the Tr(lambda) = 1 components, and
    # those are complemented: only their 4 rows are transformed, forward
    # and inverse
    _, H, _ = _n6_child()
    columns = _counted_columns(monkeypatch)
    rows = H.profile()
    assert sum(columns) == 8
    assert rows == _parentless(H).profile()


def test_a_child_that_keeps_duals_transforms_every_row(monkeypatch):
    # a child's reader copies no row from its parent: all 7 rows are
    # transformed, and the duals of the Tr(lambda) = 1 components come out
    # complemented, the others equal
    G, H, G_duals = _n6_child()
    columns = _counted_columns(monkeypatch)
    rows, H_duals = read_duals(H)
    assert sum(columns) == 14
    assert rows == _parentless(H).profile()
    field = H.field
    for lam, _ in G.selectors():
        same = field.subfield_abs_trace(lam, 3) == 0
        assert np.array_equal(H_duals[lam], G_duals[lam]) == same
        assert np.array_equal(H_duals[lam], ~G_duals[lam]) != same
        assert np.array_equal(_kept_dual(H_duals, H, lam), H.component(lam).dual().table)


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
    # the dual check reads no dual of a component that is not bent, and
    # raises the lone function's error at the first one
    first = next(F.selectors())[0]
    with pytest.raises(NotBentError) as direct:
        F.component(first).dual()
    with pytest.raises(NotBentError) as read:
        _component_dual_check(F, _ClosedForm(int, _component_bits(F, 0)))
    assert str(read.value) == str(direct.value)


def test_packed_dual_layout():
    field = FieldSpec.default(6)
    G = VectorialFunction.from_univariate(field, 3, [(1, 9)])
    perm = _walsh_permutation(field)
    rows = G.profile()
    # read after profile(): G is transformed again, with the same rows
    assert read_duals(G)[0] == rows
    _, duals = read_duals(G)
    assert sorted(duals) == [lam for lam, _ in G.selectors()]
    for lam, _ in G.selectors():
        bits = duals[lam]
        assert bits.shape == (8,) and bits.dtype == np.uint8 and not bits.flags.writeable
        # the dual at x is bit 7 - h % 8 of byte h // 8, h = perm[x]
        marks = (bits[perm >> 3] >> (7 - (perm & 7))) & 1
        assert np.array_equal(marks, G.component(lam).dual().table)


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


def _pack_rows(tables, field):
    """Each table packed in the Hadamard index: bit h is table[x], where
    perm[x] = h, built independently of the package's packing."""
    perm = _walsh_permutation(field)
    hadamard = np.empty_like(tables)
    hadamard[:, perm] = tables
    return list(np.packbits(hadamard, axis=1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), count=st.integers(1, 20), data=st.data())
def test_packed_checks_match_the_definition(n, count, data):
    field = FieldSpec.default(n)
    tau = data.draw(st.integers(0, min(5, 1 << n)))
    us = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=tau, max_size=tau, unique=True)
    )
    tables = _planted_tables(data, n, count)
    want = [naive_p_tau(t, us) for t in tables]
    defining = DefiningSet(field, us)
    field_order = satisfies_p_packed(list(np.packbits(tables, axis=1)), defining)
    assert [tuple(c) for c in field_order] == want
    hadamard = satisfies_p_packed(_pack_rows(tables, field), defining, _walsh_permutation(field))
    assert [tuple(c) for c in hadamard] == want


class _Duals:
    """Stands in for a vectorial bent G whose nonzero lambdas have the given
    tables as duals, with the (P_tau) checks that the dual check gives for
    them."""

    def __init__(self, field, tables):
        self.field = field
        self.tables = dict(enumerate(tables, start=1))

    def selectors(self):
        return ((lam, 0) for lam in self.tables)

    def checks(self, defining):
        bits = _pack_rows(np.array(list(self.tables.values())), self.field)
        checks = satisfies_p_packed(bits, defining, _walsh_permutation(self.field))
        return dict(zip(self.tables, checks))


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
    checks = duals.checks(defining)
    for gate in (_require_p_tau_for, _p_tau_all_lambdas):
        if expected is None:
            gate(duals, defining, lambdas, checks)
        else:
            with pytest.raises(PreconditionError) as info:
                gate(duals, defining, lambdas, checks)
            assert str(info.value) == expected
    if expected is None:
        others = [lam for lam in duals.tables if lam not in lambdas]
        assert _p_tau_all_lambdas(duals, defining, lambdas, checks) == (
            _loop_gate(duals, defining, others) is None
        )


def _counted_columns(monkeypatch):
    """The columns through fwht, forward and round trip, from now on."""
    columns = []
    fwht = boolfun.fwht

    def counting(signs, **kwargs):
        out = fwht(signs, **kwargs)
        columns.append(out.size // out.shape[0])
        return out

    monkeypatch.setattr(boolfun, "fwht", counting)
    return columns


def test_each_distinct_component_is_transformed_once(monkeypatch):
    columns = _counted_columns(monkeypatch)
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


def test_niho_with_deg_f_k_transforms_g_once(monkeypatch):
    # deg F = k makes niho_family read deg G, from G's coordinates, before
    # the dual check profiles G
    field = FieldSpec.default(8)
    k = 4
    poly = ReducedPolynomial.make(k, [(1, 2, 3, 4)])
    columns = _counted_columns(monkeypatch)
    result = niho_family(field, 3, niho_auto_u(field), poly)
    assert result.report.ok
    trace_one = sum(
        1 for lam in field.subfield(k) if lam and field.subfield_abs_trace(int(lam), k)
    )
    assert sum(columns) == 2 * (((1 << k) - 1) + trace_one)

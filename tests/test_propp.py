"""Property (P_tau): checks, closure, equivalence, search."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import bentvec

from bentvec import (
    BooleanFunction,
    DefiningSet,
    FieldSpec,
    VectorialFunction,
    find_defining_sets,
    product_shift,
    satisfies_p,
    shift_decomposition,
    span_closure,
)
from bentvec.errors import PreconditionError, VerificationError
from bentvec.fileio import write_bf
from oracles import naive_p_tau

F4 = FieldSpec.default(2)
F16 = FieldSpec.default(4)
F64 = FieldSpec.default(6)


def kasami_dual(field, lam=1):
    k = field.n // 2
    G = VectorialFunction.from_univariate(field, k, [(1, (1 << k) + 1)])
    return G.component(lam).dual()


def kasami_rho_set(field, tau=None):
    """u_i = rho_i v with rho a subfield basis and v on the unit circle."""
    k = field.n // 2
    rho = field.subfield_basis(k)
    v = int(min(x for x in field.unit_circle() if x != 1))
    us = [field.mul(r, v) for r in rho]
    return DefiningSet(field, tuple(us[: tau or k]))


def affine(field, u, c=0):
    return BooleanFunction(field, field.linear_form_table(u) ^ (c & 1))


def random_function(field, rng):
    return BooleanFunction(field, rng.integers(0, 2, size=field.size))


def test_affine_satisfies_everything():
    rng = np.random.default_rng(1)
    g = affine(F64, 37, 1)
    for _ in range(5):
        us = tuple(int(u) for u in rng.choice(63, size=4, replace=False) + 1)
        ds = DefiningSet(F64, us)
        assert satisfies_p(g, ds).holds
        assert span_closure(g, ds)
        assert shift_decomposition(g, ds).holds


def test_kasami_dual_satisfies_p():
    ds = kasami_rho_set(F16, tau=2)
    g = kasami_dual(F16)
    assert satisfies_p(g, ds).holds
    assert span_closure(g, ds)
    # and at n = 6 with the full tau = k set
    ds6 = kasami_rho_set(F64)
    assert satisfies_p(kasami_dual(F64), ds6).holds
    assert span_closure(kasami_dual(F64), ds6)


def test_and_function_fails_with_witness():
    g = BooleanFunction(F4, [0, 0, 0, 1])
    check = satisfies_p(g, DefiningSet(F4, (1, 2)))
    assert not check.holds
    assert check.pair == (1, 2)
    # the violating second derivative is the constant 1: any x witnesses
    assert g.second_derivative(1, 2).table.all()
    assert check.witness == 0


def test_tau_below_two_is_vacuous():
    rng = np.random.default_rng(3)
    g = random_function(F16, rng)
    assert satisfies_p(g, DefiningSet(F16, (5,))).holds
    assert satisfies_p(g, DefiningSet(F16, ())).holds


def test_span_closure_requires_precondition():
    g = BooleanFunction(F4, [0, 0, 0, 1])
    with pytest.raises(PreconditionError):
        span_closure(g, DefiningSet(F4, (1, 2)))


def test_span_closure_agrees_with_the_naive_check_on_the_whole_span():
    # the Kasami dual (quadratic) and a sparse cubic, each with the first
    # few satisfying defining sets of size 2 and 3
    rng = np.random.default_rng(12)
    checked = 0
    for n in (4, 6, 8):
        field = FieldSpec.default(n)
        cubic = BooleanFunction.from_anf(
            field,
            [set((rng.choice(n, size=d, replace=False) + 1).tolist()) for d in (2, 3, 3)],
        )
        for g in (kasami_dual(field), cubic):
            for tau in (2, 3):
                for ds in find_defining_sets(g, tau, limit=3):
                    holds, pair, _ = naive_p_tau(g.table, ds.span())
                    assert span_closure(g, ds) == holds, (n, ds.elements, pair)
                    checked += 1
    assert checked == 3 * 2 * 2 * 3


def test_shift_decomposition_equals_satisfies_p():
    rng = np.random.default_rng(5)
    corpus = []
    for _ in range(30):
        corpus.append((random_function(F16, rng), _random_set(F16, rng, 2)))
        corpus.append((random_function(F64, rng), _random_set(F64, rng, 3)))
    corpus.append((kasami_dual(F16), kasami_rho_set(F16, tau=2)))
    corpus.append((affine(F64, 9), _random_set(F64, rng, 4)))
    for g, ds in corpus:
        assert shift_decomposition(g, ds).holds == satisfies_p(g, ds).holds


def test_shift_decomposition_witness():
    g = BooleanFunction(F4, [0, 0, 0, 1])
    check = shift_decomposition(g, DefiningSet(F4, (1, 2)))
    assert not check.holds
    assert check.weights == (1, 1)  # fails only when both shifts engage


def test_permutation_and_subset_invariance():
    g = kasami_dual(F64)
    ds = kasami_rho_set(F64)
    for perm in itertools.permutations(ds.elements):
        assert satisfies_p(g, DefiningSet(F64, perm)).holds
    for size in range(len(ds.elements) + 1):
        for subset in itertools.combinations(ds.elements, size):
            assert satisfies_p(g, DefiningSet(F64, subset)).holds


def test_product_shift():
    g = kasami_dual(F16)
    ds = kasami_rho_set(F16, tau=2)
    assert product_shift(g, ds, 0) == g  # g * g = g
    b = ds.elements[0] ^ ds.elements[1]
    h = product_shift(g, ds, b)
    assert satisfies_p(h, ds).holds
    assert h == g & g.shift(b)
    aff = affine(F64, 21)
    ds6 = kasami_rho_set(F64)
    for b in ds6.span():
        assert satisfies_p(product_shift(aff, ds6, b), ds6).holds
    outside = next(x for x in range(16) if x not in set(ds.span()))
    with pytest.raises(PreconditionError):
        product_shift(g, ds, outside)


def test_product_shift_failure_names_pair_and_witness(monkeypatch):
    # a shift that returns an unrelated function makes h lose (P_tau); the
    # message names the first failing pair and, as _require_p does, its least x
    g = affine(F64, 21)
    ds = kasami_rho_set(F64)
    other = random_function(F64, np.random.default_rng(6))
    monkeypatch.setattr(BooleanFunction, "shift", lambda self, a: other)
    h = (g & other).table
    us = ds.elements
    xs = np.arange(F64.size)
    failures = [
        ((i + 1, j + 1), int(np.flatnonzero(dd)[0]))
        for i, j in itertools.combinations(range(len(us)), 2)
        if (dd := h ^ h[xs ^ us[i]] ^ h[xs ^ us[j]] ^ h[xs ^ us[i] ^ us[j]]).any()
    ]
    assert failures
    pair, x = failures[0]
    with pytest.raises(VerificationError) as err:
        product_shift(g, ds, 0)
    assert str(err.value) == f"product shift broke (P_tau) on pair {pair} at x={x}"


def test_find_defining_sets_affine_truncates():
    g = affine(F16, 3)
    sets = find_defining_sets(g, 2, limit=10)
    assert len(sets) == 10  # every pair qualifies, output truncated
    assert sets[0].elements == (1, 2)  # lexicographic order
    assert all(satisfies_p(g, ds).holds for ds in sets)


def test_find_defining_sets_kasami():
    g = kasami_dual(F16)
    sets = find_defining_sets(g, 2)
    expected = kasami_rho_set(F16, tau=2).canonical().elements
    assert expected in [ds.elements for ds in sets]
    for ds in sets:
        assert satisfies_p(g, ds).holds
    # completeness: brute force over all pairs
    brute = [
        (a, b)
        for a in range(1, 16)
        for b in range(a + 1, 16)
        if satisfies_p(g, DefiningSet(F16, (a, b))).holds
    ]
    assert brute == [ds.elements for ds in sets]


def test_find_defining_sets_empty_result():
    # bent functions on 4 variables are quadratic with nondegenerate
    # symplectic form, so they always admit vanishing pairs; a function
    # with an empty pair graph must be non-bent (degree 3 helps)
    rng = np.random.default_rng(0)
    g = None
    for _ in range(200):
        cand = random_function(F16, rng)
        if not find_defining_sets(cand, 2, limit=1):
            g = cand
            break
    assert g is not None
    assert find_defining_sets(g, 2) == []
    assert find_defining_sets(g, 3, limit=5) == []


def test_find_defining_sets_candidate_pool_and_budget():
    g = affine(F16, 7)
    pool = [1, 2, 3, 4]
    sets = find_defining_sets(g, 3, candidates=pool)
    assert [ds.elements for ds in sets] == [
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)
    ]
    with pytest.raises(PreconditionError):
        find_defining_sets(g, 2, node_budget=3)
    with pytest.raises(PreconditionError):
        find_defining_sets(g, 1)


def test_find_defining_sets_limit_bounds_the_work(monkeypatch):
    # the unit of work is an expanded node, one fwht pair that gives its
    # edges to every field element: with limit=1 the first node's first
    # edge is the first set, so only that node is expanded
    import bentvec.propp as propp

    calls = []
    fwht = propp.fwht

    def counting(a):
        calls.append(a.shape)
        return fwht(a)

    monkeypatch.setattr(propp, "fwht", counting)
    g = kasami_dual(FieldSpec.default(8))
    sets = find_defining_sets(g, 2, limit=1)
    assert len(sets) == 1 and satisfies_p(g, sets[0]).holds
    assert calls == [(256,), (256,)]


@pytest.mark.parametrize("n", range(1, 9))
def test_find_defining_sets_equals_brute_force(n):
    # random tables have few vanishing pairs and sparse low-degree ANFs
    # many, so the pair graphs range from empty to dense; pools come in any
    # order and may repeat an element or hold 0, an edge of every element
    field = FieldSpec.default(n)
    rng = np.random.default_rng(100 + n)
    for kind in ("table", "anf"):
        if kind == "table":
            g = random_function(field, rng)
        else:
            g = BooleanFunction.from_anf(field, [
                set((rng.choice(n, size=min(d, n), replace=False) + 1).tolist())
                for d in rng.integers(1, 4, size=3)
            ])
        table = g.table.tolist()
        pools = [None] if kind == "table" or n <= 4 else []
        for with_zero in (False, True):
            pool = rng.choice(field.size, size=min(field.size, 14), replace=False)
            pool = [int(u) for u in pool if u or with_zero] + ([0] if with_zero else [])
            pools.append(pool + pool[:2])
        for candidates in pools:
            pool = sorted(set(range(1, field.size) if candidates is None else candidates))
            # cliques[k]: the (k + 1)-subsets of the pool whose pairs all vanish
            cliques = [[(u,) for u in pool]]
            for tau in (2, 3):
                if candidates is None and n > 6 and tau == 3:
                    continue  # C(255, 3) naive checks
                brute = [
                    c for c in itertools.combinations(pool, tau)
                    if naive_p_tau(table, c)[0]
                ]
                found = find_defining_sets(g, tau, candidates=candidates)
                assert [ds.elements for ds in found] == brute, (kind, candidates, tau)
                cliques.append(brute)
                # the search visits every clique of sizes 1 to tau once
                nodes = sum(map(len, cliques))
                assert find_defining_sets(g, tau, candidates, node_budget=nodes) == found
                if nodes:
                    with pytest.raises(PreconditionError, match=f"budget {nodes - 1}$"):
                        find_defining_sets(g, tau, candidates, node_budget=nodes - 1)


def _tr_x3(n):
    return BooleanFunction.from_univariate(FieldSpec.default(n), [(1, 3)])


@pytest.mark.parametrize(
    "flags, code, out, err",
    [
        (["--node-budget", "1"], 2, "",
         "error: defining-set search exceeded node budget 1\n"),
        ([], 0,
         "1,2\nfound 1 defining set(s) of size 2 (truncated at limit; more may exist)\n",
         ""),
    ],
)
def test_search_bounds_hold_at_n20(tmp_path, flags, code, out, err):
    # the first node's edges take one fwht pair of 2^20 entries, where a
    # loop over its 2^20 - 2 later pool elements printed nothing in 60 s
    write_bf(tmp_path / "f.bf", _tr_x3(20))
    src = os.path.dirname(os.path.dirname(bentvec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bentvec.cli", "propp", "f.bf",
         "--search", "2", "--limit", "1", *flags],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_a_limited_search_stays_within_four_columns():
    # the pool, one spectrum, the first node's edges and its children, each
    # at most 2^n int64 entries: 1.5 MB traced at n = 16
    g = _tr_x3(16)
    tracemalloc.start()
    try:
        sets = find_defining_sets(g, 2, limit=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [ds.elements for ds in sets] == [(1, 2)]
    assert peak <= 4 * 8 << 16


def _random_set(field, rng, tau):
    us = rng.choice(field.size - 1, size=tau, replace=False) + 1
    return DefiningSet(field, tuple(int(u) for u in us))

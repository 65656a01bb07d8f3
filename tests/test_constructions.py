"""Secondary constructions and the three families, claim by claim."""

import numpy as np
import pytest

from bentvec import (
    BooleanFunction,
    DefiningSet,
    FieldSpec,
    ReducedPolynomial,
    VectorialFunction,
    bent_plus_cubic_trace,
    bent_plus_quadratic_trace,
    gold_auto_u,
    gold_family,
    kasami_auto_u,
    kasami_family,
    niho_auto_u,
    niho_exponents,
    niho_family,
    remark_multi_trace,
    satisfies_p,
    sigma_combine,
    tang_bent,
    vec_bent_lift,
    vec_plateaued_lift,
)
from bentvec.constructions import _inverse_masks, _tail_profile, _trace_one_lambdas
from bentvec.errors import FieldError, PreconditionError, VerificationError
from bentvec.propp import satisfies_p_packed
from oracles import naive_tail_profile

F16 = FieldSpec.default(4)
F64 = FieldSpec.default(6)


def kasami_vf(field):
    k = field.n // 2
    return VectorialFunction.from_univariate(field, k, [(1, (1 << k) + 1)])


def trace_form(field, u):
    return BooleanFunction(field, field.linear_form_table(u))


def cubic_bent(field):
    """A degree-3 bent function: Kasami component lifted by X1*X2*X3."""
    us = kasami_auto_u(field)
    ds = DefiningSet(field, tuple(us[:3]))
    g = kasami_vf(field).component(1)
    return tang_bent(g, ds, ReducedPolynomial.make(3, [(1, 2, 3)])).function


# -- sigma combiner -----------------------------------------------------------


def test_sigma_combine_shifted_family_all_outcomes():
    # f_i = f + Tr(a_i x): sigma = f + sum of pairwise trace products
    f = kasami_vf(F16).component(1)
    kinds = set()
    rng = np.random.default_rng(4)
    while len(kinds) < 2:
        a = rng.choice(16, size=3, replace=False)
        fs = [f ^ trace_form(F16, int(ai)) for ai in a]
        if fs[0] == fs[1] or fs[0] == fs[2] or fs[1] == fs[2]:
            continue
        result = sigma_combine(*fs)
        assert result.ok
        kinds.add(result.predicted_kind)
        # the prediction rule comes from the dual-sum second derivative
        dd = f.dual().second_derivative(int(a[0]) ^ int(a[1]), int(a[0]) ^ int(a[2]))
        expected = (
            "bent" if not dd.table.any() else
            "semi-bent" if dd.table.all() else "mixed"
        )
        assert result.predicted_kind == expected
    assert kinds == {"bent", "semi-bent"}  # quadratic duals never give mixed


def test_sigma_combine_mixed_outcome():
    f = cubic_bent(F64)
    rng = np.random.default_rng(8)
    seen_mixed = False
    for _ in range(100):
        a = rng.choice(64, size=3, replace=False)
        fs = [f ^ trace_form(F64, int(ai)) for ai in a]
        result = sigma_combine(*fs)
        assert result.ok
        if result.predicted_kind == "mixed":
            assert result.verified.abs_values == (0, 8, 16)
            seen_mixed = True
            break
    assert seen_mixed


def test_sigma_combine_dual_formula():
    f = kasami_vf(F16).component(1)
    fs = [f ^ trace_form(F16, a) for a in (1, 2, 4)]
    result = sigma_combine(*fs)
    if result.predicted_kind == "bent":
        duals = [g.dual() for g in fs]
        from bentvec import sigma_of

        assert result.dual_verified == sigma_of(*duals)


def test_sigma_combine_preconditions():
    f = kasami_vf(F16).component(1)
    with pytest.raises(PreconditionError):
        sigma_combine(f, f, f ^ trace_form(F16, 1))
    nonbent = BooleanFunction.zero(F16)
    with pytest.raises(PreconditionError) as info:
        sigma_combine(nonbent, f ^ trace_form(F16, 1), f ^ trace_form(F16, 2))
    assert "not bent" in str(info.value)


# -- quadratic and cubic trace products ---------------------------------------


def test_quadratic_trace_b_zero_gives_f():
    f = kasami_vf(F16).component(1)
    result = bent_plus_quadratic_trace(f, 5, 0)
    assert result.function == f
    assert result.predicted_kind == "bent" and result.ok
    assert result.dual_verified == f.dual()


def test_quadratic_trace_kasami_pairs_exhaustive_n4():
    f = kasami_vf(F16).component(1)
    dual = f.dual()
    outcomes = set()
    for a in range(16):
        for b in range(16):
            if a == b:
                continue
            result = bent_plus_quadratic_trace(f, a, b)
            assert result.ok
            outcomes.add(result.predicted_kind)
            if result.predicted_kind == "bent":
                # closed dual: majority of f*, f*(x+a), f*(x+b)
                from bentvec import sigma_of

                assert result.dual_verified == sigma_of(
                    dual, dual.shift(a), dual.shift(b)
                )
    assert outcomes == {"bent", "semi-bent"}


def test_quadratic_trace_mixed_on_cubic_bent():
    f = cubic_bent(F64)
    dual = f.dual()
    found = None
    for a in range(1, 64):
        for b in range(a + 1, 64):
            dd = dual.second_derivative(a, b)
            if dd.table.any() and not dd.table.all():
                found = (a, b)
                break
        if found:
            break
    assert found
    result = bent_plus_quadratic_trace(f, *found)
    assert result.predicted_kind == "mixed" and result.ok
    assert result.verified.abs_values == (0, 8, 16)


def test_quadratic_trace_rejects_equal_points():
    f = kasami_vf(F16).component(1)
    with pytest.raises(PreconditionError):
        bent_plus_quadratic_trace(f, 3, 3)


def test_cubic_trace_kasami_dependent_triple():
    # tau = 2 at n = 4: use a dependent triple a + b + c = 0 inside the span
    us = kasami_auto_u(F16)
    a, b = us[0], us[1]
    c = a ^ b
    f = kasami_vf(F16).component(1)
    result = bent_plus_cubic_trace(f, a, b, c)
    assert result.ok
    assert result.function.is_bent()


def test_cubic_trace_independent_triple_n6():
    us = kasami_auto_u(F64)
    f = kasami_vf(F64).component(1)
    result = bent_plus_cubic_trace(f, us[0], us[1], us[2])
    assert result.ok
    dual = f.dual()
    gs = [dual.derivative(u) for u in us[:3]]
    assert result.dual_verified == dual ^ (gs[0] & gs[1] & gs[2])


def test_cubic_trace_precondition_names_pair():
    f = kasami_vf(F16).component(1)
    dual = f.dual()
    bad = None
    for a in range(1, 16):
        for b in range(a + 1, 16):
            if dual.second_derivative(a, b).table.any():
                bad = (a, b)
                break
        if bad:
            break
    with pytest.raises(PreconditionError) as info:
        bent_plus_cubic_trace(f, bad[0], bad[1], bad[0] ^ bad[1] ^ 15)
    assert "pair" in str(info.value)


def test_cubic_trace_precondition_names_the_one_failing_pair():
    f = kasami_vf(F16).component(1)
    dual = f.dual()

    def vanishes(x, y):
        return not dual.second_derivative(x, y).table.any()

    # x, y fail; z vanishes against both
    x, y, z = next(
        (x, y, z)
        for x in range(1, 16)
        for y in range(1, 16)
        for z in range(1, 16)
        if len({x, y, z}) == 3 and not vanishes(x, y) and vanishes(x, z) and vanishes(y, z)
    )
    for triple, name in (((x, y, z), "(a,b)"), ((x, z, y), "(a,c)"), ((z, x, y), "(b,c)")):
        with pytest.raises(PreconditionError) as info:
            bent_plus_cubic_trace(f, *triple)
        assert str(info.value) == (
            f"second derivative of the dual does not vanish on pair {name}"
        )


# -- Tang-style lift -----------------------------------------------------------


def test_tang_bent_zero_polynomial_is_identity():
    g = kasami_vf(F16).component(1)
    ds = DefiningSet(F16, tuple(kasami_auto_u(F16)[:2]))
    result = tang_bent(g, ds, ReducedPolynomial.zero(2))
    assert result.function == g
    assert result.dual_verified == g.dual() == result.dual_predicted


def test_tang_bent_single_variable_shifts_dual():
    g = kasami_vf(F16).component(1)
    u1 = kasami_auto_u(F16)[0]
    ds = DefiningSet(F16, (u1,))
    result = tang_bent(g, ds, ReducedPolynomial.make(1, [(1,)]))
    assert result.function == g ^ trace_form(F16, u1)
    assert result.dual_verified == g.dual().shift(u1)
    assert result.ok


def test_tang_bent_kasami_instance():
    g = kasami_vf(F16).component(1)
    ds = DefiningSet(F16, tuple(kasami_auto_u(F16)[:2]))
    result = tang_bent(g, ds, ReducedPolynomial.make(2, [(1, 2)]))
    assert result.ok and result.function.is_bent()


def test_tang_bent_error_identification():
    ds = DefiningSet(F16, (1, 2))
    with pytest.raises(PreconditionError) as info:
        tang_bent(BooleanFunction.zero(F16), ds, ReducedPolynomial.zero(2))
    assert "not bent" in str(info.value)
    g = kasami_vf(F16).component(1)
    bad = None
    for a in range(1, 16):
        for b in range(a + 1, 16):
            if not satisfies_p(g.dual(), DefiningSet(F16, (a, b))).holds:
                bad = (a, b)
                break
        if bad:
            break
    with pytest.raises(PreconditionError) as info:
        tang_bent(g, DefiningSet(F16, bad), ReducedPolynomial.make(2, [(1, 2)]))
    assert "(P_tau)" in str(info.value)
    with pytest.raises(PreconditionError):
        tang_bent(g, DefiningSet(F16, (1, 2, 3)), ReducedPolynomial.make(3, [(1,)]))


def test_remark_multi_trace_matches_cubic():
    us = kasami_auto_u(F64)[:3]
    f = kasami_vf(F64).component(1)
    via_remark = remark_multi_trace(
        f, us[0], us[1], us[2], ReducedPolynomial.make(3, [(1, 2, 3)])
    )
    via_cubic = bent_plus_cubic_trace(f, us[0], us[1], us[2])
    assert via_remark.function == via_cubic.function
    assert via_remark.dual_verified == via_cubic.dual_verified
    identity = remark_multi_trace(f, us[0], us[1], us[2], ReducedPolynomial.zero(3))
    assert identity.function == f


# -- vectorial lifts --------------------------------------------------------------


def test_vec_bent_lift_zero_poly():
    G = kasami_vf(F16)
    ds = DefiningSet(F16, tuple(kasami_auto_u(F16)[:2]))
    lift = vec_bent_lift(G, ds, ReducedPolynomial.zero(2))
    assert lift.H == G and lift.ok


def test_vec_bent_lift_kasami():
    G = kasami_vf(F16)
    ds = DefiningSet(F16, tuple(kasami_auto_u(F16)[:2]))
    lift = vec_bent_lift(G, ds, ReducedPolynomial.make(2, [(1, 2)]))
    assert lift.ok and lift.check.ok
    # untouched components: Tr(lambda) = 0 selectors keep G_lambda
    for lam in (int(x) for x in F16.subfield(2) if x):
        if F16.subfield_abs_trace(lam, 2) == 0:
            assert lift.H.component(lam) == G.component(lam)


def test_vec_bent_lift_rejects_bad_defining_set():
    G = kasami_vf(F16)
    bad = None
    for a in range(1, 16):
        for b in range(a + 1, 16):
            ds = DefiningSet(F16, (a, b))
            if not all(
                satisfies_p(G.component(lam).dual(), ds).holds
                for lam in (1, 6, 7)
                if F16.subfield_abs_trace(lam, 2) == 1
            ):
                bad = ds
                break
        if bad:
            break
    with pytest.raises(PreconditionError) as info:
        vec_bent_lift(G, bad, ReducedPolynomial.make(2, [(1, 2)]))
    assert "component" in str(info.value)


def test_theorem_iff_H_bent_vs_trace_one_components():
    # both sides computed independently, corpus includes failing g's
    rng = np.random.default_rng(31)
    G = kasami_vf(F16)
    lambdas = [
        int(lam)
        for lam in F16.subfield(2)
        if lam and F16.subfield_abs_trace(int(lam), 2) == 1
    ]
    gs = [BooleanFunction(F16, rng.integers(0, 2, size=16)) for _ in range(40)]
    ds = DefiningSet(F16, tuple(kasami_auto_u(F16)[:2]))
    gs.append(ReducedPolynomial.make(2, [(1, 2)]).compose_traces(ds))
    hits = {True: 0, False: 0}
    for g in gs:
        H = G.add_boolean(g)
        lhs = H.is_vectorial_bent().ok
        rhs = all((G.component(lam) ^ g).is_bent() for lam in lambdas)
        assert lhs == rhs
        hits[lhs] += 1
    assert hits[True] >= 1 and hits[False] >= 1


def test_trace_one_lambdas_match_the_subfield_trace():
    fields = [FieldSpec.default(n) for n in range(1, 17)] + [
        FieldSpec.with_least_generator(4, 0x19),
        FieldSpec.with_least_generator(8, 0x11B),
        FieldSpec.with_least_generator(16, 0x1002D),
    ]
    for field in fields:
        for m in (m for m in range(1, field.n + 1) if field.n % m == 0):
            sub = field.subfield(m)
            if m <= 12:
                traces = [field.subfield_abs_trace(int(lam), m) for lam in sub]
            else:
                # the same sum y + y^2 + ... + y^(2^(m-1)), elementwise
                traces, y = np.zeros_like(sub), sub
                for _ in range(m):
                    traces ^= y
                    y = field.mul_elems(y, y)
            expected = tuple(int(lam) for lam, tr in zip(sub, traces) if tr == 1)
            assert _trace_one_lambdas(field, m) == expected, (field, m)


@pytest.mark.parametrize("family", ["kasami", "gold"])
def test_tail_profile_matches_bundle_by_bundle_oracle(family):
    field = FieldSpec.default(8)
    if family == "kasami":
        us = kasami_auto_u(field)
        G = kasami_vf(field)
    else:
        us = gold_auto_u(field)
        G = gold_family(field, us, ReducedPolynomial.zero(len(us))).G
    ds = DefiningSet(field, tuple(us))
    rng = np.random.default_rng(12)
    verdicts = set()
    for t in (1, 2, 3):
        # quadratic tails are plateaued; at kasami's tau = 4 degree 4 is not
        for degree in (2, ds.tau):
            polys = [
                ReducedPolynomial.random(ds.tau, degree, int(rng.integers(1 << 30)))
                for _ in range(t)
            ]
            plat = vec_plateaued_lift(G, ds, polys)
            ok, amplitudes = naive_tail_profile(field, plat.tail)
            assert (plat.tail_plateaued, plat.tail_amplitudes) == (ok, amplitudes)
            assert _tail_profile(plat.H_hat) == (ok, amplitudes)
            assert plat.iff_ok
            verdicts.add(ok)
    if family == "kasami":
        assert verdicts == {True, False}


def test_vec_plateaued_lift_one_p_tau_pass(monkeypatch):
    import bentvec.constructions as constructions

    G = kasami_vf(F16)
    polys = (ReducedPolynomial.make(2, [(1, 2)]),)
    bad = DefiningSet(F16, (1, 2))
    with pytest.raises(PreconditionError) as gate:
        vec_bent_lift(G, bad, polys[0])
    with pytest.raises(PreconditionError) as lift:
        vec_plateaued_lift(G, bad, polys)
    assert str(lift.value) == str(gate.value)
    # one dual check per nonzero selector, gate included: one packed pass
    # with one row per dual
    calls = []

    def counting(bits, defining, order):
        calls.append(len(bits))
        return satisfies_p_packed(bits, defining, order)

    monkeypatch.setattr(constructions, "satisfies_p_packed", counting)
    ds = DefiningSet(F16, tuple(kasami_auto_u(F16)))
    assert vec_plateaued_lift(G, ds, polys).p_tau_all
    assert calls == [3]


def test_vec_plateaued_lift_quadratic_tail():
    G = kasami_vf(F16)
    ds = DefiningSet(F16, tuple(kasami_auto_u(F16)))
    polys = (ReducedPolynomial.make(2, [(1, 2)]),)
    plat = vec_plateaued_lift(G, ds, polys)
    assert plat.ok and plat.iff_ok
    assert plat.tail_plateaued and plat.hat_check.ok
    assert plat.p_tau_all
    assert plat.bent_count == plat.bent_count_predicted == 6  # 2^(1+2) - 2^1
    assert plat.bent_count_bound == 6


def test_vec_plateaued_lift_linear_tail():
    G = kasami_vf(F16)
    ds = DefiningSet(F16, tuple(kasami_auto_u(F16)))
    plat = vec_plateaued_lift(G, ds, (ReducedPolynomial.make(2, [(1,)]),))
    assert plat.ok and plat.tail_plateaued and plat.hat_check.ok


def test_vec_plateaued_lift_mixed_tail_iff():
    # cubic tail at n = 6 produces a mixed component; the iff must agree
    G = kasami_vf(F64)
    ds = DefiningSet(F64, tuple(kasami_auto_u(F64)))
    cubic = ReducedPolynomial.make(3, [(1, 2, 3)])
    plat = vec_plateaued_lift(G, ds, (cubic,))
    assert not plat.tail_plateaued
    assert not plat.hat_check.ok
    assert plat.iff_ok and plat.ok


# -- families ----------------------------------------------------------------------


def test_kasami_family_report():
    for field in (F16, F64):
        us = kasami_auto_u(field)
        k = field.n // 2
        poly = ReducedPolynomial.make(2, [(1, 2)])
        result = kasami_family(field, us, poly)
        rep = result.report
        assert rep.ok and rep.class_match and rep.dual_match
        assert rep.verified_class == f"vectorial bent ({field.n},{k})"
        assert rep.degree_predicted == 2 and rep.degree_measured == 2
        assert rep.bent_components_measured == (1 << k) - 1


def test_kasami_family_u_condition_violation():
    # u = {1, alpha}: 1 * alpha^(2^k) is not in the subfield
    with pytest.raises(PreconditionError) as info:
        kasami_family(F16, [1, 2], ReducedPolynomial.make(2, [(1, 2)]))
    assert "(1,2)" in str(info.value)


def test_kasami_family_degree_claim_various_d():
    us = kasami_auto_u(F64)
    for monos, d in (([(1, 2, 3)], 3), ([(1, 2), (3,)], 2)):
        result = kasami_family(F64, us, ReducedPolynomial.make(3, monos))
        assert result.report.degree_predicted == d
        assert result.report.degree_measured == d
        assert result.report.ok


def test_niho_family_report():
    assert niho_exponents(6, 2) == [22, 36, 50]
    us = niho_auto_u(F64)
    result = niho_family(F64, 2, us, ReducedPolynomial.make(3, [(1, 2), (3,)]))
    rep = result.report
    assert rep.ok and rep.dual_match and rep.class_match
    assert rep.verified_class == "vectorial bent (6,3)"
    assert rep.r == 2
    # G is subfield-valued by construction (constructor would reject otherwise)
    sub = set(int(x) for x in F64.subfield(3))
    assert all(int(y) in sub for y in result.G.values)


def test_niho_family_degree_clause():
    # at n=6, r=2 the exponent 22 has weight 3, so deg G = k and the
    # degree-k clause does not engage even with a degree-k polynomial
    us = niho_auto_u(F64)
    result = niho_family(F64, 2, us, ReducedPolynomial.make(3, [(1, 2, 3)]))
    assert result.G.degree() == 3
    assert result.report.degree_predicted is None
    assert result.report.degree_measured == 3
    assert result.report.ok
    # at n=10, r=2 the exponent weights stay at 3 < k = 5, so d = k fires it
    f1024 = FieldSpec.default(10)
    us10 = niho_auto_u(f1024)
    result = niho_family(
        f1024, 2, us10, ReducedPolynomial.make(5, [(1, 2, 3, 4, 5)])
    )
    assert result.G.degree() == 3
    assert result.report.degree_predicted == 5
    assert result.report.degree_measured == 5
    assert result.report.ok


def test_niho_dual_closed_form_is_u_independent():
    # the closed form picks some u with u + ubar = 1; the dual it produces
    # must not depend on which solution is taken
    from bentvec.constructions import _niho_dual_one

    n, r = 6, 2
    k = n // 2
    s = pow((1 << r) - 1, -1, (1 << k) - 1)
    solutions = [x for x in range(F64.size) if F64.trace(x, k) == 1]
    assert len(solutions) == 1 << k
    first = _niho_dual_one(F64, r, k, s, solutions[0])
    second = _niho_dual_one(F64, r, k, s, solutions[1])
    assert first == second


def test_niho_dual_rejects_argument_outside_subfield(monkeypatch):
    from bentvec.constructions import _niho_dual_one

    n, r = 6, 2
    k = n // 2
    s = pow((1 << r) - 1, -1, (1 << k) - 1)
    u = next(x for x in range(F64.size) if F64.trace(x, k) == 1)
    mul_elems = FieldSpec.mul_elems

    def shifted(self, a, b):
        # alpha = 2 lies outside F_(2^3), so z leaves the subfield
        return mul_elems(self, a, b) ^ 2

    monkeypatch.setattr(FieldSpec, "mul_elems", shifted)
    # the subfield test is the last z -> z^(2^k); the witness is the least x
    # whose z it moves
    seen = []
    pow_elems = FieldSpec.pow_elems

    def spied(self, a, e):
        out = pow_elems(self, a, e)
        seen.append((e, a, out))
        return out

    monkeypatch.setattr(FieldSpec, "pow_elems", spied)
    with pytest.raises(VerificationError) as err:
        _niho_dual_one(F64, r, k, s, u)
    e, z, moved = seen[-1]
    assert e == 1 << k
    x = int(np.flatnonzero(moved != z)[0])
    assert str(err.value) == f"Niho dual argument left F_(2^k) at x={x}: z = {int(z[x]):#x}"


@pytest.mark.parametrize("n", [4, 8, 12])
def test_the_kasami_parameter_lookup_is_the_mask_of_each_inverse(n):
    # the closed form's parameter of lambda, one lookup for every lambda
    field = FieldSpec.default(n)
    G = kasami_vf(field)
    lookup = _inverse_masks(G)
    lambdas = [lam for lam, _ in G.selectors()]
    assert sorted(lookup) == sorted(lambdas) and len(lambdas) == (1 << (n // 2)) - 1
    for lam in lambdas:
        assert lookup[lam] == G._mask(field.inverse(lam))


def test_niho_dual_keeps_basis_table_error(monkeypatch):
    # only leaving the subfield is reported as a Niho dual failure
    from bentvec.constructions import _niho_dual_one
    from bentvec.vectorial import _basis_tables

    n, r = 6, 2
    k = n // 2
    s = pow((1 << r) - 1, -1, (1 << k) - 1)
    u = next(x for x in range(F64.size) if F64.trace(x, k) == 1)
    monkeypatch.setattr(FieldSpec, "subfield_abs_trace", lambda self, x, m: 2)
    _basis_tables.cache_clear()
    try:
        with pytest.raises(FieldError) as err:
            _niho_dual_one(F64, r, k, s, u)
    finally:
        _basis_tables.cache_clear()
    assert str(err.value) == "subfield trace left the prime field"


def test_niho_family_parameter_errors():
    us = niho_auto_u(FieldSpec.default(8))
    with pytest.raises(PreconditionError):  # gcd(r, k) != 1
        niho_family(FieldSpec.default(8), 2, us, ReducedPolynomial.zero(0))
    with pytest.raises(PreconditionError):  # r = 1 not allowed
        niho_family(F64, 1, niho_auto_u(F64), ReducedPolynomial.zero(0))
    with pytest.raises(PreconditionError):  # r = k not allowed
        niho_family(F64, 3, niho_auto_u(F64), ReducedPolynomial.zero(0))
    with pytest.raises(PreconditionError):  # basis check: dependent set
        niho_family(F64, 2, [1, 2, 3], ReducedPolynomial.zero(0))
    with pytest.raises(PreconditionError):  # basis check: outside subfield
        niho_family(F64, 2, [1, 2, 4], ReducedPolynomial.zero(0))


def test_gold_family_report():
    f256 = FieldSpec.default(8)
    us = gold_auto_u(f256)
    result = gold_family(f256, us, ReducedPolynomial.make(2, [(1, 2)]))
    rep = result.report
    assert rep.ok and rep.dual_match and rep.self_dual_ok
    assert rep.verified_class == "vectorial bent (8,2)"
    assert rep.degree_predicted == 2 == rep.degree_measured
    # omega = generator^51 generates the order-5 unit circle of F_16
    omega = f256.pow(f256.generator, 51)
    assert f256.pow(omega, 5) == 1 and omega != 1


def test_gold_family_parameter_errors():
    with pytest.raises(PreconditionError):
        gold_family(F64, [1], ReducedPolynomial.zero(0))  # n not 4k
    with pytest.raises(PreconditionError):
        gold_family(F16, [1], ReducedPolynomial.zero(0))  # k = 1 < 2
    f256 = FieldSpec.default(8)
    with pytest.raises(PreconditionError):  # u outside F_(2^2k)
        gold_family(f256, [2, 3], ReducedPolynomial.make(2, [(1, 2)]))


def test_family_with_tail_reports_counts():
    us = kasami_auto_u(F16)
    tails = (
        ReducedPolynomial.make(2, [(1, 2)]),
        ReducedPolynomial.make(2, [(1,), (2,)]),
    )
    result = kasami_family(
        F16, us, ReducedPolynomial.make(2, [(1, 2)]), tail_polys=tails
    )
    rep = result.report
    assert rep.t == 2
    assert rep.bent_components_measured == 12  # 2^(2+2) - 2^2
    assert rep.bent_components_predicted == 12
    assert rep.bent_components_bound == 12
    assert rep.plateaued_iff_ok and rep.ok
    assert result.H_hat is not None and result.H_hat.t == 2


def test_family_computes_each_dual_of_g_once(monkeypatch):
    # the dual check, both (P_tau) gates and gold's self-dual check all
    # read the duals G.profile() packed from its one spectrum per nonzero
    # lambda: no lone function's dual is computed
    duals = []
    dual = BooleanFunction.dual

    def counting(self):
        duals.append(self)
        return dual(self)

    monkeypatch.setattr(BooleanFunction, "dual", counting)
    tail = (ReducedPolynomial.make(3, [(1, 2)]),)
    result = kasami_family(
        F64, kasami_auto_u(F64), ReducedPolynomial.make(2, [(1, 2)]), tail_polys=tail
    )
    assert result.report.ok and result.report.p_tau_all_lambdas is not None
    assert duals == []
    F256 = FieldSpec.default(8)
    result = gold_family(F256, gold_auto_u(F256), ReducedPolynomial.make(2, [(1, 2)]))
    assert result.report.ok and result.report.self_dual_ok
    assert duals == []


def test_report_json_encodes_ints_as_strings():
    import json

    us = kasami_auto_u(F16)
    result = kasami_family(F16, us, ReducedPolynomial.make(2, [(1, 2)]))
    blob = json.dumps(result.report.to_json_dict(), sort_keys=True)
    decoded = json.loads(blob)
    assert decoded["n"] == "4"
    assert decoded["u_values"] == [f"{u}" for u in us]
    assert decoded["class_match"] is True


# -- refused preconditions ------------------------------------------------------


def _refusals():
    g = kasami_vf(F16).component(1)
    G = kasami_vf(F16)
    two = DefiningSet(F16, (1, 2))
    three = DefiningSet(F16, (1, 2, 4))
    x1x2 = ReducedPolynomial.make(2, [(1, 2)])
    x1x2x3 = ReducedPolynomial.make(3, [(1, 2, 3)])
    impure = G.augment([g])
    F8 = FieldSpec.default(8)
    F32 = FieldSpec.default(5)
    basis = niho_auto_u(F64)
    return [
        (lambda: bent_plus_cubic_trace(g, 1, 2, 1), "a, b, c must be pairwise distinct"),
        (lambda: tang_bent(g, two, x1x2x3), "polynomial has 3 variables, defining set 2"),
        (lambda: remark_multi_trace(g, 1, 2, 4, x1x2),
         "the three-trace form needs a polynomial on X1..X3"),
        (lambda: vec_bent_lift(impure, two, x1x2), "lift expects a pure (n,m)-function"),
        (lambda: vec_bent_lift(VectorialFunction(F16, 2, np.zeros(16)), two, x1x2),
         "G is not vectorial bent: component (1, 0) has W(0) = 16"),
        (lambda: vec_bent_lift(G, two, x1x2x3), "polynomial has 3 variables, defining set 2"),
        (lambda: vec_bent_lift(G, three, x1x2x3), "tau = 3 exceeds n/2 = 2"),
        (lambda: vec_plateaued_lift(G, two, ()),
         "plateaued lift needs at least one tail polynomial"),
        (lambda: vec_plateaued_lift(G, two, [x1x2x3]),
         "tail polynomial has 3 variables, defining set 2"),
        # alpha = 2 generates F*_(2^8), so it lies outside F_(2^4)
        (lambda: gold_family(F8, [2], x1x2), "u_1 = 0x2 is not in F*_(2^4)"),
        (lambda: kasami_family(F16, kasami_auto_u(F16)[:1], x1x2),
         "polynomial needs 2 defining elements, only 1 given"),
        (lambda: kasami_family(F32, [], x1x2), "Kasami family needs even n"),
        (lambda: niho_family(F32, 2, [], x1x2), "Niho family needs even n"),
        (lambda: niho_family(F64, 2, basis[:2], x1x2),
         "u set must be a basis of F_(2^3); expected 3 elements, got 2"),
        (lambda: niho_family(F64, 2, [basis[0], basis[1], basis[0] ^ basis[1]], x1x2),
         "u set is not linearly independent (basis check)"),
        # alpha = 2 generates F*_(2^6), so it lies outside F_(2^3)
        (lambda: niho_family(F64, 2, [basis[0], 2, basis[2]], x1x2),
         "u_2 = 0x2 is not in F*_(2^3)"),
        (lambda: niho_family(F64, 2, [basis[0], basis[1], 0], x1x2),
         "u_3 = 0x0 is not in F*_(2^3)"),
    ]


REFUSALS = _refusals()


@pytest.mark.parametrize("call, message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_paper_preconditions_are_refused_with_their_message(call, message):
    with pytest.raises(PreconditionError) as err:
        call()
    assert str(err.value) == message

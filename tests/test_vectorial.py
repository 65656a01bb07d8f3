"""Vectorial functions: components, predicates, counting, augmentation."""

import numpy as np
import pytest

from bentvec import (
    BooleanFunction,
    FieldSpec,
    VectorialFunction,
    max_bent_components_bound,
)
from bentvec.errors import FieldError

F16 = FieldSpec.default(4)
F64 = FieldSpec.default(6)


def kasami(field):
    k = field.n // 2
    return VectorialFunction.from_univariate(field, k, [(1, (1 << k) + 1)])


def linear_vf(field):
    # F(x) = Tr^n_k(x): linear, never bent
    k = field.n // 2
    xs = np.arange(field.size, dtype=np.int64)
    values = xs ^ field.pow_elems(xs, 1 << k)
    return VectorialFunction(field, k, values)


def trace_form(field, u):
    return BooleanFunction(field, field.linear_form_table(u))


def test_outputs_must_lie_in_subfield():
    with pytest.raises(FieldError):
        VectorialFunction(F16, 2, np.arange(16))  # not all values in GF(4)


def test_component_examples():
    G = kasami(F16)
    comp = G.component(1)
    assert comp.classification().kind == "bent"
    # appended coordinates are ignored by a zero selector mask
    f1 = trace_form(F16, 5)
    aug = G.augment([f1])
    assert aug.component(1, 0) == comp
    # a pure tail selector projects out the appended coordinate
    assert aug.component(0, 1) == f1
    assert aug.component(1, 1) == comp ^ f1


def test_component_selector_validation():
    G = kasami(F16)
    with pytest.raises(FieldError):
        G.component(2)  # alpha is not in GF(4)
    with pytest.raises(FieldError):
        G.component(0)
    with pytest.raises(FieldError):
        G.component(1, 1)  # no appended coordinates


def test_selector_enumeration_order():
    G = kasami(F16).augment([trace_form(F16, 1)])
    sels = list(G.selectors())
    assert sels == [(0, 1), (1, 0), (1, 1), (6, 0), (6, 1), (7, 0), (7, 1)]


def test_is_vectorial_bent():
    check = kasami(F16).is_vectorial_bent()
    assert check.ok and check.selector is None
    bad = linear_vf(F16).is_vectorial_bent()
    assert not bad.ok
    assert bad.selector is not None and bad.value is not None
    with pytest.raises(FieldError):
        kasami(FieldSpec.default(3))  # odd n cannot even host the subfield


def test_is_vectorial_bent_rejects_odd_n():
    spec = FieldSpec.default(6)
    xs = np.arange(spec.size, dtype=np.int64)
    F = VectorialFunction(spec, 1, xs & 1)
    assert F.is_vectorial_bent() is not None  # n even fine
    spec5 = FieldSpec.default(5)
    F5 = VectorialFunction(spec5, 1, np.arange(32) & 1)
    with pytest.raises(FieldError):
        F5.is_vectorial_bent()


def test_niho_g_is_vectorial_bent():
    from bentvec.constructions import niho_exponents

    exps = niho_exponents(6, 2)
    assert sorted(exps) == [22, 36, 50]
    G = VectorialFunction.from_univariate(F64, 3, [(1, d) for d in exps])
    assert G.is_vectorial_bent().ok


def test_is_vectorial_plateaued():
    G = kasami(F16)
    prof = G.is_vectorial_plateaued()
    assert prof.ok
    assert set(prof.amplitudes.values()) == {4}  # all amplitudes 2^(n/2)
    # a quadratic vectorial function is plateaued
    quad = linear_vf(F64)
    assert quad.is_vectorial_plateaued().ok
    # attach a mixed component and the profile must fail
    mixed_tail = BooleanFunction(F16, [0] * 14 + [1, 1])
    aug = G.augment([mixed_tail])
    prof = aug.is_vectorial_plateaued()
    assert not prof.ok and prof.witness is not None


def test_bent_component_count():
    G = kasami(F16)
    assert G.bent_component_count() == 3  # 2^(n/2) - 1, all components
    zero = VectorialFunction(F16, 2, np.zeros(16, dtype=np.int64))
    assert zero.bent_component_count() == 0


def test_bent_components_iff_nonzero_field_part():
    # Cor 5.2 pattern at n = 4 and 6, t in {1, 2}: exhaustive selector check
    import random

    from bentvec import ReducedPolynomial, kasami_auto_u

    rng = random.Random(99)
    for field in (F16, F64):
        k = field.n // 2
        us = kasami_auto_u(field)
        from bentvec import DefiningSet

        ds = DefiningSet(field, tuple(us))
        for t in (1, 2):
            fs = [
                ReducedPolynomial.random(k, k, seed=rng.randrange(10**6)).compose_traces(ds)
                for _ in range(t)
            ]
            aug = kasami(field).augment(fs)
            for (lam, v), comp in aug.components():
                assert comp.is_bent() == (lam != 0)
            count = aug.bent_component_count()
            assert count == (1 << (t + k)) - (1 << t)
            assert count == max_bent_components_bound(field.n, k + t)


def test_max_bent_components_bound():
    assert max_bent_components_bound(8, 4) == 15
    assert max_bent_components_bound(8, 8) == 240
    assert max_bent_components_bound(4, 3) == 6
    with pytest.raises(FieldError):
        max_bent_components_bound(8, 3)
    with pytest.raises(FieldError):
        max_bent_components_bound(5, 4)


def test_never_certifies_m_above_half_n():
    # a (4,3)-function cannot be vectorial bent; if every component were
    # somehow classified bent the library must refuse to certify it
    G = kasami(F16)
    aug = G.augment([BooleanFunction.zero(F16)])  # (4,3), has non-bent components
    assert not aug.is_vectorial_bent().ok


def test_augment():
    G = kasami(F16)
    assert G.augment([]) == G
    f1 = trace_form(F16, 3)
    f2 = trace_form(F16, 9)
    aug = G.augment([f1, f2])
    assert aug.t == 2 and aug.out_bits == 4
    assert aug.component(0, 2) == f2
    assert aug.component(0, 3) == f1 ^ f2
    again = G.augment([f1]).augment([f2])
    assert again == aug
    with pytest.raises(FieldError):
        G.augment([BooleanFunction.zero(F64)])


def test_degree():
    assert kasami(F16).degree() == 2  # Gold exponent weight
    assert kasami(F64).degree() == 2
    const = VectorialFunction(F16, 2, np.full(16, 7, dtype=np.int64))
    assert const.degree() == 0
    # degree of an augmented function sees the appended coordinates
    cubic = BooleanFunction.from_anf(F16, [{1, 2}, {2}])
    assert kasami(F16).augment([cubic]).degree() == 2


def test_coordinate_functions_match_components():
    G = kasami(F64)
    coords = G.coordinate_functions()
    assert len(coords) == 3
    # every coordinate w.r.t. the basis is itself a linear combination of
    # components, so degrees agree (checked internally by degree())
    assert max(f.degree() for f in coords) == G.degree()


def test_from_univariate_rejects_wrong_subfield():
    with pytest.raises(FieldError):
        VectorialFunction.from_univariate(F16, 2, [(1, 1)])  # identity leaves GF(4)


def test_profile_matches_per_selector_components():
    cubic = BooleanFunction.from_anf(F16, [{1, 2, 3}])
    f32 = FieldSpec.default(5)
    tr = f32.abs_trace_table()
    xs = np.arange(f32.size)
    odd = VectorialFunction(
        f32, 1, tr[f32.pow_elems(xs, 3)], tr[f32.pow_elems(xs, 7)], t=1
    )
    for F in (kasami(F16).augment([cubic]), odd):
        rows = F.profile()
        assert [sel for sel, _, _ in rows] == list(F.selectors())
        for (lam, v), cls, deg in rows:
            comp = F.component(lam, v)
            assert cls == comp.classification()
            assert deg == comp.degree()
        assert F.profile() is rows


def test_predicates_extract_each_component_once(monkeypatch):
    from bentvec import vectorial_class_string

    calls = []
    component = VectorialFunction.component

    def counting(self, lam, v=0):
        calls.append((lam, v))
        return component(self, lam, v)

    monkeypatch.setattr(VectorialFunction, "component", counting)
    G = kasami(F64)
    assert G.is_vectorial_bent().ok
    assert G.is_vectorial_plateaued().ok
    assert G.bent_component_count() == 7
    assert G.degree() == 2
    assert vectorial_class_string(G) == "vectorial bent (6,3)"
    assert calls == list(G.selectors())

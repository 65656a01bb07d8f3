"""Vectorial functions: components, predicates, counting, augmentation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bentvec import (
    BooleanFunction,
    Classification,
    FieldSpec,
    VectorialFunction,
    max_bent_components_bound,
    vectorial,
)
from bentvec.errors import FieldError, VerificationError

from oracles import naive_degree, naive_walsh, oracle_subfield_trace, pairing_matrix, poly_mul_mod

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


def test_component_selector_messages_keep_their_order():
    G = kasami(F16)
    cases = [
        ((16, 5), "element 0x10 outside GF(2^4)"),
        ((2, 5), "selector 0x2 is not in F_(2^2)"),  # alpha is not in GF(4)
        ((8, 0), "selector 0x8 is not in F_(2^2)"),
        ((1, 1), "extra-bit selector 0x1 out of range"),
        ((0, 0), "zero selector does not name a component"),
    ]
    for (lam, v), message in cases:
        with pytest.raises(FieldError) as err:
            G.component(lam, v)
        assert str(err.value) == message


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


def test_is_vectorial_bent_witness_is_the_least_field_point():
    # the one component's least field point off 4 is 4, and its W(4) = -8;
    # Hadamard index 1 is the least one off in the plain transform
    table = np.array([int(b) for b in "1001110011001111"])
    oracle = naive_walsh(table, pairing_matrix(F16.modulus, 4))
    assert np.flatnonzero(np.abs(oracle) != 4)[0] == 4 and oracle[4] == -8
    check = VectorialFunction(F16, 1, table).is_vectorial_bent()
    assert check == (False, (1, 0), 4, -8)


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


def test_m_above_half_n_guard_refuses_all_bent_rows(monkeypatch):
    # reach the guard itself: every row of the (4,3) function claims bent
    aug = kasami(F16).augment([BooleanFunction.zero(F16)])
    bent = Classification("bent", 4, (4,))
    rows = tuple((sel, bent, 2) for sel in aug.selectors())
    monkeypatch.setattr(VectorialFunction, "profile", lambda self: rows)
    with pytest.raises(VerificationError, match=r"\(4,3\)-function.*m <= n/2"):
        aug.is_vectorial_bent()


def test_dual_is_cached_per_lambda():
    G = kasami(F16)
    assert G.dual(6) == G.component(6).dual()
    from bentvec import NotBentError

    with pytest.raises(NotBentError):
        linear_vf(F16).dual(1)


@pytest.mark.parametrize(
    "field", [F16, FieldSpec.with_least_generator(4, 0x19), F64], ids=["F16", "F16-19", "F64"]
)
def test_field_indexed_values_and_duals_match_the_naive_oracles(field):
    # spectra are checked and duals kept in the Hadamard index; every value
    # and dual handed out must still be indexed by field element
    pairing = pairing_matrix(field.modulus, field.n)
    G = kasami(field)
    lams = [int(lam) for lam in field.subfield(G.m) if lam]
    planes = np.unpackbits(G.dual_planes(lams)[:, :, None], axis=2, bitorder="little")
    for c, lam in enumerate(lams):
        table = G.component(lam).table
        naive = naive_walsh(table, pairing)
        f = BooleanFunction(field, table)  # fresh: nothing cached
        spectrum = f.walsh()
        assert np.array_equal(spectrum.values, naive)
        assert [spectrum[a] for a in range(field.size)] == naive.tolist()
        dual = (naive < 0).astype(np.uint8)
        assert np.array_equal(f.dual().table, dual)
        assert np.array_equal(G.dual(lam).table, dual)
        assert np.array_equal(planes[:, c // 8, c % 8], dual)
    absv, counts = BooleanFunction(field, G.component(lams[0]).table).walsh().abs_counts()
    assert (absv.tolist(), counts.tolist()) == ([1 << (field.n // 2)], [field.size])


def test_at_most_32_output_bits():
    with pytest.raises(FieldError, match="at most 32 output bits"):
        VectorialFunction(F16, 4, np.zeros(16), t=29)


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
    # the profile reads every component from the coordinate word, so the
    # predicates extract no truth table through component() at all
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
    assert calls == []


def _oracle_component(F, lam, v):
    """Tr^m_1(lambda F(x)) + <v, extra(x)> from schoolbook field arithmetic."""
    mod, n = F.field.modulus, F.n
    table = np.zeros(F.field.size, dtype=np.uint8)
    for x in range(F.field.size):
        tr = oracle_subfield_trace(poly_mul_mod(lam, int(F.values[x]), mod, n), mod, n, F.m)
        assert tr in (0, 1)
        table[x] = tr ^ (bin(int(F.extra[x]) & v).count("1") & 1)
    return table


def test_components_and_profile_match_oracles():
    cubic = BooleanFunction.from_anf(F16, [{1, 2, 3}])
    f32 = FieldSpec.default(5)
    tr = f32.abs_trace_table()
    xs = np.arange(f32.size)
    odd = VectorialFunction(
        f32, 1, tr[f32.pow_elems(xs, 3)], tr[f32.pow_elems(xs, 7)], t=1
    )
    for F in (kasami(F16).augment([cubic]), odd):
        pairing = pairing_matrix(F.field.modulus, F.n)
        for (lam, v), cls, deg in F.profile():
            table = _oracle_component(F, lam, v)
            assert np.array_equal(F.component(lam, v).table, table)
            spectrum = naive_walsh(table, pairing)
            assert cls.abs_values == tuple(sorted(set(np.abs(spectrum).tolist())))
            assert deg == naive_degree(table, F.n)


def _reference_component(F, lam, v):
    # the per-component path: subfield trace by repeated squaring
    acc = np.zeros(F.field.size, dtype=np.int64)
    if lam:
        w = F.field.mul_elems(F.values, lam)
        acc = w.copy()
        for _ in range(F.m - 1):
            w = F.field.mul_elems(w, w)
            acc ^= w
    bits = np.bitwise_count((F.extra & v).astype(np.uint64)) & 1
    return BooleanFunction(F.field, acc ^ bits)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    m_index=st.integers(0, 3),
    t=st.integers(0, 2),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, m_index=1, t=1, cols=3, seed=0)  # 7 selectors: blocks of 3, 3, 1
@example(n=6, m_index=2, t=2, cols=4, seed=1)  # 31 selectors: last block holds 3
def test_profile_blocks_match_per_component_reference(n, m_index, t, cols, seed):
    field = FieldSpec.default(n)
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    m = divisors[m_index % len(divisors)]
    rng = np.random.default_rng(seed)
    values = rng.choice(field.subfield(m), size=field.size)
    extra = rng.integers(0, 1 << t, size=field.size)
    F = VectorialFunction(field, m, values, extra, t)
    with mock.patch.object(vectorial, "BLOCK_POINTS", cols << n):
        rows = F.profile()
    assert [sel for sel, _, _ in rows] == list(F.selectors())
    for (lam, v), cls, deg in rows:
        ref = _reference_component(F, lam, v)
        assert F.component(lam, v) == ref
        assert cls == ref.classification()
        assert deg == ref.degree()


def _corrupting(fwht, edit, on_call=1):
    # fwht that passes its output through `edit` on the on_call-th call
    calls = []

    def wrapped(signs, **kwargs):
        out = fwht(signs, **kwargs)
        calls.append(1)
        if len(calls) == on_call:
            edit(out)
        return out

    return wrapped


def test_profile_failures_name_selector_point_and_value(monkeypatch):
    import bentvec.boolfun as boolfun

    G = kasami(F64)
    sels = list(G.selectors())
    perm = F64.walsh_permutation()
    a = int(np.flatnonzero(perm == 5)[0])  # spectrum point of Hadamard entry 5

    def triple_column_2(out):
        out[5, 2] *= 3

    monkeypatch.setattr(vectorial, "fwht", _corrupting(boolfun.fwht, triple_column_2))
    with pytest.raises(VerificationError) as err:
        kasami(F64).profile()
    assert str(err.value) == (
        f"component {sels[2]}: Parseval check failed: sum of W(a)^2 is "
        f"{4096 - 64 + 576}, expected 2^12; largest |W(a)| is W({a}) = "
        f"{3 * int(G.component(*sels[2]).walsh()[a])}"
    )

    def flip_column_4(out):
        out[7, 4] = -out[7, 4]

    # the forward transform is intact; the inverse one is corrupted at table
    # point 7, which is its row 7: the round trip runs in the Hadamard index
    monkeypatch.setattr(vectorial, "fwht", boolfun.fwht)
    monkeypatch.setattr(boolfun, "fwht", _corrupting(boolfun.fwht, flip_column_4))
    sign = 1 - 2 * int(G.component(*sels[4]).table[7])
    with pytest.raises(VerificationError) as err:
        kasami(F64).profile()
    assert str(err.value) == (
        f"component {sels[4]}: Walsh round-trip failed at x = 7: inverse "
        f"gives {-sign}, table sign is {sign}"
    )


@given(
    n=st.integers(1, 8),
    m_index=st.integers(0, 3),
    t=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_word_gives_back_values_extra_and_file_text(n, m_index, t, seed):
    from bentvec.fileio import vf_from_text, vf_to_text

    field = FieldSpec.default(n)
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    m = divisors[m_index % len(divisors)]
    rng = np.random.default_rng(seed)
    values = rng.choice(field.subfield(m), size=field.size)
    extra = rng.integers(0, 1 << t, size=field.size)
    F = VectorialFunction(field, m, values, extra, t)
    assert F.word.dtype == np.uint32
    assert np.array_equal(F.values, values)
    assert np.array_equal(F.extra, extra)
    back = vf_from_text(vf_to_text(F))
    assert back == F
    assert hash(back) == hash(F)


def test_writing_derived_tables_leaves_the_function_unchanged():
    G = kasami(F16).augment([trace_form(F16, 5)])
    for table in (G.values, G.extra):
        try:
            table[:] ^= 1
        except ValueError:
            pass  # read-only is as good as a copy
    assert G == kasami(F16).augment([trace_form(F16, 5)])
    with pytest.raises(ValueError):
        G.word[0] = 0


def test_out_of_range_outputs_keep_their_messages():
    values = np.zeros(16, dtype=np.int64)
    values[3] = 2  # alpha is not in GF(4) = {0, 1, 6, 7}
    with pytest.raises(FieldError) as err:
        VectorialFunction(F16, 2, values)
    assert str(err.value) == "outputs must lie in the subfield F_(2^2)"
    extra = np.zeros(16, dtype=np.int64)
    extra[5] = 2  # bit 1 needs t >= 2
    with pytest.raises(FieldError) as err:
        VectorialFunction(F16, 2, np.zeros(16), extra, 1)
    assert str(err.value) == "extra bits out of range for t appended coordinates"


F32 = FieldSpec.default(5)
REFUSALS = [
    (lambda: VectorialFunction(F32, 1, np.zeros(32)).bent_component_count(),
     "bent-component counting needs even n"),
    (lambda: VectorialFunction(F16, 2, np.zeros(16), t=-1),
     "appended coordinate count must be nonnegative"),
    (lambda: VectorialFunction(F16, 2, np.zeros(8)), "output table must have length 16"),
    (lambda: VectorialFunction(F16, 2, np.zeros(16), np.zeros(8), t=1),
     "extra bits out of range for t appended coordinates"),
    (lambda: kasami(F16).add_boolean(BooleanFunction.zero(F64)),
     "operands live in different fields"),
]


@pytest.mark.parametrize("call, message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_refusals_keep_their_message(call, message):
    with pytest.raises(FieldError) as err:
        call()
    assert str(err.value) == message

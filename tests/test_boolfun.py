"""Truth tables, Walsh spectra, duals, derivatives, ANF."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentvec import (
    BooleanFunction,
    FieldSpec,
    NotBentError,
    VectorialFunction,
    classify,
)
from bentvec import boolfun
from bentvec.boolfun import (
    WalshSpectrum,
    bent_or_raise,
    check_lemma_walsh_identity,
    check_parseval_parity,
    fwht,
)
from bentvec.errors import FieldError, PreconditionError, VerificationError

from oracles import naive_anf, naive_degree, naive_walsh, pairing_matrix

F4 = FieldSpec.default(2)
F16 = FieldSpec.default(4)
F64 = FieldSpec.default(6)

AND = BooleanFunction(F4, [0, 0, 0, 1])


def kasami_component(field, lam=1):
    k = field.n // 2
    G = VectorialFunction.from_univariate(field, k, [(1, (1 << k) + 1)])
    return G.component(lam)


def random_function(field, rng):
    return BooleanFunction(field, rng.integers(0, 2, size=field.size))


def test_walsh_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        spec = FieldSpec.default(n)
        pairing = pairing_matrix(spec.modulus, n)
        for _ in range(8):
            f = random_function(spec, rng)
            assert np.array_equal(f.walsh().values, naive_walsh(f.table, pairing))


def test_walsh_zero_function():
    f = BooleanFunction.zero(F16)
    spectrum = f.walsh()
    assert spectrum[0] == 16
    assert np.all(spectrum.values[1:] == 0)


def test_walsh_and_is_bent_n2():
    spectrum = AND.walsh()
    assert set(np.abs(spectrum.values).tolist()) == {2}
    assert spectrum.classification.kind == "bent"


def test_kasami_component_is_bent():
    f = kasami_component(F16)
    assert f.classification().kind == "bent"


def test_classify_cases():
    # all-zero function: single amplitude 2^n, so plateaued with s = n
    assert classify([16] + [0] * 15, 4).kind == "plateaued"
    assert classify([16] + [0] * 15, 4).amplitude == 16
    assert classify([4] * 16, 4).kind == "bent"
    assert classify([8, -8] + [0] * 14, 4).kind == "semi-bent"  # s = 3 = n/2 + 1
    mixed = classify([12, 4] + [0] * 14, 4)
    assert mixed.kind == "mixed" and mixed.abs_values == (0, 4, 12)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_classify_levels_match_np_unique(dtype):
    rng = np.random.default_rng(21)
    cases = []
    for n in range(1, 11):
        size = 1 << n
        cases.append((random_function(FieldSpec.default(n), rng).walsh().values, n))
        for s in range(n + 1):
            # two levels (0, A), both present, with random signs
            values = rng.choice([0, 1 << s, -(1 << s)], size)
            values[:2] = 0, 1 << s
            cases.append((values, n))
    for values, n in cases:
        values = np.asarray(values, dtype=dtype)
        levels = tuple(np.unique(np.abs(values)).tolist())
        cls = classify(values, n)
        assert cls.abs_values == levels
        if len(levels) == 2 and levels[0] == 0:
            kind = "semi-bent" if n % 2 == 0 and levels[1] == 1 << (n // 2 + 1) else "plateaued"
            assert (cls.kind, cls.amplitude) == (kind, levels[1])


def test_semibent_instance_from_kasami_pair():
    # search for (a, b) with constant-one second derivative of the dual
    f = kasami_component(F16)
    dual = f.dual()
    found = None
    for a in range(16):
        for b in range(16):
            if a != b and dual.second_derivative(a, b).table.all():
                found = (a, b)
                break
        if found:
            break
    assert found is not None
    a, b = found
    la = BooleanFunction(F16, F16.linear_form_table(a))
    lb = BooleanFunction(F16, F16.linear_form_table(b))
    h = f ^ (la & lb)
    assert h.classification().kind == "semi-bent"


def test_dual_of_and():
    # with the field pairing Tr(ax), the dual of AND is the indicator of alpha
    dual = AND.dual()
    assert list(dual.table) == [0, 0, 1, 0]
    assert dual.dual() == AND  # involution


def test_dual_involution_on_corpus():
    rng = np.random.default_rng(5)
    corpus = [kasami_component(F16, lam) for lam in (1, 6, 7)]
    corpus.append(AND)
    for f in corpus:
        assert f.dual().dual() == f


def test_kasami_dual_closed_form_n4():
    # dual of Tr^k_1(lambda x^5) is Tr^k_1(lambda^-1 x^5) + 1
    for lam in (1, 6, 7):
        f = kasami_component(F16, lam)
        li = F16.inverse(lam)
        values = F16.mul_elems(
            F16.pow_elems(np.arange(16, dtype=np.int64), 5), li
        )
        table = np.array(
            [F16.subfield_abs_trace(int(y), 2) for y in values], dtype=np.uint8
        )
        assert f.dual() == BooleanFunction(F16, table ^ 1)


def test_dual_rejects_non_bent():
    f = BooleanFunction.zero(F16)
    with pytest.raises(NotBentError) as info:
        f.dual()
    assert info.value.value == 16 and info.value.expected == 4
    with pytest.raises(NotBentError):
        BooleanFunction.zero(FieldSpec.default(3)).dual()  # odd n


@pytest.mark.parametrize(
    "n, bits, shown, point, value, expected",
    [
        (4, "0" * 16, "Plateaued(16)", 0, 16, 4),
        # the least field point off 2^(n/2) is 4; Hadamard index 1 is the
        # least one off in the plain transform
        (4, "1001110011001111", "Mixed{0,4,8}", 4, -8, 4),
        # odd n: no spectrum is bent, and the witness is W(0), here 0
        (3, "01011010", "Plateaued(8)", 0, 0, "2^(n/2) with n even"),
    ],
)
def test_off_bent_witness_is_the_least_field_point(n, bits, shown, point, value, expected):
    field = FieldSpec.default(n)
    f = BooleanFunction(field, [int(b) for b in bits])
    oracle = naive_walsh(f.table, pairing_matrix(field.modulus, n))
    assert oracle[point] == value
    if n % 2 == 0:
        assert point == np.flatnonzero(np.abs(oracle) != 1 << (n // 2))[0]
    with pytest.raises(PreconditionError) as info:
        bent_or_raise(f, "g")
    assert str(info.value) == f"g is not bent: class {shown}, W({point}) = {value}"
    with pytest.raises(NotBentError) as info:
        f.dual()
    assert (info.value.point, info.value.value, info.value.expected) == (
        point,
        value,
        expected,
    )


def test_derivative_examples():
    rng = np.random.default_rng(2)
    f = random_function(F64, rng)
    assert f.derivative(0) == BooleanFunction.zero(F64)
    # n=2: D_{e2} (X1 X2) = X1
    d = AND.derivative(2)
    assert list(d.table) == [0, 1, 0, 1]
    # linearity in f
    g = random_function(F64, rng)
    for a in (1, 17, 40):
        assert (f ^ g).derivative(a) == f.derivative(a) ^ g.derivative(a)


def test_second_derivative():
    rng = np.random.default_rng(3)
    f = random_function(F64, rng)
    for a in (0, 5, 33):
        assert f.second_derivative(a, a) == BooleanFunction.zero(F64)
    assert f.second_derivative(7, 9) == f.derivative(9).derivative(7)
    assert f.second_derivative(7, 9) == f.second_derivative(9, 7)
    # n=2: D_{e1} D_{e2} (X1 X2) = 1
    dd = AND.second_derivative(1, 2)
    assert dd.table.all()
    # quadratics have constant second derivatives
    quad = BooleanFunction.from_anf(F64, [{1, 2}, {3, 4}, {5}, set()])
    for a, b in ((3, 12), (1, 63), (7, 56)):
        dd = quad.second_derivative(a, b)
        assert dd.table.all() or not dd.table.any()


def test_anf_examples():
    one = BooleanFunction.constant(F4, 1)
    assert one.anf_monomials() == frozenset({frozenset()})
    assert one.degree() == 0
    assert BooleanFunction.zero(F4).degree() == 0
    orf = BooleanFunction(F4, [0, 1, 1, 1])
    assert orf.anf_monomials() == frozenset(
        {frozenset({1}), frozenset({2}), frozenset({1, 2})}
    )
    assert orf.degree() == 2
    assert kasami_component(F16).degree() == 2  # binary weight of the exponent


def test_anf_matches_subset_sum_oracle():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 5):
        spec = FieldSpec.default(n)
        for _ in range(5):
            f = random_function(spec, rng)
            assert np.array_equal(f.anf_mask(), naive_anf(f.table, n))
            assert f.degree() == naive_degree(f.table, n)


def test_from_anf_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_function(F64, rng)
        assert BooleanFunction.from_anf(F64, f.anf_monomials()) == f


@pytest.mark.parametrize("n", range(1, 13))
def test_packed_anf_and_degree_match_the_subset_sum_oracle(n):
    # below n = 6 the whole table sits in one zero-padded word
    field = FieldSpec.default(n)
    size = field.size
    rng = np.random.default_rng(n)
    sparse = np.zeros(size, dtype=np.uint8)
    sparse[rng.choice(size, min(3, size), replace=False)] = 1
    tables = [
        np.zeros(size, dtype=np.uint8),  # the zero function
        np.ones(size, dtype=np.uint8),  # the constant 1
        (np.arange(size) == size - 1).astype(np.uint8),  # X1 X2 ... Xn
        sparse,
        *rng.integers(0, 2, (3, size), dtype=np.uint8),
    ]
    for table in tables:
        f = BooleanFunction(field, table)
        assert np.array_equal(f.anf_mask(), naive_anf(table, n))
        assert f.degree() == naive_degree(table, n)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 10])
def test_from_anf_gives_back_its_monomials(n):
    field = FieldSpec.default(n)
    rng = np.random.default_rng(100 + n)
    for count in (0, 1, 2, 5, 40):
        masks = rng.choice(field.size, min(count, field.size), replace=False)
        monomials = frozenset(
            frozenset(j + 1 for j in range(n) if mask >> j & 1)
            for mask in masks.tolist()
        )
        f = BooleanFunction.from_anf(field, monomials)
        assert f.anf_monomials() == monomials



ROUND_TRIP_FIELDS = [FieldSpec.default(n) for n in range(1, 11)] + [
    FieldSpec.with_least_generator(4, 0x19),
    FieldSpec.with_least_generator(8, 0x11B),
]


@given(field=st.sampled_from(ROUND_TRIP_FIELDS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_walsh_and_anf_round_trips(field, seed):
    f = random_function(field, np.random.default_rng(seed))
    values = f.walsh().values
    # invert through a scatter, not the gather that walsh() checks itself
    hadamard = np.empty_like(values)
    hadamard[field.walsh_permutation()] = values
    signs = 1 - 2 * f.table.astype(np.int64)
    assert np.array_equal(fwht(hadamard), signs << field.n)
    assert BooleanFunction.from_anf(field, f.anf_monomials()) == f

def test_from_univariate():
    assert BooleanFunction.from_univariate(F16, []) == BooleanFunction.zero(F16)
    tr = BooleanFunction.from_univariate(F16, [(1, 1)])
    assert tr.is_balanced()
    assert np.array_equal(tr.table, F16.abs_trace_table())
    # x^5 maps into GF(4), where the absolute GF(16) trace vanishes:
    # Tr^4_1(x^5) is identically zero, the bent representative needs a
    # coefficient outside the subfield (equivalently a component selector).
    assert BooleanFunction.from_univariate(F16, [(1, 5)]).weight() == 0
    gold = BooleanFunction.from_univariate(F16, [(2, 5)])
    assert gold.classification().kind == "bent"
    bad_terms = [
        ((99, 3), "element 0x63 outside GF(2^4)"),
        ((1, -1), "exponent -1 outside [0, 2^n - 1]"),
        ((1, 16), "exponent 16 outside [0, 2^n - 1]"),
    ]
    for build in (
        lambda terms: BooleanFunction.from_univariate(F16, terms),
        lambda terms: VectorialFunction.from_univariate(F16, 4, terms),
    ):
        for term, message in bad_terms:
            with pytest.raises(FieldError) as err:
                build([(1, 1), term])
            assert str(err.value) == message


def test_inverse_walsh_roundtrip_explicit():
    rng = np.random.default_rng(23)
    f = random_function(F64, rng)
    spectrum = f.walsh()
    perm = F64.walsh_permutation()
    hadamard = np.empty_like(spectrum.values)
    hadamard[perm] = spectrum.values
    signs = fwht(hadamard) // F64.size
    assert np.array_equal((1 - signs) // 2, f.table)


def test_lemma_walsh_identity_random_triples():
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        spec = FieldSpec.default(n)
        for _ in range(4):
            fs = [random_function(spec, rng) for _ in range(3)]
            assert check_lemma_walsh_identity(*fs)


def test_scale_input_spectrum_relation():
    # h and g = h(delta x) satisfy W_h(a) = W_g(a delta)
    h = kasami_component(F16)
    for delta in (2, 9, 15):
        g = h.scale_input(delta)
        wh = h.walsh().values
        wg = g.walsh().values
        for a in range(16):
            assert wh[a] == wg[F16.mul(a, delta)]
        assert g.dual() == h.dual().scale_input(F16.inverse(delta))


def test_shift_and_dual_shift():
    # adding Tr(ax) to a bent f shifts the dual: (f + Tr(ax))* = f*(x + a)
    f = kasami_component(F16)
    for a in (1, 7, 12):
        la = BooleanFunction(F16, F16.linear_form_table(a))
        assert (f ^ la).dual() == f.dual().shift(a)


def test_bent_degree_bound():
    # bent implies degree <= n/2 for n >= 4
    for field, lam in ((F16, 1), (F64, 1)):
        f = kasami_component(field, lam)
        assert f.degree() <= field.n // 2


def test_rejects_bad_tables():
    with pytest.raises(FieldError):
        BooleanFunction(F4, [0, 1, 0])
    with pytest.raises(FieldError):
        BooleanFunction(F4, [0, 1, 2, 0])
    with pytest.raises(FieldError):
        AND ^ BooleanFunction.zero(F16)


def test_walsh_failures_name_point_and_value(monkeypatch):
    import bentvec.boolfun as boolfun

    f = kasami_component(F16)
    good = f.walsh().values  # bent: every entry is +-4
    perm = F16.walsh_permutation()
    fwht_ok = boolfun.fwht

    def corrupt(edit, on_call=1):
        calls = []

        def wrapped(signs):
            out = fwht_ok(signs)
            calls.append(1)
            if len(calls) == on_call:
                edit(out)
            return out

        monkeypatch.setattr(boolfun, "fwht", wrapped)
        return BooleanFunction(F16, f.table)  # fresh, nothing cached

    def triple(out):
        out[3] *= 3

    a = int(np.flatnonzero(perm == 3)[0])
    with pytest.raises(VerificationError) as err:
        corrupt(triple).walsh()
    assert str(err.value) == (
        f"Parseval check failed: sum of W(a)^2 is {256 - 16 + 144}, expected "
        f"2^8; largest |W(a)| is W({a}) = {3 * int(good[a])}"
    )

    def odd_entries(out):
        # seven 1s and one 11 keep the sum of squares of eight 4s
        out[:8] = np.sign(out[:8]) * np.array([1, 1, 1, 1, 1, 1, 1, 11])

    a = int(np.flatnonzero(perm < 8)[0])
    value = int(np.sign(good[a])) * (11 if perm[a] == 7 else 1)
    with pytest.raises(VerificationError) as err:
        corrupt(odd_entries).walsh()
    assert str(err.value) == f"spectrum parity check failed: W({a}) = {value} is odd"

    def negate(out):
        # the round trip runs in the Hadamard index: the inverse's row x is
        # table point x
        out[6] = -out[6]

    sign = 1 - 2 * int(f.table[6])
    with pytest.raises(VerificationError) as err:
        corrupt(negate, on_call=2).walsh()
    assert str(err.value) == (
        f"Walsh round-trip failed at x = 6: inverse gives {-sign}, "
        f"table sign is {sign}"
    )


def test_parity_witness_is_the_first_odd_field_point(monkeypatch):
    import bentvec.boolfun as boolfun

    # spectra are checked in the Hadamard index; the witness is still the
    # first odd W(a) in field order, here not the first odd Hadamard entry
    f = kasami_component(F16)
    good = f.walsh().values
    perm = F16.walsh_permutation()
    fwht_ok = boolfun.fwht

    def odd_high_entries(signs):
        out = fwht_ok(signs)
        # seven 1s and one 11 keep the sum of squares of eight 4s
        out[8:] = np.sign(out[8:]) * np.array([1, 1, 1, 1, 1, 1, 1, 11])
        return out

    monkeypatch.setattr(boolfun, "fwht", odd_high_entries)
    a = int(np.flatnonzero(perm >= 8)[0])
    assert a != 8  # the first odd entry in the Hadamard index
    value = int(np.sign(good[a])) * (11 if perm[a] == 15 else 1)
    with pytest.raises(VerificationError) as err:
        BooleanFunction(F16, f.table).walsh()
    assert str(err.value) == f"spectrum parity check failed: W({a}) = {value} is odd"


def test_parseval_sum_does_not_wrap():
    # 2^64 + 64 wraps to 64 = 2^6 in int64; the sum must still be refused
    values = np.array([2**32, 8, 0, 0, 0, 0, 0, 0])
    with pytest.raises(VerificationError) as err:
        WalshSpectrum(FieldSpec.default(3), values)
    assert str(err.value) == (
        f"Parseval check failed: sum of W(a)^2 is {2**64 + 64}, expected 2^6; "
        f"largest |W(a)| is W(0) = {2**32}"
    )


@pytest.mark.parametrize("n", [3, 4, 8])
def test_walsh_spectrum_takes_the_hadamard_index(n):
    # WalshSpectrum is given S = fwht((-1)^f); what it hands out is W(a)
    field = FieldSpec.default(n)
    pairing = pairing_matrix(field.modulus, n)
    tables = [np.random.default_rng(n).integers(0, 2, field.size)]
    if n % 2 == 0:
        tables.append(kasami_component(field).table)
    for table in tables:
        spectrum = WalshSpectrum(field, fwht(1 - 2 * table.astype(np.int32)))
        expected = naive_walsh(table, pairing)
        assert np.array_equal(spectrum.values, expected)
        assert spectrum.classification == classify(expected, n)
    assert spectrum.is_bent == (n % 2 == 0)


def test_walsh_spectrum_leaves_its_callers_array_writable():
    table = kasami_component(F16).table
    expected = naive_walsh(table, pairing_matrix(F16.modulus, 4))
    S = fwht(1 - 2 * table.astype(np.int32))
    # the whole array, and a column view of a writable stack
    stack = np.stack([S, S], axis=1)
    for given, owner in ((S, S), (stack[:, 1], stack)):
        spectrum = WalshSpectrum(F16, given)
        assert given.flags.writeable
        owner[:] = 1
        assert np.array_equal(spectrum.values, expected)
        assert spectrum.is_bent and spectrum.classification == classify(expected, 4)


def test_walsh_spectrum_copies_a_read_only_array_its_caller_can_unfreeze():
    # numpy lets an array's owner make it writable again, so a spectrum that
    # kept it could be changed after its checks and its class
    table = kasami_component(F16).table
    expected = naive_walsh(table, pairing_matrix(F16.modulus, 4))
    S = fwht(1 - 2 * table.astype(np.int32))
    S.flags.writeable = False
    spectrum = WalshSpectrum(F16, S)
    S.flags.writeable = True
    S[:] = 7
    assert np.array_equal(spectrum.values, expected)
    assert spectrum.is_bent and str(spectrum.classification) == "Bent(4)"
    absv, counts = spectrum.abs_counts()
    assert absv.tolist() == [4] and counts.tolist() == [16]


@pytest.mark.parametrize("a", [-1, -7, 16])
def test_walsh_spectrum_refuses_a_point_outside_the_field(a):
    # numpy would read -7 as perm[9] and refuse 16 with its own IndexError
    spectrum = kasami_component(F16).walsh()
    with pytest.raises(FieldError) as err:
        spectrum[a]
    assert str(err.value) == f"element {a:#x} outside GF(2^4)"


@pytest.mark.parametrize("n", [4, 7])
def test_walsh_spectrum_keeps_one_array_and_reads_points_without_gathering(
    n, monkeypatch
):
    field = FieldSpec.default(n)
    f = random_function(field, np.random.default_rng(n))
    expected = naive_walsh(f.table, pairing_matrix(field.modulus, n))
    spectrum = f.walsh()
    assert WalshSpectrum.__slots__ == ("field", "classification", "_spectrum")
    calls = []
    gather = boolfun._field_order
    monkeypatch.setattr(
        boolfun, "_field_order", lambda *args: calls.append(args) or gather(*args)
    )
    assert [spectrum[a] for a in range(field.size)] == expected.tolist()
    assert calls == []
    # values is a fresh field-ordered copy on each read; S is left as it was
    values = spectrum.values
    assert np.array_equal(values, expected) and len(calls) == 1
    values[:] = 0
    assert np.array_equal(spectrum.values, expected)


def test_failures_at_hadamard_index_perm5_name_w5():
    # W(a) = S(perm[a]), and perm[5] = 10 on GF(16): a fault placed at S's
    # entry perm[5] is the field point 5's
    perm = F16.walsh_permutation()
    assert perm[5] != 5
    parseval = np.zeros(16, dtype=np.int32)
    parseval[perm[5]] = 17
    with pytest.raises(VerificationError) as err:
        WalshSpectrum(F16, parseval)
    assert str(err.value) == (
        "Parseval check failed: sum of W(a)^2 is 289, expected 2^8; "
        "largest |W(a)| is W(5) = 17"
    )
    # 15^2 + 5^2 + 2^2 + 1 + 1 = 2^8, and the other odd points follow 5
    parity = np.zeros(16, dtype=np.int32)
    parity[perm[[5, 9, 10, 12, 14]]] = [15, 5, 2, 1, 1]
    with pytest.raises(VerificationError) as err:
        WalshSpectrum(F16, parity)
    assert str(err.value) == "spectrum parity check failed: W(5) = 15 is odd"
    # a column's name prefixes the same witness
    good = fwht(1 - 2 * kasami_component(F16).table.astype(np.int32))
    for bad, message in ((parseval, "Parseval"), (parity, "spectrum parity")):
        with pytest.raises(VerificationError) as err:
            check_parseval_parity(np.stack([good, bad], axis=1), F16, ["f", "g"])
        assert str(err.value).startswith(f"component g: {message} check failed")
        assert "W(5)" in str(err.value)

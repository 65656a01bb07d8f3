"""Field arithmetic: frozen examples plus the algebraic invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentvec import (
    BooleanFunction,
    DefiningSet,
    FieldSpec,
    PRIMITIVE_POLYNOMIALS,
    ReducedPolynomial,
    f2_is_independent,
    f2_rank,
    f2_span,
    kasami_auto_u,
    kasami_family,
)
from bentvec.errors import FieldError
from bentvec.gf2n import _linear_table, prime_factors, clmul_reduce

from oracles import oracle_pow, oracle_trace, poly_mul_mod

F4 = FieldSpec.default(2)
F16 = FieldSpec.default(4)


def test_modulus_table_is_primitive():
    # order-of-generator check doubles as an irreducibility certificate
    for n, modulus in PRIMITIVE_POLYNOMIALS.items():
        spec = FieldSpec(n, modulus, 2 if n > 1 else 1)
        assert spec.modulus == modulus


def test_rejects_non_primitive_setup():
    with pytest.raises(FieldError):
        FieldSpec(4, 0x1F, 2)  # x^4+x^3+x^2+x+1 is irreducible but x has order 5
    with pytest.raises(FieldError):
        FieldSpec(4, 0x18, 2)  # degree-4 mask that is not even irreducible
    with pytest.raises(FieldError):
        FieldSpec(3, 0x13, 2)  # degree mismatch


def test_with_least_generator_on_aes_modulus():
    spec = FieldSpec.with_least_generator(8, 0x11B)
    assert spec.generator == 3  # x+1 is the least primitive element of the AES field
    assert spec.mul(spec.generator, spec.inverse(spec.generator)) == 1


def test_with_least_generator_rejects_bad_modulus_before_scanning(monkeypatch):
    import bentvec.gf2n as gf2n

    def no_scan(*args):
        raise AssertionError("scanned generator candidates")

    monkeypatch.setattr(gf2n, "_order_is_full", no_scan)
    with pytest.raises(FieldError, match="degree"):
        FieldSpec.with_least_generator(16, 0x13)
    with pytest.raises(FieldError, match="irreducible"):
        FieldSpec.with_least_generator(16, 0x10001)  # x^16 + 1 = (x + 1)^16
    with pytest.raises(FieldError, match="1..24"):
        FieldSpec.with_least_generator(30, 0x13)


def test_mul_examples():
    assert all(F16.mul(0, x) == 0 for x in range(16))
    assert F4.mul(2, 2) == 3  # alpha^2 = alpha + 1
    assert F16.mul(2, 8) == 3  # alpha * alpha^3 = alpha + 1


def test_mul_matches_oracle():
    for spec in (F4, F16, FieldSpec.default(6)):
        for a in range(spec.size):
            for b in range(spec.size):
                assert spec.mul(a, b) == poly_mul_mod(a, b, spec.modulus, spec.n)


def test_mul_algebra_exhaustive_small():
    # associativity and distributivity over all triples for n <= 5
    for n in (2, 3, 4, 5):
        spec = FieldSpec.default(n)
        size = spec.size
        a, b, c = np.meshgrid(
            np.arange(size), np.arange(size), np.arange(size), indexing="ij"
        )
        a, b, c = a.ravel(), b.ravel(), c.ravel()
        left = spec.mul_elems(a, spec.mul_elems(b, c))
        right = spec.mul_elems(spec.mul_elems(a, b), c)
        assert np.array_equal(left, right)
        dist_left = spec.mul_elems(a, b ^ c)
        dist_right = spec.mul_elems(a, b) ^ spec.mul_elems(a, c)
        assert np.array_equal(dist_left, dist_right)


def test_mul_algebra_randomized_larger():
    rng = np.random.default_rng(7)
    for n in (6, 8, 10):
        spec = FieldSpec.default(n)
        a, b, c = rng.integers(0, spec.size, size=(3, 200_000))
        assert np.array_equal(
            spec.mul_elems(a, spec.mul_elems(b, c)),
            spec.mul_elems(spec.mul_elems(a, b), c),
        )
        assert np.array_equal(
            spec.mul_elems(a, b ^ c), spec.mul_elems(a, b) ^ spec.mul_elems(a, c)
        )
        assert np.array_equal(spec.mul_elems(a, b), spec.mul_elems(b, a))


# every default field up to n = 12, and an override whose least generator
# is x + 1 rather than x
AXIOM_FIELDS = [FieldSpec.default(n) for n in range(1, 13)] + [
    FieldSpec.with_least_generator(8, 0x11B)
]


@given(field=st.sampled_from(AXIOM_FIELDS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_field_axioms(field, data):
    elems = st.lists(st.integers(0, field.order), min_size=1, max_size=40)
    a = np.array(data.draw(elems))
    b = np.resize(data.draw(elems), a.size)
    c = np.resize(data.draw(elems), a.size)
    ab = field.mul_elems(a, b)
    assert np.array_equal(ab, field.mul_elems(b, a))
    bc = field.mul_elems(b, c)
    assert np.array_equal(field.mul_elems(ab, c), field.mul_elems(a, bc))
    assert np.array_equal(field.mul_elems(a, b ^ c), ab ^ field.mul_elems(a, c))
    assert np.array_equal(field.mul_elems(a, 1), a)
    assert not field.mul_elems(a, 0).any()
    for x, y, xy in zip(a.tolist(), b.tolist(), ab.tolist()):
        assert field.mul(x, y) == xy == poly_mul_mod(x, y, field.modulus, field.n)
    nonzero = a[a != 0]
    if nonzero.size:
        inv = field.inverse_elems(nonzero)
        assert np.all(field.mul_elems(nonzero, inv) == 1)
        assert inv.tolist() == [field.inverse(int(x)) for x in nonzero]
        assert np.array_equal(field.inverse_elems(inv), nonzero)



@given(field=st.sampled_from(AXIOM_FIELDS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_pow_is_repeated_mul(field, data):
    a = data.draw(st.integers(0, field.order))
    e = data.draw(st.integers(0, 40))
    product = 1
    for _ in range(e):
        product = field.mul(product, a)
    assert field.pow(a, e) == product
    assert field.pow_elems(np.array([a]), e).tolist() == [product]
    if a:
        # the exponent reduces mod 2^n - 1, and exponents add
        big = data.draw(st.integers(0, 4 * field.order))
        assert field.pow(a, big) == field.pow(a, big % field.order)
        assert field.mul(field.pow(a, big), product) == field.pow(a, big + e)

def test_pow_examples():
    for x in range(16):
        assert F16.pow(x, 1) == x
    assert F16.pow(2, 5) == 6  # alpha^5 = alpha^2 + alpha
    xs = np.arange(1, 256)
    spec = FieldSpec.default(8)
    assert np.all(spec.pow_elems(xs, spec.order) == 1)  # Lagrange
    assert F16.pow(0, 0) == 1  # documented convention
    assert F16.pow(0, 7) == 0


def test_pow_matches_repeated_mul():
    spec = FieldSpec.default(5)
    for a in range(spec.size):
        for e in range(10):
            assert spec.pow(a, e) == oracle_pow(a, e, spec.modulus, spec.n)


def test_inverse():
    assert F16.inverse(1) == 1
    assert F4.inverse(2) == 3
    spec = FieldSpec.default(8)
    xs = np.arange(1, 256)
    inv = spec.inverse_elems(xs)
    assert np.all(spec.mul_elems(xs, inv) == 1)
    assert np.array_equal(spec.inverse_elems(inv), xs)  # involution
    with pytest.raises(FieldError):
        spec.inverse(0)


def test_trace_examples():
    for m in (1, 2, 4):
        assert F16.trace(0, m) == 0
    assert F4.trace(2, 1) == 1  # alpha + alpha^2 = 1
    values = {F16.trace(x, 2) for x in range(16)}
    assert values == {0, 1, 6, 7}  # the GF(4) subfield
    with pytest.raises(FieldError):
        F16.trace(3, 3)


def test_trace_matches_oracle():
    for spec in (F16, FieldSpec.default(6)):
        for m in (1, spec.n // 2):
            for a in range(spec.size):
                assert spec.trace(a, m) == oracle_trace(a, spec.modulus, spec.n, m)


def test_trace_linearity_exhaustive():
    for n in (4, 6, 8):
        spec = FieldSpec.default(n)
        tr = spec.abs_trace_table()
        idx = np.arange(spec.size)
        pairs = idx[:, None] ^ idx[None, :]
        assert np.array_equal(tr[pairs], tr[:, None] ^ tr[None, :])


def test_trace_transitivity():
    spec = FieldSpec.default(12)
    for m in (2, 3, 4, 6):
        for a in range(0, spec.size, 97):  # stride sample
            inner = spec.trace(a, m)
            assert spec.trace(a, 1) == spec.subfield_abs_trace(inner, m)


def test_trace_lands_in_subfield():
    spec = FieldSpec.default(6)
    for m in (1, 2, 3):
        sub = set(int(x) for x in spec.subfield(m))
        for a in range(spec.size):
            assert spec.trace(a, m) in sub


def test_absolute_trace_balanced():
    for n in range(1, 13):
        spec = FieldSpec.default(n)
        assert int(spec.abs_trace_table().sum()) == spec.size // 2


def test_subfield_elements():
    spec = FieldSpec.default(6)
    assert np.array_equal(spec.subfield(6), np.arange(64))
    assert list(spec.subfield(1)) == [0, 1]
    assert list(F16.subfield(2)) == [0, 1, 6, 7]
    with pytest.raises(FieldError):
        F16.subfield(3)
    # Frobenius fixes exactly the subfield
    for m in (1, 2, 3):
        members = set(int(x) for x in spec.subfield(m))
        xs = np.arange(spec.size, dtype=np.int64)
        fixed = set(xs[spec.pow_elems(xs, 1 << m) == xs].tolist())
        assert fixed == members


def test_unit_circle():
    for n in (2, 4, 6, 8):
        spec = FieldSpec.default(n)
        circle = spec.unit_circle()
        k = n // 2
        assert len(circle) == (1 << k) + 1
        assert 1 in circle
        assert np.all(spec.pow_elems(circle, (1 << k) + 1) == 1)
    assert list(F16.unit_circle()) == [1, 8, 10, 12, 15]
    with pytest.raises(FieldError):
        FieldSpec.default(3).unit_circle()
    # circle of the middle subfield, used by the Gold-like family
    spec8 = FieldSpec.default(8)
    inner = spec8.unit_circle(4)
    sub = set(int(x) for x in spec8.subfield(4))
    assert len(inner) == 5 and all(int(x) in sub for x in inner)


def test_subfield_basis():
    spec = FieldSpec.default(12)
    for m in (2, 3, 4, 6):
        basis = spec.subfield_basis(m)
        assert len(basis) == m
        assert f2_is_independent(basis)
        sub = set(int(x) for x in spec.subfield(m))
        assert set(f2_span(basis)) == sub
        assert basis[0] == 1  # least nonzero subfield element


def _least_basis(elements, m):
    """First m-subset of `elements` (ascending) in lexicographic order whose
    span has 2^m elements, by a search over subsets that skips each prefix
    already inside its own span."""

    def extend(prefix, span, start):
        if len(prefix) == m:
            return prefix
        for i in range(start, len(elements)):
            x = elements[i]
            if x not in span:
                found = extend([*prefix, x], span | {s ^ x for s in span}, i + 1)
                if found:
                    return found
        return None

    return extend([], {0}, 0)


def test_subfield_basis_is_the_least_basis_by_brute_force():
    for n in range(1, 13):
        spec = FieldSpec.default(n)
        for m in (m for m in range(1, n + 1) if n % m == 0):
            sub = []
            for x in range(1, 1 << n):
                y = x
                for _ in range(m):
                    y = poly_mul_mod(y, y, spec.modulus, n)
                if y == x:  # x^(2^m) = x
                    sub.append(x)
            assert len(sub) == (1 << m) - 1
            assert spec.subfield_basis(m) == _least_basis(sub, m), (n, m)


def test_serialize_roundtrip():
    spec = FieldSpec.default(8)
    text = spec.serialize()
    assert text == "n:8 modulus:11d generator:2"
    assert FieldSpec.parse(text) == spec


def test_f2_linear_algebra_helpers():
    assert f2_rank([1, 2, 3]) == 2
    assert f2_is_independent([1, 2, 4])
    assert not f2_is_independent([1, 2, 3])
    assert f2_span([1, 2]) == [0, 1, 2, 3]
    assert f2_span([]) == [0]
    assert f2_span([3, 1, 2, 3, 1]) == [0, 1, 2, 3]  # dependent values add nothing


def testprime_factors():
    assert prime_factors(63) == [3, 7]
    assert prime_factors(2**16 - 1) == [3, 5, 17, 257]


def test_clmul_reduce_against_oracle():
    spec = FieldSpec.default(7)
    rng = np.random.default_rng(3)
    for _ in range(500):
        a, b = int(rng.integers(0, 128)), int(rng.integers(0, 128))
        assert clmul_reduce(a, b, spec.modulus, 7) == poly_mul_mod(a, b, spec.modulus, 7)


def test_large_degree_table_entries_have_full_order():
    # avoid building 2^n tables: certify the order directly
    from bentvec.gf2n import _order_is_full

    for n in range(17, 25):
        modulus = PRIMITIVE_POLYNOMIALS[n]
        order = (1 << n) - 1
        assert _order_is_full(2, modulus, n, order, prime_factors(order))


def _unchecked_spec(n, modulus, generator):
    # a FieldSpec that skips __post_init__, to reach the table builder's
    # own guards
    spec = object.__new__(FieldSpec)
    for name, value in (("n", n), ("modulus", modulus), ("generator", generator)):
        object.__setattr__(spec, name, value)
    return spec


def test_exp_log_tables_match_repeated_multiplication():
    from bentvec.gf2n import _exp_log

    for n in range(1, 11):
        spec = FieldSpec.default(n)
        exp, log = _exp_log(spec)
        a = 1
        for k in range(spec.order):
            assert exp[k] == a and log[a] == k
            a = clmul_reduce(a, spec.generator, spec.modulus, n)
        assert log[0] == -1
        assert not exp.flags.writeable and not log.flags.writeable


def test_exp_log_rejects_short_order_and_reducible_modulus():
    from bentvec.gf2n import _exp_log

    # alpha^3 has order 5 in GF(16)
    with pytest.raises(FieldError, match=r"generator 0x8 has order 5 < 15"):
        _exp_log(_unchecked_spec(4, 0x13, 0x8))
    # modulo x^2 the powers of x are 1, x, 0: all distinct, but x^3 != 1
    with pytest.raises(FieldError, match=r"modulus 0x4 is not irreducible"):
        _exp_log(_unchecked_spec(2, 0x4, 0x2))


def test_walsh_permutation_refuses_a_non_symmetric_trace_form(monkeypatch):
    import bentvec.gf2n as gf2n

    # Tr(alpha alpha^0) read at a corrupted product: for odd n, Tr(1) = 1, so
    # the entry M_10 differs from M_01.  A corrupted trace table alone cannot
    # do this, since M_ij and M_ji read the table at the same element.
    field = FieldSpec.default(5)
    build = gf2n._walsh_permutation.__wrapped__  # past the per-field cache
    assert np.array_equal(build(field), field.walsh_permutation())
    product = gf2n.clmul_reduce
    monkeypatch.setattr(
        gf2n,
        "clmul_reduce",
        lambda a, b, modulus, n: product(a, b, modulus, n) ^ ((a, b) == (2, 1)),
    )
    with pytest.raises(FieldError, match="trace form of modulus 0x25 is not symmetric"):
        build(field)


@pytest.mark.parametrize(
    "n, modulus", [(n, None) for n in range(1, 17)] + [(8, 0x11B), (6, 0x49)]
)
def test_subgroups_match_the_exp_table_enumeration(n, modulus):
    # the overrides' least generators are 3, not alpha
    from bentvec.gf2n import _exp_log

    if modulus is None:
        spec = FieldSpec.default(n)
    else:
        spec = FieldSpec.with_least_generator(n, modulus)
        assert spec.generator == 3
    exp, _ = _exp_log(spec)
    for m in (m for m in range(1, n + 1) if n % m == 0):
        count = (1 << m) - 1
        nonzero = exp[np.arange(count) * (spec.order // count)]
        assert np.array_equal(spec.subfield(m), np.sort(np.append(nonzero, 0)))
        if m % 2 == 0:
            count = (1 << (m // 2)) + 1
            circle = np.sort(exp[np.arange(count) * (spec.order // count)])
            got = spec.unit_circle(m)
            assert got.dtype == np.int64 and np.array_equal(got, circle)


def test_subfield_abs_trace_keeps_its_messages_and_their_order():
    cases = [
        ((2, 3), "3 does not divide n=4"),
        ((16, 2), "element 0x10 outside GF(2^4)"),
        ((2, 2), "0x2 is not in the subfield F_(2^2)"),
        ((8, 1), "0x8 is not in the subfield F_(2^1)"),
    ]
    for args, message in cases:
        with pytest.raises(FieldError) as err:
            F16.subfield_abs_trace(*args)
        assert str(err.value) == message
    assert [F16.subfield_abs_trace(y, 2) for y in (0, 1, 6, 7)] == [0, 0, 1, 1]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.int64])
def test_linear_table_is_the_xor_over_the_bits_of_its_index(dtype):
    rng = np.random.default_rng(41)
    top = np.iinfo(dtype).max
    for count in (0, 1, 5, 9):
        images = [int(w) for w in rng.integers(0, top, count, dtype=dtype, endpoint=True)]
        table = _linear_table(images, dtype)
        assert table.dtype == dtype and table.shape == (1 << count,)
        for c in range(1 << count):
            want = 0
            for j, w in enumerate(images):
                if c >> j & 1:
                    want ^= w
            assert int(table[c]) == want, (count, c)


# U1 is an element every caller below takes, kasami_family's first u included
U1, U2 = kasami_auto_u(F16)


def _element_callers():
    f = BooleanFunction.from_univariate(F16, [(2, 5)])
    spectrum = f.walsh()
    x1x2 = ReducedPolynomial.make(2, [(1, 2)])
    return {
        "check": F16.check,
        "mul left": lambda a: F16.mul(a, 3),
        "mul right": lambda a: F16.mul(3, a),
        "WalshSpectrum": lambda a: spectrum[a],
        "DefiningSet": lambda a: DefiningSet(F16, (1, a)).elements[1],
        "scale_input": f.scale_input,
        "kasami_family": lambda a: kasami_family(F16, [a, U2], x1x2).report.u_values[0],
    }


ELEMENT_CALLERS = _element_callers()


@pytest.mark.parametrize("caller", ELEMENT_CALLERS)
@pytest.mark.parametrize(
    "bad", [2.5, np.float64(3.0), "3", None], ids=["float", "np.float64", "str", "None"]
)
def test_a_non_integer_element_is_refused_not_truncated(caller, bad):
    with pytest.raises(FieldError) as err:
        ELEMENT_CALLERS[caller](bad)
    assert str(err.value) == f"element {bad!r} is not an integer"


@pytest.mark.parametrize("caller", ELEMENT_CALLERS)
def test_a_numpy_integer_element_is_taken_as_a_python_int(caller):
    got = ELEMENT_CALLERS[caller](np.uint8(U1))
    assert got == ELEMENT_CALLERS[caller](U1)
    if caller != "scale_input":  # the others return the element or a value
        assert type(got) is int

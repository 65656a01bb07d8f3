"""The two butterflies (fwht, _mobius) and the field-paired inverse."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bentvec.boolfun as boolfun
from bentvec import BooleanFunction, FieldSpec
from bentvec.boolfun import (
    PASS_BUFSIZE,
    _mobius,
    check_parseval_parity,
    check_round_trip,
    fwht,
)
from bentvec.errors import VerificationError

from oracles import naive_subset_xor, sylvester_hadamard

TRAILING = st.one_of(
    st.just(()), st.integers(1, 5).map(lambda k: (k,)), st.just((2, 3))
)


FWHT_CASES = dict(
    n=st.integers(0, 9),
    trailing=TRAILING,
    dtype=st.sampled_from([np.int32, np.int64, np.int8, np.int16, np.uint8, np.bool_]),
    seed=st.integers(0, 2**32 - 1),
)


def _assert_sylvester_product(n, trailing, dtype, seed):
    rng = np.random.default_rng(seed)
    shape = (1 << n, *trailing)
    if dtype == np.bool_:
        signs = rng.integers(0, 2, shape).astype(bool)
    else:
        info = np.iinfo(dtype)
        # int32 stays int32, so keep every partial sum inside its range
        bound = min(info.max, 1 << (30 - n))
        signs = rng.integers(max(info.min, -bound), bound, shape, endpoint=True)
        signs = signs.astype(dtype)
    before = signs.copy()
    got = fwht(signs)
    want = np.tensordot(sylvester_hadamard(n), signs.astype(np.int64), axes=1)
    assert got.dtype == (np.int32 if dtype == np.int32 else np.int64)
    assert got.shape == shape
    assert np.array_equal(got, want)
    assert np.array_equal(signs, before) and signs.dtype == dtype


@given(**FWHT_CASES)
@settings(max_examples=120, deadline=None)
def test_fwht_is_the_sylvester_hadamard_product(n, trailing, dtype, seed):
    _assert_sylvester_product(n, trailing, dtype, seed)


@given(**FWHT_CASES, tile=st.sampled_from([16, 64]))
@settings(max_examples=120, deadline=None)
def test_tiled_fwht_is_the_sylvester_hadamard_product(n, trailing, dtype, seed, tile):
    # a small tile constant sends every array above it through the tiled
    # butterfly, a few entries a tile
    with mock.patch.object(boolfun, "TILE_ENTRIES", tile):
        _assert_sylvester_product(n, trailing, dtype, seed)


@pytest.mark.parametrize("n, trailing", [(7, ()), (8, (3,)), (9, (2, 3))])
def test_small_tile_constant_splits_the_butterfly(monkeypatch, n, trailing):
    monkeypatch.setattr(boolfun, "TILE_ENTRIES", 32)
    passes, sizes = boolfun._passes, []

    def counted(a, tmp):
        sizes.append(a.size)
        passes(a, tmp)

    monkeypatch.setattr(boolfun, "_passes", counted)
    signs = np.random.default_rng(n).integers(-8, 9, (1 << n, *trailing))
    got = fwht(signs)
    assert np.array_equal(got, np.tensordot(sylvester_hadamard(n), signs, axes=1))
    assert len(sizes) > 2 and max(sizes) <= 32


@given(
    n=st.integers(0, 9),
    trailing=TRAILING,
    dtype=st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64, np.int64]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_mobius_is_the_subset_sum_anf(n, trailing, dtype, seed):
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    shape = (1 << n, *trailing)
    words = rng.integers(0, info.max, shape, dtype=np.uint64, endpoint=True)
    words = words.astype(dtype)
    before = words.copy()
    got = _mobius(words)
    assert got.dtype == dtype
    assert np.array_equal(got, naive_subset_xor(words))
    assert np.array_equal(words, before)
    assert np.array_equal(_mobius(got), words)  # self-inverse


def _parity(v):
    return np.bitwise_count(np.asarray(v, dtype=np.uint64)) & 1


def _fields():
    yield from (FieldSpec.default(n) for n in range(1, 17))
    yield FieldSpec.with_least_generator(4, 0x19)  # x^4 + x^3 + 1


@pytest.mark.parametrize("field", _fields(), ids=lambda f: f"n{f.n}-{f.modulus:x}")
def test_pairing_is_symmetric_so_the_inverse_gathers(field):
    # parity(perm[a] & x) = Tr(a x) = Tr(x a) = parity(a & perm[x])
    perm = field.walsh_permutation()
    if field.n <= 8:
        a, x = np.meshgrid(np.arange(field.size), np.arange(field.size), indexing="ij")
        a, x = a.ravel(), x.ravel()
    else:
        rng = np.random.default_rng(field.n)
        a, x = rng.integers(0, field.size, (2, 1 << 16))
        basis = 1 << np.arange(field.n)
        a = np.concatenate([a, np.repeat(basis, field.n)])
        x = np.concatenate([x, np.tile(basis, field.n)])
    pairing = _parity(perm[a] & x)
    assert np.array_equal(pairing, _parity(a & perm[x]))
    assert np.array_equal(pairing, field.abs_trace_table()[field.mul_elems(a, x)])


def test_round_trip_refuses_an_inverse_off_by_less_than_2n(monkeypatch):
    import bentvec.boolfun as boolfun

    n = 6
    field = FieldSpec.default(n)
    table = np.random.default_rng(6).integers(0, 2, field.size, dtype=np.uint8)
    fwht_ok = boolfun.fwht
    calls = []

    def inverse_plus_one(signs):
        out = fwht_ok(signs)
        calls.append(1)
        if len(calls) == 2:  # walsh()'s inverse butterfly
            out += 1
        return out

    monkeypatch.setattr(boolfun, "fwht", inverse_plus_one)
    sign = 1 - 2 * int(table[0])
    with pytest.raises(VerificationError) as err:
        BooleanFunction(field, table).walsh()
    assert str(err.value) == (
        f"Walsh round-trip failed at x = 0: inverse gives "
        f"{(sign << n) + 1}/2^{n}, table sign is {sign}"
    )


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_memory_at_n16():
    n = 16
    field = FieldSpec.default(n)
    column = 4 << n  # bytes of one int32 array of 2^n entries
    # numpy's ufunc buffers for up to three strided operands, and 16 KB for
    # views and other small objects
    slack = 3 * 4 * PASS_BUFSIZE + 16384
    x = np.arange(1 << n, dtype=np.uint32)
    half = np.uint32((1 << (n // 2)) - 1)
    # Maiorana-McFarland <x_low, x_high>: bent, so classify takes no sort
    table = (np.bitwise_count(x & half & (x >> (n // 2))) & 1).astype(np.uint8)
    signs = 1 - 2 * table.astype(np.int32)
    # the result and a scratch buffer of half the array
    assert _traced_peak(lambda: fwht(signs)) <= 1.5 * column + slack
    f = BooleanFunction(field, table)
    # spectrum, inverse butterfly, its half-array scratch and the int8
    # signs, a quarter column; the Hadamard-indexed spectrum needs no field
    # permutation
    assert _traced_peak(f.walsh) <= 2.75 * column + slack
    assert f.is_bent()
    # a random table's spectrum has many levels, which classify sorts in
    # place, within the same bound
    rng = np.random.default_rng(16)
    g = BooleanFunction(field, rng.integers(0, 2, 1 << n, dtype=np.uint8))
    assert _traced_peak(g.walsh) <= 2.75 * column + slack
    assert g.classification().kind == "mixed"


def test_spectrum_memory_at_n20_through_tiles():
    n = 20
    field = FieldSpec.default(n)
    column = 4 << n
    slack = 3 * 4 * PASS_BUFSIZE + 16384  # as at n = 16
    x = np.arange(1 << n, dtype=np.uint32)
    half = np.uint32((1 << (n // 2)) - 1)
    table = (np.bitwise_count(x & half & (x >> (n // 2))) & 1).astype(np.uint8)
    f = BooleanFunction(field, table)
    assert field.size > boolfun.TILE_ENTRIES
    # spectrum, inverse butterfly, one byte a point for the signs and the
    # tiled butterfly's scratch of 1.5 tiles
    tile_scratch = 3 * 4 * boolfun.TILE_ENTRIES // 2
    assert _traced_peak(f.walsh) <= 2 * column + (1 << n) + tile_scratch + slack
    assert f.is_bent()


@pytest.mark.parametrize("rows, form", [(slice(None), "whole"), (0, "fraction")])
def test_round_trip_messages_do_not_depend_on_the_sign_dtype(rows, form):
    n = 6
    rng = np.random.default_rng(n)
    signs = (1 - 2 * rng.integers(0, 2, (1 << n, 3))).astype(np.int8)
    values = fwht(signs.astype(np.int32))
    # 1 added to every entry of a column adds 2^n to its inverse at x = 0;
    # 1 added at index 0 alone adds 1 at every x
    values[rows, 1] += 1
    sign = int(signs[0, 1])
    shown = f"{sign + 1}" if form == "whole" else f"{(sign << n) + 1}/2^{n}"
    want = (
        f"component (2, 0): Walsh round-trip failed at x = 0: inverse gives "
        f"{shown}, table sign is {sign}"
    )
    for dtype in (np.int8, np.int32):
        with pytest.raises(VerificationError) as err:
            check_round_trip(values, signs.astype(dtype), [(1, 0), (2, 0), (3, 0)])
        assert str(err.value) == want


def test_tiled_fwht_at_n20_matches_the_untiled_one_within_its_memory(monkeypatch):
    n = 20
    column = 4 << n
    slack = 3 * 4 * PASS_BUFSIZE + 16384  # as at n = 16
    rng = np.random.default_rng(20)
    signs = 1 - 2 * rng.integers(0, 2, 1 << n, dtype=np.uint8).astype(np.int32)
    assert signs.size > boolfun.TILE_ENTRIES
    result = []
    # the result and a scratch buffer of 1.5 tiles, within the half array
    # that the untiled butterfly takes
    scratch = min(column // 2, 3 * 4 * boolfun.TILE_ENTRIES // 2)
    assert _traced_peak(lambda: result.append(fwht(signs))) <= column + scratch + slack
    monkeypatch.setattr(boolfun, "TILE_ENTRIES", 1 << n)
    assert np.array_equal(result[0], fwht(signs))


@pytest.mark.parametrize("n, tile", [(17, 1 << 16), (19, boolfun.TILE_ENTRIES)])
def test_walsh_round_trip_at_odd_n_through_tiles(monkeypatch, n, tile):
    monkeypatch.setattr(boolfun, "TILE_ENTRIES", tile)
    field = FieldSpec.default(n)
    assert field.size > tile
    rng = np.random.default_rng(n)
    table = rng.integers(0, 2, field.size, dtype=np.uint8)
    spectrum = BooleanFunction(field, table).walsh()  # checks the round trip
    xs = np.arange(field.size)
    trace = field.abs_trace_table()
    for a in [0, 1, *rng.integers(2, field.size, 4).tolist()]:
        mismatches = np.count_nonzero(table ^ trace[field.mul_elems(a, xs)])
        assert spectrum[a] == field.size - 2 * mismatches


def test_degree_at_n20_peaks_below_one_table():
    n = 20
    field = FieldSpec.default(n)
    rng = np.random.default_rng(n)
    f = BooleanFunction(field, rng.integers(0, 2, field.size, dtype=np.uint8))
    # the packed ANF and its scratch take an eighth of the uint8 table each
    assert _traced_peak(f.degree) <= f.table.nbytes
    # the byte-per-point butterfly as reference
    masks = np.flatnonzero(_mobius(f.table)).astype(np.uint64)
    assert f.degree() == int(np.bitwise_count(masks).max())


@pytest.mark.parametrize("n, cols", [(6, 3), (18, 2)])  # untiled and tiled
def test_fwht_into_out_equals_the_copying_transform(n, cols):
    rng = np.random.default_rng(n)
    signs = (1 - 2 * rng.integers(0, 2, (1 << n, cols))).astype(np.int32)
    expected = fwht(signs)
    kept = signs.copy()
    other = np.empty_like(signs, dtype=np.int64)
    assert fwht(signs, out=other) is other
    assert np.array_equal(other, expected) and np.array_equal(signs, kept)
    assert fwht(signs, out=signs) is signs
    assert np.array_equal(signs, expected)
    with pytest.raises(TypeError):
        fwht(kept, out=kept.astype(np.int8))


def test_parity_check_at_n20_allocates_no_column():
    n = 20
    field = FieldSpec.default(n)
    column = 4 * field.size
    x = np.arange(1 << n, dtype=np.uint32)
    half = np.uint32((1 << (n // 2)) - 1)
    table = (np.bitwise_count(x & half & (x >> (n // 2))) & 1).astype(np.uint8)
    S = fwht(1 - 2 * table.astype(np.int32))
    # the Parseval sum streams through einsum and the parity is one
    # reduction, so no whole-array temporary is made
    assert _traced_peak(lambda: check_parseval_parity(S, field)) <= 0.1 * column


def test_abs_counts_at_n20_sorts_one_copy():
    n = 20
    field = FieldSpec.default(n)
    column = 4 * field.size
    rng = np.random.default_rng(n)
    spectrum = BooleanFunction(field, rng.integers(0, 2, field.size, dtype=np.uint8)).walsh()
    assert spectrum.classification.kind == "mixed"
    result = []
    # |W| sorted in place and a byte a point for its level boundaries
    assert _traced_peak(lambda: result.append(spectrum.abs_counts())) <= 1.5 * column
    absv, counts = result[0]
    levels, expected = np.unique(np.abs(spectrum._spectrum), return_counts=True)
    assert np.array_equal(absv, levels) and np.array_equal(counts, expected)
    assert absv.dtype == levels.dtype and counts.dtype == expected.dtype

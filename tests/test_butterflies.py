"""The two butterflies (fwht, _mobius) and the field-paired inverse."""

import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    if dtype not in (np.int16, np.int32, np.int64):
        # refused before anything is written
        with pytest.raises(TypeError):
            fwht(signs)
        assert np.array_equal(signs, before) and signs.dtype == dtype
        return
    # transformed in place into the product of a copy; int16 holds it
    # modulo 2^16, which the cast to int16 wraps to as well
    want = np.tensordot(sylvester_hadamard(n), before.astype(np.int64), axes=1)
    want = want.astype(dtype)
    assert fwht(signs) is signs
    assert signs.dtype == dtype and signs.shape == shape
    assert np.array_equal(signs, want)


@given(**FWHT_CASES)
@settings(max_examples=120, deadline=None)
def test_fwht_is_the_sylvester_hadamard_product(n, trailing, dtype, seed):
    _assert_sylvester_product(n, trailing, dtype, seed)


@given(**FWHT_CASES, tile=st.sampled_from([64, 256]))
# n = 1 above a tile: lo = 0 leaves the low bits a transform of length 1
@example(n=1, trailing=(2, 3), dtype=np.int64, seed=0, tile=64)
@settings(max_examples=120, deadline=None)
def test_tiled_fwht_is_the_sylvester_hadamard_product(n, trailing, dtype, seed, tile):
    # a small tile constant sends every array above it through the tiled
    # butterfly, a few entries a tile: 8 to 128, by the dtype's bytes
    with mock.patch.object(boolfun, "TILE_BYTES", tile):
        _assert_sylvester_product(n, trailing, dtype, seed)


@pytest.mark.parametrize("n, trailing", [(7, ()), (8, (3,)), (9, (2, 3))])
def test_small_tile_constant_splits_the_butterfly(monkeypatch, n, trailing):
    monkeypatch.setattr(boolfun, "TILE_BYTES", 32 * 8)  # 32 int64 entries
    passes, sizes = boolfun._passes, []

    def counted(a, tmp):
        sizes.append(a.size)
        passes(a, tmp)

    monkeypatch.setattr(boolfun, "_passes", counted)
    signs = np.random.default_rng(n).integers(-8, 9, (1 << n, *trailing))
    got = fwht(signs.copy())
    assert np.array_equal(got, np.tensordot(sylvester_hadamard(n), signs, axes=1))
    assert len(sizes) > 2 and max(sizes) <= 32


@lru_cache(maxsize=None)
def _hadamard(n):
    return sylvester_hadamard(n)


def _split_taken(shape, dtype, tile_bytes):
    """Whether fwht should split an array of `shape` and `dtype` as
    H_(2^hi) (x) H_(2^lo) within one tile, at TILE_BYTES = tile_bytes:
    rows of 2, 4 or 8 bytes of int16 or int32, from half a tile to a
    tile, and lo, the least whose 2^lo rows are longer than ROW_BYTES,
    low enough that a quarter of the rows holds its transforms."""
    itemsize = np.dtype(dtype).itemsize
    size = int(np.prod(shape))
    row = size // shape[0] * itemsize
    if itemsize > 4 or row not in (2, 4, 8) or not tile_bytes // 2 <= size * itemsize <= tile_bytes:
        return False
    return 4 << (boolfun.ROW_BYTES // row).bit_length() <= shape[0]


@given(
    n=st.integers(8, 11),
    cols=st.sampled_from([(), (1,), (2,), (3,)]),
    dtype=st.sampled_from([np.int16, np.int32, np.int64]),
    # the tile as a multiple of the array's bytes: half a tile sends it to
    # the tiled butterfly, one or two tiles to the split one when its rows
    # are narrow, four below half a tile to plain passes
    tiles=st.sampled_from([0.5, 1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_split_fwht_is_the_sylvester_hadamard_product(n, cols, dtype, tiles, seed):
    # entries over the whole dtype's range, so that every partial sum may
    # wrap: the int64 product wraps modulo 2^64 as the butterfly does, and
    # casting it wraps to the dtype
    info = np.iinfo(dtype)
    shape = (1 << n, *cols)
    rng = np.random.default_rng(seed)
    signs = rng.integers(info.min, info.max, shape, dtype=np.int64, endpoint=True).astype(dtype)
    tile_bytes = int(signs.nbytes * tiles)
    tiled, calls = boolfun._tiled, []

    def counted(a, lo, buf):
        calls.append(a.nbytes <= tile_bytes)
        tiled(a, lo, buf)

    want = np.tensordot(_hadamard(n), signs.astype(np.int64), axes=1).astype(dtype)
    with mock.patch.object(boolfun, "TILE_BYTES", tile_bytes):
        with mock.patch.object(boolfun, "_tiled", counted):
            assert fwht(signs) is signs
    assert np.array_equal(signs, want)
    # within a tile only the split reaches `_tiled`; above, the tiles do
    assert calls == ([True] if _split_taken(shape, dtype, tile_bytes) else [False] * (tiles < 1))


@pytest.mark.parametrize(
    "dtype, n, cols",
    [(np.int16, 18, ()), (np.int16, 17, ()), (np.int16, 17, (1,)), (np.int16, 16, (2,)),
     (np.int16, 15, (4,)), (np.int32, 17, ()), (np.int32, 16, (1,)), (np.int32, 16, (2,)),
     (np.int32, 15, (2,))],
)
def test_split_fwht_matches_plain_passes_at_engine_sizes(dtype, n, cols):
    # bit for bit, int16 modulo 2^16 included, against the butterfly run
    # whole as below half a tile
    rng = np.random.default_rng(n)
    signs = rng.integers(-(1 << 14), 1 << 14, (1 << n, *cols)).astype(dtype)
    assert _split_taken(signs.shape, dtype, boolfun.TILE_BYTES)
    want = signs.copy()
    boolfun._passes(want, np.empty_like(want[: len(want) // 2]))
    assert np.array_equal(fwht(signs), want)


def test_split_fwht_of_a_walsh_part_at_n20_takes_half_the_array():
    # a (2^18,) int16 part, 512 KB: its low bits in transposed quarters
    # with their pass scratch, 3/8 of the array, then its high bits in
    # place with half the array, one buffer for both.  verify-vf's (2^16,
    # 3) int32 and (2^16, 12) int16 blocks, 1.5 and 3 tiles, are tiled in
    # 1.5 tiles of a third of the array, half of it: their high bits too
    # run in place in that buffer.  Each bit for bit as the plain passes
    slack = 3 * 4 * PASS_BUFSIZE + 16384  # as at n = 16
    passes, rng = boolfun._passes, np.random.default_rng(18)
    for shape, dtype, tiles in [((1 << 18,), np.int16, 1), ((1 << 16, 3), np.int32, 1.5),
                                ((1 << 16, 12), np.int16, 3)]:
        signs = (1 - 2 * rng.integers(0, 2, shape)).astype(dtype)
        assert signs.nbytes == tiles * boolfun.TILE_BYTES
        want = signs.copy()
        passes(want, np.empty_like(want[: len(want) // 2]))
        sizes = []
        with mock.patch.object(boolfun, "_passes", lambda a, tmp: sizes.append(a.size)):
            fwht(signs.copy())
        assert max(sizes) == signs.size  # the high bits, in place
        assert _traced_peak(lambda: fwht(signs)) <= signs.nbytes // 2 + slack
        assert np.array_equal(signs, want)


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
    got = words.copy()
    assert _mobius(got) is got  # in place
    assert got.dtype == dtype
    assert np.array_equal(got, naive_subset_xor(words))
    assert np.array_equal(_mobius(got.copy()), words)  # self-inverse


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
    # in place: a scratch buffer of half the array
    assert _traced_peak(lambda: fwht(signs)) <= 0.5 * column + slack
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
    assert 4 * field.size > boolfun.TILE_BYTES
    # spectrum, inverse butterfly, the tiled butterfly's scratch of 1.5
    # tiles and one gather chunk: the intp indices of its rows and the
    # int32 signs of the round trip
    tile_scratch = 3 * boolfun.TILE_BYTES // 2
    chunk = (8 + 4) * boolfun.GATHER_ENTRIES
    assert _traced_peak(f.walsh) <= 2 * column + tile_scratch + chunk + slack
    assert f.is_bent()


@pytest.mark.parametrize("rows, form", [(slice(None), "whole"), (0, "fraction")])
def test_round_trip_messages_do_not_depend_on_the_sign_dtype(rows, form):
    n = 6
    rng = np.random.default_rng(n)
    # three sign columns of a table with four rows, gathered through a word
    tab = (1 - 2 * rng.integers(0, 2, (4, 3))).astype(np.int8)
    word = rng.integers(0, 4, 1 << n).astype(np.uint32)
    signs = tab[word]
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
        # the inverse overwrites its input, so each dtype checks a fresh copy
        with pytest.raises(VerificationError) as err:
            check_round_trip(values.copy(), word, tab.astype(dtype), [(1, 0), (2, 0), (3, 0)])
        assert str(err.value) == want


def test_tiled_fwht_at_n20_matches_the_untiled_one_within_its_memory(monkeypatch):
    n = 20
    column = 4 << n
    slack = 3 * 4 * PASS_BUFSIZE + 16384  # as at n = 16
    rng = np.random.default_rng(20)
    signs = 1 - 2 * rng.integers(0, 2, 1 << n, dtype=np.uint8).astype(np.int32)
    assert signs.nbytes > boolfun.TILE_BYTES
    tiled = signs.copy()
    # in place: a scratch buffer of 1.5 tiles, within the half array that
    # the untiled butterfly takes
    scratch = min(column // 2, 3 * boolfun.TILE_BYTES // 2)
    assert _traced_peak(lambda: fwht(tiled)) <= scratch + slack
    monkeypatch.setattr(boolfun, "TILE_BYTES", 4 << n)
    assert np.array_equal(tiled, fwht(signs))


# tiles of int32 entries, as every odd n transforms in int32
@pytest.mark.parametrize("n, tile", [(17, 1 << 16), (19, boolfun.TILE_BYTES // 4)])
def test_walsh_round_trip_at_odd_n_through_tiles(monkeypatch, n, tile):
    monkeypatch.setattr(boolfun, "TILE_BYTES", 4 * tile)
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
    masks = np.flatnonzero(_mobius(f.table.copy())).astype(np.uint64)
    assert f.degree() == int(np.bitwise_count(masks).max())


@pytest.mark.parametrize("n, cols", [(6, 3), (18, 2)])  # untiled and tiled
def test_fwht_transforms_in_place_and_refuses_other_input(n, cols):
    rng = np.random.default_rng(n)
    signs = (1 - 2 * rng.integers(0, 2, (1 << n, cols))).astype(np.int32)
    expected = fwht(signs.astype(np.int64))
    assert fwht(signs) is signs
    assert np.array_equal(signs, expected)
    for other in (signs.astype(np.int8), signs.astype(np.float64), signs.tolist()):
        kept = np.array(other)
        with pytest.raises(TypeError):
            fwht(other)
        assert np.array_equal(np.array(other), kept)


@pytest.mark.parametrize("trailing", [(2,), (2, 3)])
def test_fwht_of_a_fortran_ordered_array_above_a_tile(trailing):
    # the tiled butterfly's views need C order; any other layout is
    # transformed whole, still in place
    n = 18
    rng = np.random.default_rng(n)
    signs = np.asfortranarray(1 - 2 * rng.integers(0, 2, (1 << n, *trailing)))
    assert signs.nbytes > boolfun.TILE_BYTES and not signs.flags.c_contiguous
    expected = fwht(np.ascontiguousarray(signs))
    assert fwht(signs) is signs
    assert np.array_equal(signs, expected)


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
    levels, expected = np.unique(np.abs(spectrum.values), return_counts=True)
    assert np.array_equal(absv, levels) and np.array_equal(counts, expected)
    assert absv.dtype == levels.dtype and counts.dtype == expected.dtype

"""What a WalshSpectrum keeps: one array, a bent one as packed sign bits.

A bent S = 2^(n/2) (-1)^bits is kept as its amplitude (in its class) and
its sign bits, 2^n / 8 bytes; any other S as a copy.  Every reader goes
through one accessor, so each is checked here against the literal double
sum, and `classify`, which reads |W| one slice of TILE_BYTES at a time, is
checked against its one-slice pass.
"""

import tracemalloc

import numpy as np
import pytest

from bentvec import BooleanFunction, FieldSpec, NotBentError, classify
from bentvec import boolfun
from bentvec.boolfun import PASS_BUFSIZE, WalshSpectrum, fwht
from bentvec.errors import VerificationError

from oracles import naive_walsh, oracle_trace, pairing_matrix, poly_mul_mod


def maiorana_mcfarland(n):
    """<x_low, x_high> on the index bits: bent for even n."""
    x = np.arange(1 << n, dtype=np.uint32)
    half = np.uint32((1 << (n // 2)) - 1)
    return (np.bitwise_count(x & half & (x >> (n // 2))) & 1).astype(np.uint8)


def tables(n):
    """(name, table) of a bent function for even n and two that are not."""
    rng = np.random.default_rng(n)
    out = [("random", rng.integers(0, 2, 1 << n, dtype=np.uint8))]
    # an affine function has two levels, 0 and 2^n
    out.append(("affine", (np.bitwise_count(np.arange(1 << n) & 5) & 1).astype(np.uint8)))
    if n % 2 == 0:
        out.append(("bent", maiorana_mcfarland(n)))
    return out


def pairing(field):
    """P[a, x] = Tr(a x), from the oracle's traces of the basis products
    alone: the trace form is bilinear, so P[a, x] = parity(a^T M x)."""
    n, modulus = field.n, field.modulus
    rows = [
        sum(oracle_trace(poly_mul_mod(1 << i, 1 << j, modulus, n), modulus, n) << j
            for j in range(n))
        for i in range(n)
    ]
    a = np.arange(field.size)
    w = np.zeros(field.size, dtype=np.int64)  # w[a] = a^T M
    for i, row in enumerate(rows):
        w[(a >> i) & 1 == 1] ^= row
    return (np.bitwise_count(w[:, None] & a[None, :]) & 1).astype(np.uint8)


def test_the_bilinear_pairing_is_the_oracles():
    for n in range(2, 7):
        field = FieldSpec.default(n)
        assert np.array_equal(pairing(field), pairing_matrix(field.modulus, n))


def spectra(field, table):
    """The spectrum of `table` by walsh() and by WalshSpectrum(field, S),
    from int32 and from int64 S."""
    S = fwht(1 - 2 * table.astype(np.int32))
    return [
        BooleanFunction(field, table).walsh(),
        WalshSpectrum(field, S),
        WalshSpectrum(field, S.astype(np.int64)),
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_every_reader_matches_the_double_sum(n):
    field = FieldSpec.default(n)
    P = pairing(field)
    for name, table in tables(n):
        expected = naive_walsh(table, P)
        levels, counts = np.unique(np.abs(expected), return_counts=True)
        # by the oracle: a random table on few points can be bent too
        bent = n % 2 == 0 and levels.tolist() == [1 << (n // 2)]
        assert bent or name != "bent"
        for spectrum in spectra(field, table):
            assert spectrum.is_bent == bent
            assert np.array_equal(spectrum.values, expected)
            assert [spectrum[a] for a in range(field.size)] == expected.tolist()
            absv, got = spectrum.abs_counts()
            assert absv.tolist() == levels.tolist() and got.tolist() == counts.tolist()
            cls = spectrum.classification
            assert cls == classify(expected, n)
            assert cls.abs_values == tuple(levels.tolist())
            f = BooleanFunction(field, table)
            if bent:
                assert cls.kind == "bent" and cls.amplitude == 1 << (n // 2)
                assert np.array_equal(f.dual().table, (expected < 0).astype(np.uint8))
            else:
                with pytest.raises(NotBentError):
                    f.dual()


@pytest.mark.parametrize("n", [2, 4, 10, 20])
def test_a_bent_spectrum_keeps_its_packed_signs_and_nothing_else(monkeypatch, n):
    field = FieldSpec.default(n)
    S = fwht(1 - 2 * maiorana_mcfarland(n).astype(np.int32))
    duals, tried = [], []
    # decided in int16, then with every int16 try failing, so that the int32
    # path finds it bent (at n = 20 in 4 folded parts) and keeps it the same
    for narrow in (True, False):
        if not narrow:
            monkeypatch.setattr(boolfun, "_narrow_bent", lambda *args: tried.append(1) or False)
        f = BooleanFunction(field, maiorana_mcfarland(n))
        spectrum = f.walsh()
        kept = [getattr(spectrum, name) for name in WalshSpectrum.__slots__]
        arrays = [value for value in kept if isinstance(value, np.ndarray)]
        assert len(arrays) == 1
        bits = arrays[0]
        # at n = 2 one byte, partly padding
        assert bits.dtype == np.uint8 and bits.nbytes == -(-(1 << n) // 8)
        assert not bits.flags.writeable
        assert np.array_equal(np.unpackbits(bits, count=1 << n), (S < 0).astype(np.uint8))
        duals.append(f.dual().table)
    assert tried and np.array_equal(duals[0], duals[1])
    monkeypatch.undo()
    # a spectrum that is not bent keeps its int32 copy
    rng = np.random.default_rng(n)
    other = BooleanFunction(field, rng.integers(0, 2, 1 << n, dtype=np.uint8)).walsh()
    kept = [getattr(other, name) for name in WalshSpectrum.__slots__]
    arrays = [value for value in kept if isinstance(value, np.ndarray)]
    assert len(arrays) == 1 and arrays[0].dtype == np.int32
    assert arrays[0].nbytes == 4 << n


def test_a_bent_point_reads_one_bit_and_a_bent_dual_builds_no_spectrum(monkeypatch):
    n = 8
    field = FieldSpec.default(n)
    f = BooleanFunction(field, maiorana_mcfarland(n))
    expected = naive_walsh(f.table, pairing(field))
    f.walsh()
    # the bits are unpacked only when all of them are asked for, and the
    # dual is made of them, not of a spectrum built from them
    unpacked = []
    unpack = boolfun._unpack_signs
    monkeypatch.setattr(
        boolfun, "_unpack_signs", lambda *args: unpacked.append(1) or unpack(*args)
    )
    assert [f.walsh()[a] for a in range(field.size)] == expected.tolist()
    assert unpacked == []
    read = []
    hadamard = WalshSpectrum._hadamard
    monkeypatch.setattr(
        WalshSpectrum, "_hadamard", lambda self, *args: read.append(args) or hadamard(self, *args)
    )
    assert np.array_equal(f.dual().table, (expected < 0).astype(np.uint8))
    assert unpacked == [1] and read == []


def _one_level(n):
    return fwht(1 - 2 * maiorana_mcfarland(n).astype(np.int32))


def _two_levels(n):
    # a linear function, x_1: W is 0 but at one point, where it is 2^n
    return fwht(1 - 2 * (np.arange(1 << n) & 1).astype(np.int32))


def _mixed(n):
    table = np.random.default_rng(n).integers(0, 2, 1 << n)
    return fwht(1 - 2 * table.astype(np.int32))


def _semi_bent(n):
    # a bent function of the n - 1 high index bits: levels {0, 2^((n+1)/2)}
    return fwht(1 - 2 * maiorana_mcfarland(n - 1).astype(np.int32).repeat(2))


@pytest.mark.parametrize(
    "make, n",
    [(_one_level, 6), (_one_level, 10), (_two_levels, 5), (_two_levels, 6),
     (_mixed, 6), (_mixed, 9), (_semi_bent, 5), (_semi_bent, 9)],
)
def test_tiled_classify_matches_the_single_pass(monkeypatch, make, n):
    values = make(n)
    whole = classify(values, n)
    assert values.nbytes <= boolfun.TILE_BYTES
    monkeypatch.setattr(boolfun, "TILE_BYTES", 16)  # 4 int32 entries
    for given in (values, values.astype(np.int64), values.tolist()):
        tiled = classify(given, n)
        assert tiled == whole
        assert tiled.abs_values == whole.abs_values
        assert list(tiled.abs_values) == sorted(set(np.abs(values).tolist()))
    # the spectrum engine itself runs on slices of 4 too
    table = np.random.default_rng(n).integers(0, 2, 1 << n, dtype=np.uint8)
    if make is _one_level:
        table = maiorana_mcfarland(n)
    field = FieldSpec.default(n)
    spectrum = BooleanFunction(field, table).walsh()
    monkeypatch.undo()
    reference = BooleanFunction(field, table).walsh()
    assert np.array_equal(spectrum.values, reference.values)
    assert spectrum.classification == reference.classification


def test_the_classify_references_are_of_the_kinds_they_are_named_for():
    # the classes that the single pass gives, for a one-slice reference
    assert classify(_one_level(6), 6).kind == "bent"
    assert classify(_semi_bent(5), 5).kind == "plateaued"
    assert classify(_semi_bent(9), 9).kind == "plateaued"
    assert classify(_two_levels(6), 6).kind == "plateaued"
    assert classify(_mixed(6), 6).kind == "mixed"


def _traced(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_bent_walsh_at_n20_holds_one_part_and_keeps_its_bits():
    # folded into 2^2 parts of 2^18 entries, transformed one at a time in
    # one int32 buffer beside the uint8 word that gathers their signs
    n = 20
    field = FieldSpec.default(n)
    length = 1 << (n - 2)
    part = 4 * length
    slack = 3 * 4 * PASS_BUFSIZE + 16384  # as in test_butterflies
    f = BooleanFunction(field, maiorana_mcfarland(n))
    tile_scratch = 3 * boolfun.TILE_BYTES // 2
    chunk = (8 + 4) * boolfun.GATHER_ENTRIES
    bits = (1 << n) // 8
    held, peak = _traced(f.walsh)
    assert peak <= part + length + tile_scratch + chunk + bits + slack
    assert held <= bits + slack
    assert f.is_bent()


def test_round_trip_chunk_at_n16_stays_within_the_butterflys_scratch():
    # the untiled butterfly's scratch is half the column; a chunk of
    # GATHER_ENTRIES rows, its intp indices and int32 signs, would be 0.75
    n = 16
    column = 4 << n
    slack = 3 * 4 * PASS_BUFSIZE + 16384  # as in test_butterflies
    assert 4 << n <= boolfun.TILE_BYTES
    tab = np.array([[1], [-1]], dtype=np.int32)
    for _, table in tables(n):
        values = fwht(1 - 2 * table.astype(np.int32))
        _, peak = _traced(lambda: boolfun.check_round_trip(values, table, tab))
        assert peak <= 0.5 * column + slack


def test_round_trip_runs_after_the_packing_on_the_same_buffer(monkeypatch):
    n = 18  # the signs are packed in two tiles, and the verdict counts two slices
    field = FieldSpec.default(n)
    table = maiorana_mcfarland(n)
    assert 4 * field.size > boolfun.TILE_BYTES
    events = []
    fwht_ok = boolfun.fwht
    pack = boolfun._pack_signs

    def recorded_fwht(values):
        events.append(("fwht", values))
        return fwht_ok(values)

    def recorded_pack(values, out=None):
        events.append(("pack", values))
        return pack(values, out)

    monkeypatch.setattr(boolfun, "fwht", recorded_fwht)
    monkeypatch.setattr(boolfun, "_pack_signs", recorded_pack)
    assert BooleanFunction(field, table).is_bent()
    assert [name for name, _ in events] == ["fwht", "pack", "fwht"]
    assert all(values is events[0][1] for _, values in events)


@pytest.mark.parametrize("n, kind", [(4, "bent"), (18, "bent"), (7, "random")], ids=["4", "18", "7"])
def test_bent_round_trip_faults_keep_their_messages(monkeypatch, n, kind):
    # and the same messages for a random table at odd n, kept as an int32
    # copy of S rather than as sign bits
    field = FieldSpec.default(n)
    table = dict(tables(n))[kind]
    fwht_ok = boolfun.fwht
    x = field.size - 3
    sign = 1 - 2 * int(table[x])

    def fault(edit):
        calls = []

        def wrapped(values):
            out = fwht_ok(values)
            calls.append(out.dtype)
            # the inverse of the round trip, in the int16 attempt of a bent
            # column, which then fails, and in the int32 path after it
            if calls.count(out.dtype) == 2:
                edit(out)
            return out

        monkeypatch.setattr(boolfun, "fwht", wrapped)

    def negate(out):
        out[x] = -out[x]

    fault(negate)
    with pytest.raises(VerificationError) as err:
        BooleanFunction(field, table).walsh()
    assert str(err.value) == (
        f"Walsh round-trip failed at x = {x}: inverse gives {-sign}, table sign is {sign}"
    )

    def plus_one(out):
        out[x] += 1

    fault(plus_one)
    with pytest.raises(VerificationError) as err:
        BooleanFunction(field, table).walsh()
    assert str(err.value) == (
        f"Walsh round-trip failed at x = {x}: inverse gives "
        f"{(sign << n) + 1}/2^{n}, table sign is {sign}"
    )

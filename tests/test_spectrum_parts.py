"""walsh() above n = 18: a spectrum folded into parts.

The top k = min(3, n - 18) butterfly levels are folded into the sign
table, and the 2^k parts of S are transformed, checked and kept one at a
time.  Every spectrum is compared with the unfolded butterfly of the
whole column, and every failure message with the one that the whole
column's checks give for the same values.
"""

import numpy as np
import pytest

from bentvec import BooleanFunction, FieldSpec
from bentvec import boolfun
from bentvec.boolfun import (
    WalshSpectrum,
    _fold,
    check_parseval_parity,
    check_round_trip,
    classify,
    fwht,
)
from bentvec.errors import VerificationError


def maiorana_mcfarland(n):
    """<x_low, x_high> on the index bits: bent for even n."""
    x = np.arange(1 << n, dtype=np.uint32)
    half = np.uint32((1 << (n // 2)) - 1)
    return (np.bitwise_count(x & half & (x >> (n // 2))) & 1).astype(np.uint8)


def levels(n):
    """The folded levels, by the rule as stated: k = min(3, max(0, n - 18))."""
    return min(3, max(0, n - 18))


def hadamard(size):
    """H[p, q] = (-1)^popcount(p & q), by the definition."""
    return np.array([[(-1) ** bin(p & q).count("1") for q in range(size)] for p in range(size)])


def unfolded(table):
    """S = fwht((-1)^f) of the whole column."""
    return fwht(1 - 2 * table.astype(np.int32))


def bent_part_then_not(n, k):
    """A table whose part 0 is bent-level and whose part 1 is not.

    With the blocks s_p of the signs, part q is fwht(sum_p H[p, q] s_p).
    Blocks b, b, r, complement of r give part 0 = fwht(2 b) = +-2^(n/2)
    for a bent b of n - 2 bits, and part 1 = fwht(2 (-1)^r), which is not.
    """
    assert k == 2
    length = 1 << (n - k)
    b = maiorana_mcfarland(n - k)
    r = np.random.default_rng(n).integers(0, 2, length, dtype=np.uint8)
    return np.concatenate([b, b, r, r ^ 1])


@pytest.mark.parametrize("n, k", [(6, 0), (6, 1), (6, 2), (6, 3), (7, 3)])
def test_the_fold_is_its_definition_and_gives_the_parts(n, k):
    table = np.random.default_rng(n + k).integers(0, 2, 1 << n, dtype=np.uint8)
    word, tab = _fold(table, k)
    parts, length = 1 << k, 1 << (n - k)
    assert word.dtype == np.uint8 and word.shape == (length,)
    assert tab.dtype == np.int32 and tab.shape == (1 << parts, parts)
    for x in range(length):
        assert word[x] == sum(int(table[p * length + x]) << p for p in range(parts))
    H = hadamard(parts)
    for w in range(1 << parts):
        for q in range(parts):
            assert tab[w, q] == sum(H[p, q] * (1 - 2 * (w >> p & 1)) for p in range(parts))
    S = unfolded(table)
    for q in range(parts):
        part = fwht(np.ascontiguousarray(tab[word, q]))
        assert np.array_equal(part, S[q * length : (q + 1) * length])
    if k == 0:
        assert word is table and tab.tolist() == [[1], [-1]]


def _tables(n):
    """(name, table): a random table, a bent one for even n and for odd n a
    plateaued one, bent in the n - 1 high index bits."""
    out = [("random", np.random.default_rng(n).integers(0, 2, 1 << n, dtype=np.uint8))]
    if n % 2:
        out.append(("plateaued", maiorana_mcfarland(n - 1).repeat(2)))
    else:
        out.append(("bent", maiorana_mcfarland(n)))
    if n == 20:
        out.append(("bent part, then not", bent_part_then_not(n, levels(n))))
    return out


def _counting_fwht(monkeypatch):
    sizes = []
    fwht_ok = boolfun.fwht

    def counted(values):
        sizes.append(values.size)
        return fwht_ok(values)

    monkeypatch.setattr(boolfun, "fwht", counted)
    return sizes


@pytest.mark.parametrize("n", [19, 20, 21])
def test_walsh_in_parts_is_the_unfolded_butterfly(monkeypatch, n):
    field = FieldSpec.default(n)
    k = levels(n)
    for name, table in _tables(n):
        S = unfolded(table)
        sizes = _counting_fwht(monkeypatch)
        spectrum = BooleanFunction(field, table).walsh()
        monkeypatch.undo()
        # a forward and an inverse butterfly per part, each one part long
        assert sizes == [1 << (n - k)] * (2 << k), name
        assert np.array_equal(spectrum._hadamard(), S), name
        assert spectrum.classification == classify(S, n), name
        kept = spectrum._kept
        assert not kept.flags.writeable
        if spectrum.is_bent:
            assert kept.dtype == np.uint8 and kept.nbytes == (1 << n) // 8
            assert np.array_equal(np.unpackbits(kept), (S < 0).astype(np.uint8))
        else:
            assert kept.dtype == np.int32 and kept.shape == (1 << n,), name
        # the same spectrum as the public constructor's, of the whole column
        reference = WalshSpectrum(field, S)
        assert spectrum.classification == reference.classification
        a = [0, 1, field.size - 1]
        assert [spectrum[i] for i in a] == [reference[i] for i in a]


def test_the_kinds_of_the_fold_tables():
    n = 20
    k = levels(n)
    length = 1 << (n - k)
    amp = 1 << (n // 2)
    S = unfolded(bent_part_then_not(n, k))
    assert set(np.abs(S[:length]).tolist()) == {amp}
    assert set(np.abs(S[length : 2 * length]).tolist()) != {amp}
    assert BooleanFunction(FieldSpec.default(n), maiorana_mcfarland(n)).is_bent()
    for n in (19, 21):
        cls = classify(unfolded(maiorana_mcfarland(n - 1).repeat(2)), n)
        assert cls.kind == "plateaued"


def _faulted(monkeypatch, edits):
    """Wrap fwht so that edits[i](out) changes the output of call i; part
    q's forward butterfly is call 2 q and its inverse call 2 q + 1.
    Returns the list that collects a copy of every inverse's output.

    The int16 attempt of a bent column is made to fail, so that every
    call is one of the int32 path, where the plants are aimed: in int16 a
    plant of 2^16 or more would vanish, and one of 2^15 or more overflow."""
    monkeypatch.setattr(boolfun, "_narrow_bent", lambda *args: False)
    fwht_ok = boolfun.fwht
    calls = []
    inverses = []

    def wrapped(values):
        out = fwht_ok(values)
        i = len(calls)
        calls.append(i)
        if i in edits:
            edits[i](out)
        if i % 2:
            inverses.append(out.copy())
        return out

    monkeypatch.setattr(boolfun, "fwht", wrapped)
    return inverses


def _whole_check_message(S, field):
    with pytest.raises(VerificationError) as err:
        check_parseval_parity(S, field)
    return str(err.value)


@pytest.mark.parametrize("value", [lambda v: v + 2, lambda v: 0], ids=["above", "within"])
def test_a_parseval_fault_in_a_part_names_the_whole_columns_witness(monkeypatch, value):
    # one entry off the two levels, above them or within them, and the part
    # is not bent-level
    n = 20
    field = FieldSpec.default(n)
    table = maiorana_mcfarland(n)
    length = 1 << (n - levels(n))
    S = unfolded(table)

    def edit(out):
        out[5] = value(out[5])

    _faulted(monkeypatch, {2 * 2: edit})  # part 2's forward butterfly
    with pytest.raises(VerificationError) as err:
        BooleanFunction(field, table).walsh()
    S[2 * length + 5] = value(S[2 * length + 5])
    want = _whole_check_message(S, field)
    assert want.startswith("Parseval check failed")
    assert str(err.value) == want


def test_a_parity_fault_in_a_part_names_the_whole_columns_witness(monkeypatch):
    # 2047 entries of 2^(n/2) up by one and 2049 down by one keep the sum
    # of squares: 2047 (2^11 + 1) = 2049 (2^11 - 1)
    n = 20
    field = FieldSpec.default(n)
    table = maiorana_mcfarland(n)
    length = 1 << (n - levels(n))
    amp = 1 << (n // 2)
    S = unfolded(table)
    at = np.flatnonzero(S[length : 2 * length] == amp)[:4096]
    step = np.where(np.arange(4096) < 2047, 1, -1).astype(np.int32)

    def odd(out):
        out[at] += step

    _faulted(monkeypatch, {2 * 1: odd})  # part 1's forward butterfly
    with pytest.raises(VerificationError) as err:
        BooleanFunction(field, table).walsh()
    S[length + at] += step
    want = _whole_check_message(S, field)
    assert want.startswith("spectrum parity check failed")
    assert str(err.value) == want


def _unfolded_round_trip_message(inverses, table):
    """The whole column's round-trip message for these part inverses: the
    inverse at p 2^(n-k) + x is sum_q H[p, q] inverse_q[x]."""
    size = table.size
    H = hadamard(len(inverses))
    whole = np.concatenate([
        sum(int(H[p, q]) * inv.astype(np.int64) for q, inv in enumerate(inverses))
        for p in range(len(inverses))
    ])
    signs = 1 - 2 * table.astype(np.int64)
    x = int(np.flatnonzero(whole != size * signs)[0])
    got, sign = int(whole[x]), int(signs[x])
    shown = f"{got // size}" if got % size == 0 else f"{got}/2^{size.bit_length() - 1}"
    return f"Walsh round-trip failed at x = {x}: inverse gives {shown}, table sign is {sign}"


@pytest.mark.parametrize(
    "faults, at",
    [
        # one part off by one at x: every point p 2^(n-k) + x is off, the
        # least of them is x itself
        ({3: [(1000, 1)]}, "x"),
        # parts 1 and 2 off by +1 and -1 at x cancel at p = 0 and p = 3:
        # the least point is 2^(n-k) + x
        ({1: [(1000, 1)], 2: [(1000, -1)]}, "part 1"),
        # and a later x in part 0 is off at p = 0, before it
        ({1: [(1000, 1)], 2: [(1000, -1)], 0: [(7000, 3)]}, "later x"),
        # 2^n more: the inverse gives a whole number of 2^n
        ({2: [(10, 1 << 20)]}, "x"),
    ],
)
def test_a_round_trip_fault_in_a_part_names_the_whole_columns_witness(monkeypatch, faults, at):
    n = 20
    field = FieldSpec.default(n)
    length = 1 << (n - levels(n))
    for table in (maiorana_mcfarland(n), bent_part_then_not(n, levels(n))):

        def edit(changes):
            def apply(out):
                for x, d in changes:
                    out[x] += d
            return apply

        inverses = _faulted(monkeypatch, {2 * q + 1: edit(c) for q, c in faults.items()})
        with pytest.raises(VerificationError) as err:
            BooleanFunction(field, table).walsh()
        monkeypatch.undo()
        want = _unfolded_round_trip_message(inverses, table)
        assert str(err.value) == want
        x = int(want.split("x = ")[1].split(":")[0])
        assert x == {"x": min(x for c in faults.values() for x, _ in c),
                     "part 1": length + 1000, "later x": 7000}[at]


def test_the_parts_checks_keep_their_precedence(monkeypatch):
    # a Parseval fault in the last part wins over a round-trip fault in the
    # first, though the first part's round trip runs before it
    n = 20
    field = FieldSpec.default(n)
    table = maiorana_mcfarland(n)

    def plus_one(out):
        out[3] += 1

    parts = 1 << levels(n)
    _faulted(monkeypatch, {1: plus_one, 2 * (parts - 1): plus_one})
    with pytest.raises(VerificationError) as err:
        BooleanFunction(field, table).walsh()
    assert str(err.value).startswith("Parseval check failed")


@pytest.mark.parametrize("rows, form", [(slice(None), "whole"), (0, "fraction")])
def test_round_trip_takes_any_table_values(rows, form):
    # the parts' tables hold sums of signs, 0 among them
    n = 6
    rng = np.random.default_rng(n)
    tab = rng.integers(-4, 5, (16, 3)).astype(np.int32)
    tab[0, 1] = 0
    word = rng.integers(0, 16, 1 << n).astype(np.uint8)
    word[0] = 0
    values = fwht(tab[word].astype(np.int32))
    check_round_trip(values.copy(), word, tab)
    values[rows, 1] += 1
    shown = "1" if form == "whole" else f"1/2^{n}"
    with pytest.raises(VerificationError) as err:
        check_round_trip(values.copy(), word, tab, ["f", "g", "h"])
    assert str(err.value) == (
        f"component g: Walsh round-trip failed at x = 0: inverse gives {shown}, "
        "table sign is 0"
    )


def test_a_checked_bent_spectrum_is_classified_without_classify(monkeypatch):
    called = []
    classify_ok = boolfun.classify
    monkeypatch.setattr(boolfun, "classify", lambda *args: called.append(1) or classify_ok(*args))
    # a whole column up to n = 18, parts above
    for n in (8, 16, 20):
        f = BooleanFunction(FieldSpec.default(n), maiorana_mcfarland(n))
        assert f.is_bent()
    assert called == []
    # a spectrum that is not bent still goes through classify
    rng = np.random.default_rng(16)
    table = rng.integers(0, 2, 1 << 16, dtype=np.uint8)
    assert not BooleanFunction(FieldSpec.default(16), table).is_bent()
    assert called == [1]


@pytest.mark.parametrize("n", range(2, 10))
def test_the_checked_class_is_classify_on_checked_spectra(n):
    rng = np.random.default_rng(n)
    tables = [
        rng.integers(0, 2, 1 << n, dtype=np.uint8),
        (np.arange(1 << n) & 1).astype(np.uint8),
        maiorana_mcfarland(n - 1).repeat(2),
    ]
    if n % 2 == 0:
        tables.append(maiorana_mcfarland(n))
    field = FieldSpec.default(n)
    for table in tables:
        S = unfolded(table)
        for values in (S, S.astype(np.int64)):
            assert WalshSpectrum(field, values).classification == classify(values, n)

"""The int32 path, the bent-level verdict, and the precondition of the
int32 round trip.

Every int32 block takes one path: `check_parseval_parity`, `classify` per
column, then the round trip.  The bent-level verdict, which counts
whether every entry of a block is +-2^(n/2), is given only to int16
spectra, before their certificate; here it is shown to reject each plant
and to stay within a tile of temporaries.  Blocks of every kind are
compared with per-column `classify`, and faults planted after the
forward butterfly must fail with the messages the general checks give.

The round trip inverts in int32, where a wrong spectrum can wrap: S' = S
+ 2^(32-n) chi_a passes it alone.  Parseval rejects every such S' (see
`check_round_trip`), so each S' planted here must fail with Parseval's
message, on a whole column and on both kinds of folded parts.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentvec import BooleanFunction, FieldSpec
from bentvec import boolfun
from bentvec.boolfun import (
    TILE_BYTES,
    _bent_columns,
    _fold,
    _round_trip_errors,
    check_parseval_parity,
    check_round_trip,
    classify,
    fwht,
    transform_signs,
)
from bentvec.errors import VerificationError


def maiorana_mcfarland(n):
    """<x_low, x_high> on the index bits: bent for even n."""
    x = np.arange(1 << n, dtype=np.uint32)
    half = np.uint32((1 << (n // 2)) - 1)
    return (np.bitwise_count(x & half & (x >> (n // 2))) & 1).astype(np.uint8)


def linear(n, mask):
    """x -> parity(x & mask)."""
    x = np.arange(1 << n, dtype=np.uint32)
    return (np.bitwise_count(x & np.uint32(mask)) & 1).astype(np.uint8)


def character(size, a):
    """chi_a(x) = (-1)^popcount(a & x) in the Hadamard index."""
    x = np.arange(size, dtype=np.uint32)
    return 1 - 2 * (np.bitwise_count(x & np.uint32(a)) & 1).astype(np.int32)


KINDS = ("bent", "semi-bent", "affine", "random")


def table_of(kind, n, rng):
    """A truth table of the kind, plus a random linear function.

    bent: Maiorana-McFarland, for even n; odd n has none, so it is the
    semi-bent one.  semi-bent: one bent in n - 2 (even n) or n - 1 (odd n)
    high index bits.  affine: Plateaued(2^n).  random: Mixed.
    """
    mask = int(rng.integers(0, 1 << n))
    if kind == "bent" and n % 2 == 0:
        table = maiorana_mcfarland(n)
    elif kind in ("bent", "semi-bent"):
        low = 1 if n % 2 else 2
        table = maiorana_mcfarland(n - low).repeat(1 << low)
    elif kind == "affine":
        table = np.zeros(1 << n, dtype=np.uint8)
    else:
        table = rng.integers(0, 2, 1 << n, dtype=np.uint8)
    return table ^ linear(n, mask)


def block_of(tables):
    """The word and sign table of a block of truth tables, one per column:
    every point is its own word."""
    size = len(tables[0])
    word = np.arange(size, dtype=np.uint32)
    tab = np.ascontiguousarray(np.stack([1 - 2 * t.astype(np.int32) for t in tables], axis=1))
    return word, tab


def recording_read(n, seen):
    """A `read` that records the verdict and the rows as vectorial's does."""

    def read(values, bent):
        seen.append((bent, [bent or classify(values[:, j], n) for j in range(values.shape[1])]))

    return read


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 12),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_block_gets_the_rows_of_per_column_classify(n, kinds, seed):
    rng = np.random.default_rng(seed)
    tables = [table_of(kind, n, rng) for kind in kinds]
    word, tab = block_of(tables)
    field = FieldSpec.default(n)
    seen = []
    values = np.empty(tab.shape, dtype=np.int32)
    transform_signs(values, word, tab, field, recording_read(n, seen))
    want = [classify(fwht(1 - 2 * t.astype(np.int32)), n) for t in tables]
    [(_, rows)] = seen
    assert rows == want


def _planted_fwht(monkeypatch, edits):
    """Wrap fwht so that edits[i](out) changes the output of call i of
    each dtype.  A bent block is tried in int16 first: its narrow forward
    gets the edit too, and fails there, so that the int32 path's own
    forward, edited alike, reaches the checks a plant is aimed at."""
    fwht_ok = boolfun.fwht
    calls = {}

    def wrapped(values):
        out = fwht_ok(values)
        i = calls[out.dtype] = calls.get(out.dtype, -1) + 1
        if i in edits:
            edits[i](out)
        return out

    monkeypatch.setattr(boolfun, "fwht", wrapped)


def test_a_block_that_keeps_parseval_but_is_not_bent_level_takes_the_fallback(monkeypatch):
    # four +-amp entries of one column become one +-2 amp and three 0s: the
    # squares still sum to 2^(2n) and every entry is even, yet the column is
    # Mixed, and its round trip fails
    n = 8
    amp = 1 << (n // 2)
    field = FieldSpec.default(n)
    rng = np.random.default_rng(n)
    tables = [table_of("bent", n, rng) for _ in range(4)]
    word, tab = block_of(tables)
    names = ["f", "g", "h", "k"]
    at = [3, 40, 77, 200]
    S = fwht(tab.copy())

    def plant(out):
        out[at[0], 2] *= 2
        out[at[1:], 2] = 0

    planted = S.copy()
    plant(planted)
    check_parseval_parity(planted, field, names)  # does not raise
    assert not _bent_columns(planted, n).all()
    with pytest.raises(VerificationError) as err:
        check_round_trip(planted.copy(), word, tab, names)
    want = str(err.value)
    assert want.startswith("component h: Walsh round-trip failed")

    _planted_fwht(monkeypatch, {0: plant})
    seen = []
    with pytest.raises(VerificationError) as err:
        transform_signs(np.empty(tab.shape, np.int32), word, tab, field,
                        recording_read(n, seen), names)
    assert str(err.value) == want
    [(bent, rows)] = seen
    assert bent is None
    assert rows[2].kind == "mixed" and rows[2].abs_values == (0, amp, 2 * amp)
    assert [rows[j].kind for j in (0, 1, 3)] == ["bent"] * 3


def _parseval_message(S, field, names=None):
    with pytest.raises(VerificationError) as err:
        check_parseval_parity(S, field, names)
    assert "Parseval check failed" in str(err.value)
    return str(err.value)


def test_an_entry_between_the_levels_fails_parseval_in_a_block(monkeypatch):
    # every |W| <= 2^(n/2) with one 0: not bent-level, and short of Parseval
    n = 8
    field = FieldSpec.default(n)
    rng = np.random.default_rng(n)
    word, tab = block_of([table_of("bent", n, rng) for _ in range(4)])
    names = ["f", "g", "h", "k"]

    def plant(out):
        out[5, 1] = 0

    planted = fwht(tab.copy())
    plant(planted)
    want = _parseval_message(planted, field, names)
    assert want.startswith("component g: Parseval check failed")
    _planted_fwht(monkeypatch, {0: plant})
    with pytest.raises(VerificationError) as err:
        transform_signs(np.empty(tab.shape, np.int32), word, tab, field,
                        recording_read(n, []), names)
    assert str(err.value) == want


def test_a_wrapping_fault_on_a_whole_column_fails_parseval(monkeypatch):
    # n = 16: S' = S + 2^16 chi_a inverts to 2^16 s + 2^32 e_a, which int32
    # wraps to the right signs.  In int16 the plant vanishes modulo 2^16, so
    # the int16 attempt rightly certifies the true S; it is made to fail
    # for the plant to reach the int32 checks
    n = 16
    field = FieldSpec.default(n)
    table = maiorana_mcfarland(n)
    tab = np.array([[1], [-1]], dtype=np.int32)
    delta = character(field.size, 5) << (32 - n)
    planted = fwht(1 - 2 * table.astype(np.int32)) + delta
    check_round_trip(planted.copy(), table, tab)  # the round trip alone accepts it
    assert not _bent_columns(planted, n).all()
    want = _parseval_message(planted, field)

    def plant(out):
        out += delta

    _planted_fwht(monkeypatch, {0: plant})
    true_S = fwht(1 - 2 * table.astype(np.int32))
    assert np.array_equal(BooleanFunction(field, table).walsh()._hadamard(), true_S)
    monkeypatch.setattr(boolfun, "_narrow_bent", lambda *args: False)
    with pytest.raises(VerificationError) as err:
        BooleanFunction(field, table).walsh()
    assert str(err.value) == want


@pytest.mark.parametrize(
    "n, kind, q",
    [
        # odd n: every part goes to the int32 copy of S
        (19, "random", 1),
        # a bent S: part 3 fails in int16, and every part goes to the copy
        (20, "bent", 3),
    ],
)
def test_a_wrapping_fault_in_a_part_fails_parseval(monkeypatch, n, kind, q):
    # part q of 2^(n-k) entries is checked against 2^(n-k) t_q, so a part
    # P' = P + 2^(32-n+k) chi_a inverts to 2^(n-k) t_q + 2^32 e_a
    field = FieldSpec.default(n)
    k = min(boolfun.FOLD_LEVELS, n - boolfun.FOLD_FROM)
    length = 1 << (n - k)
    table = table_of(kind, n, np.random.default_rng(n))
    word, tab = _fold(table, k)
    column = np.ascontiguousarray(tab[:, q : q + 1])
    delta = character(length, 9) << (32 - n + k)
    S = fwht(1 - 2 * table.astype(np.int32))
    S[q * length : (q + 1) * length] += delta
    part = S[q * length : (q + 1) * length].copy()
    assert _round_trip_errors(part, word, column) is None  # it wraps to a pass
    assert not _bent_columns(S[q * length : (q + 1) * length], n).all()
    want = _parseval_message(S, field)

    def plant(out):
        out += delta

    _planted_fwht(monkeypatch, {2 * q: plant})  # part q's forward butterfly
    with pytest.raises(VerificationError) as err:
        BooleanFunction(field, table).walsh()
    assert str(err.value) == want


def test_the_verdicts_temporaries_stay_within_a_tile_of_bools():
    # the Parseval sum it replaces took 128 KB of einsum cast buffers
    n = 16
    tables = [maiorana_mcfarland(n) ^ linear(n, j) for j in range(8)]
    S = fwht(block_of(tables)[1].copy())
    tracemalloc.start()
    try:
        assert _bent_columns(S, n).all()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TILE_BYTES // 4 + 16384

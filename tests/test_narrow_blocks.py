"""Bent blocks of profile() and bent parts of walsh() decided in int16,
modulo 2^16.

A block whose every S(0) is +-2^(n/2) is transformed in an int16 view of
its buffer, given the bent-level verdict and read; its candidate signs
eps = +-1 are then transformed again and compared with 2^(n/2) tab[word]
modulo 2^16, which makes 2^(n/2) eps the exact spectrum for n <= 28
(`boolfun.check_round_trip`).  A block that fails any of these goes the
int32 way, which alone classifies non-bent columns and raises.

`walsh()` at even n tries every part q of its fold so, when S(0) of
every part is +-2^(n/2): part q is compared with 2^(n/2-k) t_q, its signs
packed into its bytes of the bit buffer, and the column is taken from
int16 only when every part passes, as the certificate sums over the
parts; otherwise the whole column goes the int32 way.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bentvec import BooleanFunction, FieldSpec, VectorialFunction, boolfun
from bentvec.boolfun import _fold, classify, fwht, transform_signs
from bentvec.cli import main
from bentvec.constructions import _ClosedForm, _component_bits, _component_dual_check
from bentvec.errors import NotBentError, VerificationError
from bentvec.fileio import read_vf
from bentvec.gf2n import MAX_N

from dual_reader import read_duals
from oracles import sylvester_hadamard


def norm(n):
    """x -> x^(2^k + 1) into F_(2^k), k = n/2: every component is bent."""
    field = FieldSpec.default(n)
    k = n // 2
    return VectorialFunction.from_univariate(field, k, [(1, (1 << k) + 1)])


def _fwht_calls(monkeypatch, edits=None):
    """Record the dtype of every fwht call; edits[(dtype, i)](out) changes
    the output of call i of that dtype, counted from 1."""
    calls = []
    fwht_ok = boolfun.fwht
    edits = {(np.dtype(dtype), i): edit for (dtype, i), edit in (edits or {}).items()}

    def wrapped(values):
        out = fwht_ok(values)
        calls.append(out.dtype)
        edit = edits.get((out.dtype, calls.count(out.dtype)))
        if edit is not None:
            edit(out)
        return out

    monkeypatch.setattr(boolfun, "fwht", wrapped)
    return calls


def _profile_and_duals(F):
    return read_duals(F)


def _same_duals(duals, ref):
    return duals.keys() == ref.keys() and all(np.array_equal(duals[k], ref[k]) for k in ref)


def test_the_int16_round_trip_accepts_only_bent_signs_at_n4():
    # int16 holds the residues the argument needs over the declared range
    assert MAX_N // 2 + 2 <= 16
    n = 4
    amp = 1 << (n // 2)
    points = np.arange(1 << n)
    # all 2^16 candidates eps, one per row, and H eps for each
    eps = 1 - 2 * ((np.arange(1 << (1 << n))[:, None] >> points) & 1)
    spectra = eps @ sylvester_hadamard(n)
    bent = np.all(np.abs(spectra) == amp, axis=1)
    assert np.count_nonzero(bent) == 896

    def accepted(M):
        # every entry of H eps is +-2^(n/2) modulo 2^M
        r = spectra % (1 << M)
        return np.all((r == amp % (1 << M)) | (r == -amp % (1 << M)), axis=1)

    for M in range(n // 2 + 2, 17):
        assert np.array_equal(accepted(M), bent)
    # below the bound the test can fail: 2^(n/2) = 0 modulo 2^(n/2)
    assert np.count_nonzero(accepted(n // 2)) == 32768


def test_a_bent_block_is_decided_in_int16_alone(monkeypatch):
    ref_rows, ref_duals = _profile_and_duals(norm(8))
    calls = _fwht_calls(monkeypatch)
    rows, duals = _profile_and_duals(norm(8))
    assert calls == [np.int16, np.int16]  # one block of 15 columns
    assert rows == ref_rows and _same_duals(duals, ref_duals)
    assert all(cls.kind == "bent" for _, cls, _ in rows) and len(duals) == 15


def _negate(x, j):
    def edit(out):
        out[x, j] = -out[x, j]

    return edit


@pytest.mark.parametrize("call", [1, 2], ids=["forward", "inverse"])
def test_a_narrow_fault_fails_the_narrow_round_trip_and_int32_decides(monkeypatch, call):
    # a sign flipped in the int16 forward keeps every entry +-2^(n/2), so
    # the verdict holds and the flipped sign is read; only the int16 round
    # trip can reject it, as it rejects a corrupted int16 inverse
    ref_rows, ref_duals = _profile_and_duals(norm(8))
    calls = _fwht_calls(monkeypatch, {(np.int16, call): _negate(77, 4)})
    rows, duals = _profile_and_duals(norm(8))
    assert calls == [np.int16, np.int16, np.int32, np.int32]
    assert rows == ref_rows and _same_duals(duals, ref_duals)


def test_a_fault_in_both_forwards_gives_the_int32_message(monkeypatch):
    def triple(out):
        # column 2 of a block of all 15 columns, or the one column of the
        # int32 block that redoes it alone once its int16 forward fails
        out[5, 2 % out.shape[1]] *= 3

    # the int32 path alone, as before the int16 attempt existed
    _fwht_calls(monkeypatch, {(np.int32, 1): triple})
    with mock.patch.object(boolfun, "_narrow_bent", return_value=False):
        with pytest.raises(VerificationError) as err:
            norm(8).profile()
    want = str(err.value)
    assert want.startswith(f"component {list(norm(8).selectors())[2]}: Parseval check failed")
    calls = _fwht_calls(monkeypatch, {(np.int16, 1): triple, (np.int32, 1): triple})
    F = norm(8)
    with pytest.raises(VerificationError) as err:
        F.profile()
    assert str(err.value) == want
    # the int16 verdict fails column 2 alone, whose int32 forward fails
    # after the other 14 columns' int16 round trip
    assert calls == [np.int16, np.int16, np.int32]
    assert F._profile is None


def test_a_fault_that_fakes_a_bent_column_in_int16_keeps_no_dual(monkeypatch):
    # two points moved so that component (1, 0) is no longer bent but keeps
    # S(0) = 2^(n/2): only a fault in the int16 forward can make it look
    # bent, and the int32 path, which reads the block again, hands over no
    # dual of it, so the dual check raises at it
    G = norm(8)
    field, m = G.field, G.m
    delta = next(int(d) for d in field.subfield(m) if field.subfield_abs_trace(int(d), m))
    bits = G.component(1).table
    values = G.values.copy()
    values[[np.flatnonzero(bits == 0)[0], np.flatnonzero(bits == 1)[0]]] ^= delta

    def fresh():
        return VectorialFunction(field, m, values)

    assert abs(int((1 - 2 * fresh().component(1).table.astype(np.int64)).sum())) == 16
    assert not fresh().component(1).is_bent()
    with mock.patch.object(boolfun, "_block_columns", return_value=1):
        ref_rows, ref_duals = _profile_and_duals(fresh())

        def all_bent_level(out):
            out[:] = 16

        calls = _fwht_calls(monkeypatch, {(np.int16, 1): all_bent_level})
        F = fresh()
        rows, duals = _profile_and_duals(F)
    assert calls[:4] == [np.int16, np.int16, np.int32, np.int32]  # block (1, 0)
    assert rows == ref_rows and _same_duals(duals, ref_duals)
    assert 1 not in duals
    monkeypatch.undo()
    with pytest.raises(NotBentError):
        _component_dual_check(F, _ClosedForm(int, _component_bits(F, 0)))


@pytest.fixture(scope="module")
def gold_lift(tmp_path_factory):
    # a gold (8, 2+2) plateaued lift: G's twelve bent components and three
    # plateaued (0, v) tail components in one block
    path = tmp_path_factory.mktemp("gold8") / "H.vf"
    argv = ["construct", "--family", "gold", "--n", "8", "--tau", "2", "--poly", "X1*X2",
            "--t", "2", "--auto-u", "--seed", "1", "--out", str(path)]
    assert main(argv) == 0
    return path


def test_a_block_with_an_off_level_s0_sends_no_int16_array(gold_lift, monkeypatch):
    F = read_vf(gold_lift)
    amp = 1 << (F.n // 2)
    s0 = {sel: int((1 - 2 * F.component(*sel).table.astype(np.int64)).sum())
          for sel in F.selectors()}
    assert [sel for sel, s in s0.items() if abs(s) != amp] == [(0, 1), (0, 2), (0, 3)]
    ref = read_vf(gold_lift).profile()
    calls = _fwht_calls(monkeypatch)
    assert read_vf(gold_lift).profile() == ref
    # the tail's three columns go the int32 way at once, as one block, and
    # the twelve bent ones in one int16 block after it
    assert calls == [np.int32, np.int32, np.int16, np.int16]
    # rows of 16 bytes: int32 blocks of four columns and int16 ones of eight
    calls.clear()
    with mock.patch.object(boolfun, "BLOCK_BYTES", 16 << F.n):
        assert read_vf(gold_lift).profile() == ref
    assert calls == [np.int32, np.int32] + [np.int16, np.int16] * 2


def maiorana_mcfarland(n):
    """<x_low, x_high> on the index bits: bent for even n."""
    x = np.arange(1 << n, dtype=np.uint32)
    half = np.uint32((1 << (n // 2)) - 1)
    return (np.bitwise_count(x & half & (x >> (n // 2))) & 1).astype(np.uint8)


def unfolded(table):
    """S = fwht((-1)^f) of the whole column."""
    return fwht(1 - 2 * table.astype(np.int32))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_every_n4_table_folded_is_accepted_exactly_when_bent(monkeypatch, k):
    # walsh() folds its top k levels once FOLD_FROM is n - k: parts of
    # 2^(4-k) points, which at k = 2 share the bytes of the kept bits.
    # Every table whose parts all have S(0) = +-2^(n/2), the ones the
    # driver tries in int16, goes through walsh(), and every 64th other
    # one, which must send no int16 array (all 2^16 took 60 s); every
    # other table goes through the driver's routing alone, with
    # transform_signs recording its buffer's dtype and running nothing
    n = 4
    amp = 1 << (n // 2)
    field = FieldSpec.default(n)
    tables = ((np.arange(1 << (1 << n))[:, None] >> np.arange(1 << n)) & 1).astype(np.uint8)
    spectra = (1 - 2 * tables.astype(np.int64)) @ sylvester_hadamard(n)
    bent = np.all(np.abs(spectra) == amp, axis=1)
    assert np.count_nonzero(bent) == 896
    # part q of S holds the Hadamard indices from q 2^(n-k) on
    level = np.all(np.abs(spectra[:, :: 1 << (n - k)]) == amp, axis=1)
    assert not np.any(bent & ~level)
    monkeypatch.setattr(boolfun, "FOLD_FROM", n - k)
    calls = _fwht_calls(monkeypatch)
    accepted = []
    for v in np.flatnonzero(level | (np.arange(len(tables)) % 64 == 0)).tolist():
        calls.clear()
        spectrum = BooleanFunction(field, tables[v]).walsh()
        assert level[v] or np.int16 not in calls
        if np.int32 not in calls:  # decided in int16 alone
            accepted.append(v)
        cls = spectrum.classification
        assert cls == classify(spectra[v], n)
        if cls.kind == "bent":
            assert cls.amplitude == amp
            # every bit, at k = 2 too, where parts of 4 points share a byte
            assert np.array_equal(np.unpackbits(spectrum._kept), spectra[v] < 0)
        else:
            assert np.array_equal(spectrum._hadamard(), spectra[v])
    assert accepted == np.flatnonzero(bent).tolist()
    routed = []

    def route(values, word, tab, field, read, names=None):
        routed.append(values.dtype)
        return []

    monkeypatch.setattr(boolfun, "transform_signs", route)
    rest = np.flatnonzero(~level & (np.arange(len(tables)) % 64 != 0)).tolist()
    for v in rest:
        word, tab = _fold(tables[v], k)
        assert list(boolfun._spectrum_blocks(field, word, lambda index: tab, [True])) == []
    assert routed == [np.int32] * len(rest)
    monkeypatch.undo()
    # no table that is not bent has a bent part and every S(0) at the
    # level, so the S(0) routing spares the int16 step the tables with a
    # bent part and another that is not; given one, that step must leave
    # it undecided
    part_bent = np.all(np.abs(spectra.reshape(len(tables), 1 << k, -1)) == amp, axis=2)
    mixed = np.flatnonzero(part_bent.any(axis=1) & ~bent)
    assert not np.any(level[mixed]) and mixed.size == (0, 1792, 6144)[k]
    for v in mixed.tolist():
        word, tab = _fold(tables[v], k)
        narrow = np.empty(len(word), np.int16)
        assert transform_signs(narrow, word, tab, field, lambda *args, q: None) == [0]


def test_a_bent_column_at_n20_is_decided_by_int16_butterflies_alone(monkeypatch):
    n = 20
    table = maiorana_mcfarland(n)
    S = unfolded(table)
    calls = _fwht_calls(monkeypatch)
    spectrum = BooleanFunction(FieldSpec.default(n), table).walsh()
    # a forward and an inverse for each of the 4 parts
    assert calls == [np.int16] * 8
    assert spectrum.is_bent
    assert np.array_equal(spectrum._hadamard(), S)


def _negate_at(x):
    def edit(out):
        out[x] = -out[x]

    return edit


@pytest.mark.parametrize("call", [7, 8], ids=["forward", "inverse"])
def test_a_fault_in_the_last_int16_part_sends_the_column_to_int32(monkeypatch, call):
    # a sign flipped in the last part's int16 forward keeps it bent-level,
    # so its wrong bits are packed; a corrupted inverse leaves the bits
    # right.  Either fails the last part's compare alone, and the column,
    # the earlier parts' bits too, is then decided again in int32
    n = 20
    table = maiorana_mcfarland(n)
    S = unfolded(table)
    calls = _fwht_calls(monkeypatch, {(np.int16, call): _negate_at(1000)})
    spectrum = BooleanFunction(FieldSpec.default(n), table).walsh()
    assert calls == [np.int16] * 8 + [np.int32] * 8
    assert spectrum.is_bent
    assert np.array_equal(spectrum._hadamard(), S)


@pytest.mark.parametrize("n", [16, 19, 20])
def test_a_column_off_level_at_s0_or_at_odd_n_sends_no_int16_array(monkeypatch, n):
    rng = np.random.default_rng(n)
    tables = [rng.integers(0, 2, 1 << n, dtype=np.uint8)]
    if n % 2:
        # plateaued, and at odd n no part is ever tried in int16
        tables.append(maiorana_mcfarland(n - 1).repeat(2))
    else:
        assert abs(int(unfolded(tables[0])[0])) != 1 << (n // 2)
    for table in tables:
        S = unfolded(table)
        calls = _fwht_calls(monkeypatch)
        spectrum = BooleanFunction(FieldSpec.default(n), table).walsh()
        monkeypatch.undo()
        assert np.int16 not in calls and len(calls) == 2 << min(3, max(0, n - 18))
        assert np.array_equal(spectrum._hadamard(), S)


def _traced_walsh(table, n):
    f = BooleanFunction(FieldSpec.default(n), table)
    tracemalloc.start()
    try:
        f.walsh()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_bent_walsh_at_n20_traces_less_than_the_int32_path(monkeypatch):
    # no intp copy of a part's word: the S(0) test counts the table's bit
    # planes, and the int16 butterflies take half the int32 ones' scratch
    n = 20
    table = maiorana_mcfarland(n)
    narrow = _traced_walsh(table, n)
    monkeypatch.setattr(boolfun, "_narrow_bent", lambda *args: False)
    wide = _traced_walsh(table, n)
    assert narrow < wide

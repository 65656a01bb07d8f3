"""profile()'s component blocks: widths, reused buffers and in-place checks."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bentvec import BooleanFunction, FieldSpec, VectorialFunction, boolfun
from bentvec.boolfun import PASS_BUFSIZE, ROW_BYTES
from bentvec.cli import main
from bentvec.errors import VerificationError
from bentvec.fileio import read_vf
from dual_reader import read_duals


def norm(n):
    """x -> x^(2^k + 1) into F_(2^k), k = n/2: every component is bent."""
    field = FieldSpec.default(n)
    k = n // 2
    return VectorialFunction.from_univariate(field, k, [(1, (1 << k) + 1)])


@pytest.fixture(scope="module")
def gold_vf(tmp_path_factory):
    # the verify-vf benchmark's file: a gold (16, 4+2)-function
    path = tmp_path_factory.mktemp("gold") / "G.vf"
    argv = ["construct", "--family", "gold", "--n", "16", "--tau", "2", "--poly", "X1*X2",
            "--t", "2", "--auto-u", "--seed", "1", "--out", str(path)]
    assert main(argv) == 0
    return path


def _random(n, m, t):
    field = FieldSpec.default(n)
    rng = np.random.default_rng(n)
    values = rng.choice(field.subfield(m), size=field.size)
    extra = rng.integers(0, 1 << t, size=field.size)
    return lambda: VectorialFunction(field, m, values, extra, t)


def _blocks(monkeypatch):
    """Record (dtype, selectors) of every block that profile() hands to
    transform_signs, in order.  A block's butterflies are two, in int16 or
    in int32, so blocks are counted where profile() hands them over."""
    blocks = []
    transform = boolfun.transform_signs

    def counted(values, word, tab, field, read, names=None):
        blocks.append((values.dtype, list(names)))
        return transform(values, word, tab, field, read, names)

    monkeypatch.setattr(boolfun, "transform_signs", counted)
    return blocks


def _profiled(F, monkeypatch, one_column=False):
    """F's rows and packed duals, with the blocks of `_blocks`; in blocks
    of one column of either dtype, the oracle, when `one_column`."""
    with monkeypatch.context() as patch:
        blocks = _blocks(patch)
        if one_column:
            patch.setattr(boolfun, "_block_columns", lambda n, itemsize: 1)
        rows, duals = read_duals(F)
    return rows, duals, blocks


def _widths(blocks, dtype, level=()):
    """The widths of the blocks of a dtype, leaving out the int32 blocks
    that redo the `level` columns of an int16 block that was not bent."""
    return [len(names) for kind, names in blocks if kind == dtype and not set(level) & set(names)]


def _level(F):
    """Whether each component's S(0) is +-2^(n/2), from its truth table."""
    return [
        F.n % 2 == 0 and abs(int((1 - 2 * f.table.astype(np.int64)).sum())) == 1 << (F.n // 2)
        for _, f in F.components()
    ]


def _runs(count, width):
    return [width] * (count // width) + [count % width] * (count % width > 0)


@pytest.mark.parametrize(
    "name, n, m, t, wide",
    [("gold", 16, 4, 2, 8), ("random", 16, 4, 2, 8), ("random", 15, 5, 1, 16),
     ("random", 14, 7, 1, 16)],
)
def test_default_blocks_equal_one_column_blocks(gold_vf, monkeypatch, name, n, m, t, wide):
    narrow = 2 * wide  # int16 blocks fill the int32 blocks' bytes
    fresh = (lambda: read_vf(gold_vf)) if name == "gold" else _random(n, m, t)
    F = fresh()
    assert (F.n, F.m, F.t) == (n, m, t)
    level = {sel for sel, ok in zip(F.selectors(), _level(F)) if ok}
    rows, duals, blocks = _profiled(F, monkeypatch)
    count = (1 << (m + t)) - 1
    assert _widths(blocks, np.int16) == _runs(len(level), narrow)
    # an int32 block holds off-level columns alone, or redoes level ones
    # whose int16 block was not bent (one at n = 14)
    assert all(set(names) <= level for kind, names in blocks if level & set(names))
    assert _widths(blocks, np.int32, level) == _runs(count - len(level), wide)
    ref_rows, ref_duals, ref_blocks = _profiled(fresh(), monkeypatch, one_column=True)
    assert {len(names) for _, names in ref_blocks} == {1}
    assert rows == ref_rows
    assert duals.keys() == ref_duals.keys()
    for lam, bits in duals.items():
        assert np.array_equal(bits, ref_duals[lam])
    if name == "gold":
        assert len(duals) == (1 << m) - 1  # G is vectorial bent


def _bent_pair(n):
    """An (n, 1+1)-function of three bent components at even n: f = <x, y>
    and g = <x, alpha y> on the low and high halves x, y of the index, with
    the product in GF(2^(n/2)), so that f + g = <x, (1 + alpha) y> too."""
    half = FieldSpec.default(n // 2)
    points = np.arange(1 << n)
    x, y = points & (half.size - 1), points >> (n // 2)

    def inner(u, v):
        return (np.bitwise_count(u & v) & 1).astype(np.int64)

    field = FieldSpec.default(n)
    return VectorialFunction(field, 1, inner(x, y), inner(x, half.mul_elems(y, 2)), 1)


def test_block_widths_are_pinned_per_dtype(gold_vf, monkeypatch):
    # int16 blocks fill the bytes of the int32 ones with twice the columns
    # while two int32 columns fit one fwht tile, and both are one column
    # wide above
    widths = {12: (32, 16), 16: (16, 8), 17: (1, 1), 18: (1, 1)}
    for n, pair in widths.items():
        assert (boolfun._block_columns(n, 2), boolfun._block_columns(n, 4)) == pair
    cases = [
        (norm(12), [32, 31], []),  # 63 bent components
        # one column at the level S(0), not bent, is redone in int32
        (_random(12, 6, 0)(), [1], [16, 16, 16, 14]),
        (read_vf(gold_vf), [16, 16, 16, 12], [3]),
        (_random(17, 1, 1)(), [], [1, 1, 1]),
        (_bent_pair(18), [1, 1, 1], []),
        (_random(18, 1, 1)(), [], [1, 1, 1]),
    ]
    for F, narrow, wide in cases:
        with monkeypatch.context() as patch:
            blocks = _blocks(patch)
            F.profile()
        level = [sel for sel, ok in zip(F.selectors(), _level(F)) if ok]
        assert _widths(blocks, np.int16) == narrow
        assert _widths(blocks, np.int32, level) == wide
        if F.m == 4:
            # the gold file's three lambda = 0 columns are off-level, Mixed,
            # and form the one int32 block; no int16 block holds one
            assert [names for kind, names in blocks if kind == np.int32] == [
                [(0, 1), (0, 2), (0, 3)]
            ]
            assert all(sel[0] for kind, names in blocks if kind == np.int16 for sel in names)
            assert all(cls.kind == "mixed" for _, cls, _ in F.profile()[:3])


def _butterflies(monkeypatch):
    """Record (shape, dtype, shapes of its `_passes` calls) for every fwht
    call, which `_tiled` and the plain butterfly make through `_passes`."""
    calls = []
    fwht, passes = boolfun.fwht, boolfun._passes

    def counted_fwht(a):
        calls.append((a.shape, a.dtype, []))
        return fwht(a)

    def counted_passes(a, tmp):
        calls[-1][2].append(a.shape)
        passes(a, tmp)

    monkeypatch.setattr(boolfun, "fwht", counted_fwht)
    monkeypatch.setattr(boolfun, "_passes", counted_passes)
    return calls


def _maiorana_mcfarland(n):
    x = np.arange(1 << n, dtype=np.uint32)
    half = np.uint32((1 << (n // 2)) - 1)
    return (np.bitwise_count(x & half & (x >> (n // 2))) & 1).astype(np.uint8)


def test_one_column_spectra_take_the_split_butterfly(monkeypatch):
    # a walsh() part of 2^18 int16 entries (n = 20: four parts, forward and
    # certificate each) and one-column profile() blocks at n = 17 (int32)
    # and 18 (int16): four passes on transposed quarters for the low bits,
    # then one on the whole array viewed with rows longer than ROW_BYTES
    f = BooleanFunction(FieldSpec.default(20), _maiorana_mcfarland(20))
    cases = [
        (f.walsh, (1 << 18,), np.int16, 8),
        (_random(17, 1, 1)().profile, (1 << 17, 1), np.int32, 6),
        (_bent_pair(18).profile, (1 << 18, 1), np.int16, 6),
    ]
    for run, shape, dtype, count in cases:
        with monkeypatch.context() as patch:
            calls = _butterflies(patch)
            run()
        assert [(s, d) for s, d, _ in calls] == [(shape, dtype)] * count
        entries = int(np.prod(shape))
        for _, _, passes in calls:
            *quarters, (hi, row) = passes
            assert [int(np.prod(q)) for q in quarters] == [entries // 4] * 4
            assert hi * row == entries and row * np.dtype(dtype).itemsize > ROW_BYTES
    assert f.is_bent()


def test_wide_blocks_keep_plain_passes(monkeypatch):
    # n = 12 blocks of 32 int16 or 16 int32 columns have ROW_BYTES rows: one
    # `_passes` call on the whole block, as before the split
    for F, dtype in ((norm(12), np.int16), (_random(12, 6, 0)(), np.int32)):
        with monkeypatch.context() as patch:
            calls = _butterflies(patch)
            F.profile()
        wide = [(shape, passes) for shape, kind, passes in calls if kind == dtype]
        assert wide and all(passes == [shape] for shape, passes in wide)
        assert {shape[1] for shape, _ in wide} >= {ROW_BYTES // np.dtype(dtype).itemsize}


def test_an_int16_block_that_is_not_bent_is_redone_once_in_int32(monkeypatch):
    # two points of the norm at n = 12 moved so that component (1, 0) keeps
    # S(0) = 2^(n/2) but is not bent, and with it 10 more of its int16 block
    # of 32 columns: those 11 alone are redone, in one int32 block, once,
    # and the 21 bent ones are decided in int16
    G = norm(12)
    field, m = G.field, G.m
    delta = next(int(d) for d in field.subfield(m) if field.subfield_abs_trace(int(d), m))
    bits = G.component(1).table
    values = G.values.copy()
    values[[np.flatnonzero(bits == 0)[0], np.flatnonzero(bits == 1)[0]]] ^= delta

    def fresh():
        return VectorialFunction(field, m, values)

    F = fresh()
    assert not F.component(1).is_bent() and _level(F)[0]
    level = [sel for sel, ok in zip(F.selectors(), _level(F)) if ok]
    rows, duals, blocks = _profiled(F, monkeypatch)
    ref_rows, ref_duals, _ = _profiled(fresh(), monkeypatch, one_column=True)
    first = level[:32]
    off = [sel for sel, cls, _ in ref_rows if sel in first and cls.kind != "bent"]
    assert off[0] == (1, 0) and len(off) == 11
    assert blocks[:2] == [(np.int16, first), (np.int32, off)]
    assert not set(first) & {sel for _, names in blocks[2:] for sel in names}
    assert rows[0][1].kind != "bent" and 1 not in duals
    assert rows == ref_rows
    assert duals.keys() == ref_duals.keys()
    assert all(np.array_equal(bits, ref_duals[lam]) for lam, bits in duals.items())
    # a fault in the inverse of a bent column of that block fails its int16
    # round trip alone: it is redone beside the 11, and its int32 round
    # trip gives the one-column oracle's message
    x, sel = 300, first[2]
    assert sel not in off
    messages = []
    for one_column in (False, True):
        with monkeypatch.context() as patch:
            _inverse_fault(patch, sel, x)
            if one_column:
                patch.setattr(boolfun, "_block_columns", lambda n, itemsize: 1)
            with pytest.raises(VerificationError) as err:
                fresh().profile()
            if not one_column:
                faulted = _blocks(patch)
                with pytest.raises(VerificationError):
                    fresh().profile()
                assert faulted == [(np.int16, first), (np.int32, sorted(off + [sel], key=first.index))]
        messages.append(str(err.value))
    sign = 1 - 2 * int(F.component(*sel).table[x])
    assert messages == [
        f"component {sel}: Walsh round-trip failed at x = {x}: inverse gives "
        f"{-sign}, table sign is {sign}"
    ] * 2


def _inverse_fault(monkeypatch, sel, x):
    # profile() runs every block's forward butterfly, then its in-place
    # inverse, through boolfun.fwht, all in the block's one dtype.  In each
    # block that holds component `sel`, the inverse, its second call,
    # negates entry x of sel's column: an int16 round trip then fails, and
    # the int32 one names the fault
    block = {"column": None, "calls": 0}
    transform = boolfun.transform_signs
    fwht = boolfun.fwht

    def counted(values, word, tab, field, read, names=None):
        block.update(column=names.index(sel) if sel in names else None, calls=0)
        return transform(values, word, tab, field, read, names)

    def faulty(signs):
        out = fwht(signs)
        block["calls"] += 1
        if block["column"] is not None and block["calls"] == 2:
            out[x, block["column"]] = -out[x, block["column"]]
        return out

    monkeypatch.setattr(boolfun, "transform_signs", counted)
    monkeypatch.setattr(boolfun, "fwht", faulty)


def test_a_fault_in_the_in_place_inverse_names_its_component(gold_vf, monkeypatch):
    x, k = 300, 11  # component k is column 8 of the first int16 block
    sels = list(read_vf(gold_vf).selectors())
    sign = 1 - 2 * int(read_vf(gold_vf).component(*sels[k]).table[x])
    want = (
        f"component {sels[k]}: Walsh round-trip failed at x = {x}: inverse "
        f"gives {-sign}, table sign is {sign}"
    )
    for one_column in (False, True):
        F = read_vf(gold_vf)
        _inverse_fault(monkeypatch, sels[k], x)
        if one_column:
            monkeypatch.setattr(boolfun, "_block_columns", lambda n, itemsize: 1)
        with pytest.raises(VerificationError) as err:
            F.profile()
        assert str(err.value) == want
        assert F._profile is None
        monkeypatch.undo()
        assert F.profile() == read_vf(gold_vf).profile()


def test_profile_memory_at_n16(gold_vf):
    F = read_vf(gold_vf)
    size = F.field.size
    # one reused int32 buffer of 8 columns, or 16 int16 ones; one gather
    # chunk, the intp
    # indices of its rows and the int32 signs of the round trip; the
    # tiled butterfly's 1.5 tiles; the word's size for what a column's
    # class and dual take; the packed duals; numpy's ufunc buffers and
    # small objects, as in test_butterflies
    rows = boolfun.GATHER_ENTRIES // 8  # rows of 8 columns in a chunk
    chunk = 8 * rows + 4 * 8 * rows
    bound = (
        8 * size * 4
        + chunk
        + 3 * boolfun.TILE_BYTES // 2
        + F.word.nbytes
        + ((1 << F.m) - 1) * size // 8
        + 3 * 4 * PASS_BUFSIZE + 16384
    )
    tracemalloc.start()
    try:
        F.profile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


# (n, m, t): t > 0 with m + t <= n, and m + t > n, where the word is
# indexed by its distinct values
@pytest.mark.parametrize("n, m, t", [(6, 3, 2), (8, 4, 3), (4, 2, 4), (6, 3, 5), (3, 3, 9)])
def test_sign_table_gathered_by_the_word_gives_every_component(n, m, t):
    F = _random(n, m, t)()
    word, values = F._sign_index()
    assert len(values) <= F.field.size and word.dtype == np.uint32
    tab = boolfun.sign_table(values, F._selector_masks())
    want = np.stack([1 - 2 * F.component(lam, v).table.astype(np.int32)
                     for lam, v in F.selectors()], axis=1)
    assert np.array_equal(tab[word], want)


@pytest.mark.parametrize("n, m, t", [(4, 2, 4), (6, 3, 5)])
def test_profile_above_n_output_bits_matches_each_component(monkeypatch, n, m, t):
    F = _random(n, m, t)()
    assert F.out_bits > n
    heights = []
    transform = boolfun.transform_signs

    def recorded(values, word, tab, *args):
        heights.append(tab.shape[0])
        return transform(values, word, tab, *args)

    monkeypatch.setattr(boolfun, "transform_signs", recorded)
    rows = F.profile()
    assert heights and max(heights) <= F.field.size
    for (lam, v), cls, deg in rows:
        f = F.component(lam, v)
        assert cls == f.classification() and deg == f.degree()


def test_gather_chunks_count_rows(monkeypatch):
    # 8 columns of 2^16 rows: 4 chunks of GATHER_ENTRIES rows, each with an
    # intp index of 128 KB, however wide the table
    rng = np.random.default_rng(8)
    tab = rng.integers(-1, 2, size=(64, 8), dtype=np.int32)
    word = rng.integers(0, 64, size=1 << 16).astype(np.uint32)
    takes = []
    take = np.take

    def counting(*args, **kwargs):
        takes.append(len(args[1]))
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take", counting)
    rows = np.empty((1 << 16, 8), dtype=np.int32)
    boolfun._gather(rows, word, tab)
    monkeypatch.undo()
    assert takes == [boolfun.GATHER_ENTRIES] * 4
    assert np.array_equal(rows, tab[word])


def test_chunked_gathers_give_the_same_profile_and_witness(gold_vf, monkeypatch):
    # int16 blocks of 16 columns and int32 ones of 8, of 2^16 points,
    # gathered and checked 32 entries at a time: the faulty entry at x =
    # 300 lies in the int32 round trip's 76th chunk of 4 rows
    ref_rows, ref_duals = read_duals(read_vf(gold_vf))
    monkeypatch.setattr(boolfun, "GATHER_ENTRIES", 32)
    rows, duals = read_duals(read_vf(gold_vf))
    assert rows == ref_rows
    assert duals.keys() == ref_duals.keys()
    for lam, bits in ref_duals.items():
        assert np.array_equal(duals[lam], bits)
    sels = list(read_vf(gold_vf).selectors())
    x, k = 300, 11
    sign = 1 - 2 * int(read_vf(gold_vf).component(*sels[k]).table[x])
    _inverse_fault(monkeypatch, sels[k], x)
    with pytest.raises(VerificationError) as err:
        read_vf(gold_vf).profile()
    assert str(err.value) == (
        f"component {sels[k]}: Walsh round-trip failed at x = {x}: inverse "
        f"gives {-sign}, table sign is {sign}"
    )

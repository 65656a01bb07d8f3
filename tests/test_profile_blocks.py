"""profile()'s component blocks: widths, reused buffers and in-place checks."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bentvec import FieldSpec, VectorialFunction, boolfun, vectorial
from bentvec.boolfun import PASS_BUFSIZE
from bentvec.cli import main
from bentvec.errors import VerificationError
from bentvec.fileio import read_vf


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


def _profiled(F, monkeypatch):
    """F's rows and packed duals, with the width of every block."""
    widths = []
    transform = vectorial.transform_signs

    def counted(values, *args):
        widths.append(values.shape[1])
        return transform(values, *args)

    # a block's butterflies are two in int32, or in int16 when it is bent,
    # and three or four when an int16 attempt fails, so blocks are counted
    # where profile() hands them over
    monkeypatch.setattr(vectorial, "transform_signs", counted)
    F.keep_duals()
    rows = F.profile()
    monkeypatch.setattr(vectorial, "transform_signs", transform)
    return rows, F._dual_bits, widths


@pytest.mark.parametrize(
    "name, n, m, t, width",
    [("gold", 16, 4, 2, 8), ("random", 16, 4, 2, 8), ("random", 15, 5, 1, 16),
     ("random", 14, 7, 1, 16)],
)
def test_default_blocks_equal_one_column_blocks(gold_vf, monkeypatch, name, n, m, t, width):
    fresh = (lambda: read_vf(gold_vf)) if name == "gold" else _random(n, m, t)
    F = fresh()
    assert (F.n, F.m, F.t) == (n, m, t)
    rows, duals, widths = _profiled(F, monkeypatch)
    count = (1 << (m + t)) - 1
    assert widths == [width] * (count // width) + [count % width] * (count % width > 0)
    with mock.patch.object(vectorial, "BLOCK_COLUMNS", 1):
        ref_rows, ref_duals, ref_widths = _profiled(fresh(), monkeypatch)
    assert ref_widths == [1] * count
    assert rows == ref_rows
    assert duals.keys() == ref_duals.keys()
    for lam, bits in duals.items():
        assert np.array_equal(bits, ref_duals[lam])
    if name == "gold":
        assert len(duals) == (1 << m) - 1  # G is vectorial bent


def _inverse_fault(monkeypatch, on_call, x, j):
    # profile() runs every block's forward butterfly, then its in-place
    # inverse, through boolfun.fwht: in int16 first for a block that may be
    # bent, then in int32 when that fails.  The inverses of the on_call-th
    # block, each the second call of its dtype there, negate entry (x, j)
    # of their results: the int16 round trip fails, and the int32 one names
    # the fault
    blocks = []
    transform = vectorial.transform_signs
    fwht = boolfun.fwht

    def counted(*args):
        blocks.append([])
        return transform(*args)

    def faulty(signs):
        out = fwht(signs)
        dtypes = blocks[-1]
        dtypes.append(out.dtype)
        if len(blocks) == on_call and dtypes.count(out.dtype) == 2:
            out[x, j] = -out[x, j]
        return out

    monkeypatch.setattr(vectorial, "transform_signs", counted)
    monkeypatch.setattr(boolfun, "fwht", faulty)


def test_a_fault_in_the_in_place_inverse_names_its_component(gold_vf, monkeypatch):
    x, k = 300, 11  # component k is column 3 of the second 8-column block
    sels = list(read_vf(gold_vf).selectors())
    sign = 1 - 2 * int(read_vf(gold_vf).component(*sels[k]).table[x])
    want = (
        f"component {sels[k]}: Walsh round-trip failed at x = {x}: inverse "
        f"gives {-sign}, table sign is {sign}"
    )
    for on_call, j, columns in ((2, 3, vectorial.BLOCK_COLUMNS), (k + 1, 0, 1)):
        F = read_vf(gold_vf)
        _inverse_fault(monkeypatch, on_call, x, j)
        with mock.patch.object(vectorial, "BLOCK_COLUMNS", columns):
            with pytest.raises(VerificationError) as err:
                F.profile()
        assert str(err.value) == want
        assert F._profile is None and F._dual_bits is None
        monkeypatch.undo()
        assert F.profile() == read_vf(gold_vf).profile()


def test_profile_memory_at_n16(gold_vf):
    F = read_vf(gold_vf)
    size = F.field.size
    # one reused int32 buffer of 8 columns; one gather chunk, the intp
    # indices of its rows and the int32 signs of the round trip; the
    # tiled butterfly's 1.5 tiles; the word's size for what a column's
    # class and dual take; the packed duals; numpy's ufunc buffers and
    # small objects, as in test_butterflies
    rows = boolfun.GATHER_ENTRIES // 8  # rows of 8 columns in a chunk
    chunk = 8 * rows + 4 * 8 * rows
    bound = (
        8 * size * 4
        + chunk
        + 3 * 4 * boolfun.TILE_ENTRIES // 2
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
    transform = vectorial.transform_signs

    def recorded(values, word, tab, *args):
        heights.append(tab.shape[0])
        return transform(values, word, tab, *args)

    monkeypatch.setattr(vectorial, "transform_signs", recorded)
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
    # 8 columns of 2^16 points, gathered 32 rows and checked 4 rows at a
    # time: the faulty entry at x = 300 lies in the round trip's 76th chunk
    ref = read_vf(gold_vf)
    ref.keep_duals()
    ref.profile()
    monkeypatch.setattr(boolfun, "GATHER_ENTRIES", 32)
    F = read_vf(gold_vf)
    F.keep_duals()
    assert F.profile() == ref.profile()
    for lam, bits in ref._dual_bits.items():
        assert np.array_equal(F._dual_bits[lam], bits)
    sels = list(read_vf(gold_vf).selectors())
    x, k = 300, 11
    sign = 1 - 2 * int(read_vf(gold_vf).component(*sels[k]).table[x])
    _inverse_fault(monkeypatch, 2, x, 3)
    with pytest.raises(VerificationError) as err:
        read_vf(gold_vf).profile()
    assert str(err.value) == (
        f"component {sels[k]}: Walsh round-trip failed at x = {x}: inverse "
        f"gives {-sign}, table sign is {sign}"
    )

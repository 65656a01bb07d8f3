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
    """F's rows and packed duals, with the width of every forward block."""
    widths = []
    fwht = vectorial.fwht

    def forward(signs, **kwargs):
        widths.append(signs.shape[1])
        return fwht(signs, **kwargs)

    monkeypatch.setattr(vectorial, "fwht", forward)
    rows = F.profile()
    monkeypatch.setattr(vectorial, "fwht", fwht)
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
    # the in-place inverse is the only fwht that profile() calls through
    # boolfun; the on_call-th negates entry (x, j) of its result
    calls = []
    fwht = boolfun.fwht

    def faulty(signs, **kwargs):
        out = fwht(signs, **kwargs)
        if "out" in kwargs:
            calls.append(1)
            if len(calls) == on_call:
                out[x, j] = -out[x, j]
        return out

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
    # two reused buffers of 8 columns, int32 spectra and int8 signs; the
    # tiled butterfly's 1.5 tiles; the word's size for what a column's
    # class and dual take; the packed duals; numpy's ufunc buffers and
    # small objects, as in test_butterflies
    bound = (
        8 * size * 5
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

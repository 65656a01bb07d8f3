"""Golden outputs: a fixed corpus of commands, byte for byte.

The corpus runs through `cli.main` in order, in one temporary directory,
so that each `verify` reads the file its construct wrote.  For every
command, the SHA-256 of stdout, of stderr and of every file it wrote or
changed there, and the exit code, must equal the entry of
tests/golden.json.  The inputs are built without a numpy Generator,
whose stream may change between numpy versions: the bent BF files are
Maiorana-McFarland functions, the random ones a fixed LFSR's bits.

A change that means to alter an output rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names each changed entry in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from bentvec import FieldSpec, VectorialFunction
from bentvec.cli import main
from bentvec.fileio import write_bf

GOLDEN = Path(__file__).with_name("golden.json")

CONSTRUCTS = {
    "kasami12": ["--family", "kasami", "--n", "12", "--tau", "3", "--poly", "X1*X2*X3",
                 "--t", "1", "--auto-u", "--seed", "1"],
    "gold16": ["--family", "gold", "--n", "16", "--tau", "2", "--poly", "X1*X2",
               "--t", "2", "--auto-u", "--seed", "1"],
    "niho8": ["--family", "niho", "--n", "8", "--r", "3", "--tau", "2", "--poly", "X1*X2",
              "--t", "1", "--auto-u"],
    "gold8": ["--family", "gold", "--n", "8", "--tau", "2", "--poly", "X1*X2", "--auto-u"],
    "kasami6": ["--family", "kasami", "--n", "6", "--tau", "3", "--poly", "X1*X2*X3",
                "--auto-u"],
    "niho12": ["--family", "niho", "--n", "12", "--r", "5", "--tau", "2", "--poly", "X1*X2",
               "--t", "1", "--auto-u"],
}


def _corpus():
    """(name, argv) of every command, in the order they run."""
    for name, args in CONSTRUCTS.items():
        yield f"construct {name}", ["construct", *args, "--out", f"{name}.vf"]
    for name in CONSTRUCTS:
        yield f"verify {name}", ["verify", f"{name}.vf"]
    for kind in ("bent", "random"):
        for n in (12, 16):
            yield f"verify {kind}{n}", ["verify", f"{kind}{n}.bf"]
    yield "refuse niho u", ["construct", "--family", "niho", "--n", "8", "--r", "3",
                            "--tau", "4", "--poly", "X1*X2", "--u", "1,2,3,4", "--out", "x.vf"]
    yield "refuse gold u", ["construct", "--family", "gold", "--n", "8", "--tau", "2",
                            "--poly", "X1*X2", "--u", "5,7", "--out", "y.vf"]
    yield "verify bad vf", ["verify", "bad.vf"]
    yield "propp search", ["propp", "dual8.bf", "--search", "2", "--limit", "5"]
    # above n = 18, walsh() transforms its spectrum in parts
    yield "verify bent20", ["verify", "bent20.bf"]
    yield "verify random21", ["verify", "random21.bf"]


def _maiorana_mcfarland(n):
    """<x_low, x_high> on the two halves of the index bits: bent for even n."""
    x = np.arange(1 << n, dtype=np.uint32)
    low = np.uint32((1 << (n // 2)) - 1)
    return (np.bitwise_count(x & low & (x >> np.uint32(n // 2))) & 1).astype(np.uint8)


def _lfsr(count, state=0xACE1ACE1):
    """The output bits of a 32-bit Galois LFSR, x^32 + x^22 + x^2 + x + 1."""
    bits = bytearray(count)
    for i in range(count):
        bits[i] = state & 1
        state = (state >> 1) ^ (0x80200003 if state & 1 else 0)
    return np.frombuffer(bytes(bits), dtype=np.uint8)


def _bf_text(n, table):
    """A BF file: the header, then the bits packed four to a hex digit, low first."""
    packed = np.packbits(table, bitorder="little").tolist()
    digits = "".join(f"{b & 15:x}{b >> 4:x}" for b in packed)
    return f"BF n={n} field={FieldSpec.default(n).modulus:x}\n{digits}\n"


def _write_inputs(work):
    for n in (12, 16):
        (work / f"bent{n}.bf").write_text(_bf_text(n, _maiorana_mcfarland(n)))
        (work / f"random{n}.bf").write_text(_bf_text(n, _lfsr(1 << n)))
    (work / "bent20.bf").write_text(_bf_text(20, _maiorana_mcfarland(20)))
    (work / "random21.bf").write_text(_bf_text(21, _lfsr(1 << 21)))
    # a non-hex digit on line 4, column 2
    rows = ["0"] * 16
    rows[2] = "1g"
    (work / "bad.vf").write_text("VF n=4 m=2 t=0 field=13\n" + "\n".join(rows) + "\n")
    field = FieldSpec.default(8)
    G = VectorialFunction.from_univariate(field, 4, [(1, 17)])
    write_bf(work / "dual8.bf", G.component(1).dual())


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _files(work):
    return {p.name: _digest(p.read_bytes()) for p in sorted(work.iterdir()) if p.is_file()}


def run_corpus(work):
    """Every command's exit code and digests; the inputs' digests under "inputs"."""
    _write_inputs(work)
    results = {"inputs": {"files": _files(work)}}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, argv in _corpus():
            before = _files(work)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            after = _files(work)
            results[name] = {
                "exit": code,
                "stdout": _digest(out.getvalue().encode()),
                "stderr": _digest(err.getvalue().encode()),
                "files": {k: v for k, v in after.items() if before.get(k) != v},
            }
    finally:
        os.chdir(cwd)
    return results


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_the_corpus_is_the_golden_one():
    assert list(GOLDEN_ENTRIES) == ["inputs", *(name for name, _ in _corpus())]


@pytest.mark.parametrize("name", list(GOLDEN_ENTRIES))
def test_output_is_golden(outputs, name):
    assert outputs[name] == GOLDEN_ENTRIES[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        entries = run_corpus(Path(work))
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")

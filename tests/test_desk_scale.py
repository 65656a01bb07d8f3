"""Moderately large instances: the library stays exact beyond toy sizes."""

import os
import subprocess
import sys
import time

import numpy as np

import bentvec
from bentvec import (
    FieldSpec,
    ReducedPolynomial,
    gold_auto_u,
    gold_family,
    kasami_auto_u,
    kasami_family,
)

# `verify` of an n=22 BF file, whole process: stated limits
VERIFY_N22_SECONDS = 20.0
VERIFY_N22_PEAK_MB = 400.0

# runs verify, then reports the process's own peak RSS (VmHWM) on stderr
VERIFY_AND_REPORT_PEAK = """\
import os, sys
from bentvec.cli import main
code = main(["verify", sys.argv[1]])
sys.stdout.flush()
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        sys.stderr.write(next(l for l in status if l.startswith("VmHWM:")))
sys.exit(code)
"""


def test_kasami_n12_full_verification():
    field = FieldSpec.default(12)
    poly = ReducedPolynomial.parse("X1*X2*X3+X4*X5")
    result = kasami_family(field, kasami_auto_u(field), poly)
    rep = result.report
    assert rep.ok and rep.verified_class == "vectorial bent (12,6)"
    assert rep.degree_measured == 3
    assert rep.bent_components_measured == 63


def test_gold_n16_full_verification():
    start = time.monotonic()
    field = FieldSpec.default(16)
    poly = ReducedPolynomial.parse("X1*X2+X3*X4")
    result = gold_family(field, gold_auto_u(field), poly)
    rep = result.report
    assert rep.ok and rep.self_dual_ok
    assert rep.verified_class == "vectorial bent (16,4)"
    assert rep.degree_measured == 2
    assert time.monotonic() - start < 30.0


def maiorana_mcfarland(n, seed):
    """Bent table f(x, y) = <x, pi(y)> + g(y), x the low n/2 bits of v."""
    half = 1 << (n // 2)
    rng = np.random.default_rng(seed)
    pi = rng.permutation(half).astype(np.uint32)
    g = rng.integers(0, 2, half, dtype=np.uint8)
    parity = (np.bitwise_count(np.arange(half, dtype=np.uint32)) & 1).astype(np.uint8)
    x = np.arange(half, dtype=np.uint32)
    return (parity[x[None, :] & pi[:, None]] ^ g[:, None]).reshape(-1)


def anf_degree(table):
    a = table.copy()
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2, h)
        b[:, 1, :] ^= b[:, 0, :]
        h *= 2
    return int(np.bitwise_count(np.flatnonzero(a).astype(np.uint64)).max())


def test_verify_bf_n22_time_and_memory(tmp_path):
    n = 22
    table = maiorana_mcfarland(n, seed=3)
    nib = table[0::4] | (table[1::4] << 1) | (table[2::4] << 2) | (table[3::4] << 3)
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)[nib]
    path = tmp_path / "mm22.bf"
    modulus = FieldSpec.default(n).modulus
    path.write_text(f"BF n={n} field={modulus:x}\n{digits.tobytes().decode()}\n")
    expected = (
        f"BF n={n} field={modulus:x}\n"
        "class: Bent(2048)\n"
        f"degree: {anf_degree(table)}\n"
        f"weight: {int(table.sum())} (balanced: False)\n"
        f"spectrum |W| counts: 2048: {1 << n}\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(bentvec.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_AND_REPORT_PEAK, str(path)],
        env=env, capture_output=True, text=True, timeout=10 * VERIFY_N22_SECONDS,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert elapsed < VERIFY_N22_SECONDS
    peak = [line for line in proc.stderr.splitlines() if line.startswith("VmHWM:")]
    if sys.platform.startswith("linux"):
        peak_mb = int(peak[0].split()[1]) / 1024  # VmHWM is in kB
        assert peak_mb < VERIFY_N22_PEAK_MB

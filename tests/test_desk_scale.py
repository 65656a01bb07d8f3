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

# `verify` of a bent n=24 BF file, whole process: stated limits; measured
# 0.9-1.0 s and 70.8 MB on a 2-vCPU Xeon, where a whole-column spectrum
# took 115.3 MB
VERIFY_N24_SECONDS = 60.0
VERIFY_N24_PEAK_MB = 100.0

# `verify` of an n=20, m=4, t=2 VF file, whole process: stated limits, with
# the n=22 limits' headroom; measured 2.7-2.9 s and 89.5 MB on a 2-vCPU Xeon
VERIFY_VF_N20_SECONDS = 140.0
VERIFY_VF_N20_PEAK_MB = 350.0

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
    run_verify(path, expected, VERIFY_N22_SECONDS, VERIFY_N22_PEAK_MB)


def test_verify_bf_n24_time_and_memory(tmp_path):
    # <x_low, x_high>, quadratic and bent, written 256 rows of x_high at a
    # time, so that no whole table is built here
    n, half = 24, 12
    path = tmp_path / "ip24.bf"
    modulus = FieldSpec.default(n).modulus
    low = np.arange(1 << half, dtype=np.uint16)
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    weight = 0
    with open(path, "w") as out:
        out.write(f"BF n={n} field={modulus:x}\n")
        for start in range(0, 1 << half, 256):
            high = np.arange(start, start + 256, dtype=np.uint16)[:, None]
            t = (np.bitwise_count(high & low) & 1).astype(np.uint8).reshape(-1)
            weight += int(t.sum())
            nib = t[0::4] | (t[1::4] << 1) | (t[2::4] << 2) | (t[3::4] << 3)
            out.write(digits[nib].tobytes().decode())
        out.write("\n")
    expected = (
        f"BF n={n} field={modulus:x}\n"
        "class: Bent(4096)\n"
        "degree: 2\n"
        f"weight: {weight} (balanced: False)\n"
        f"spectrum |W| counts: 4096: {1 << n}\n"
    )
    assert weight == (1 << (n - 1)) - (1 << (half - 1))
    run_verify(path, expected, VERIFY_N24_SECONDS, VERIFY_N24_PEAK_MB)


def run_verify(path, expected, seconds, peak_mb):
    """`bentvec verify path` in a fresh process: its stdout, time and peak RSS."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bentvec.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_AND_REPORT_PEAK, str(path)],
        env=env, capture_output=True, text=True, timeout=10 * seconds,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert elapsed < seconds
    peak = [line for line in proc.stderr.splitlines() if line.startswith("VmHWM:")]
    if sys.platform.startswith("linux"):
        peak_mb_used = int(peak[0].split()[1]) / 1024  # VmHWM is in kB
        assert peak_mb_used < peak_mb


def times_x(y, half):
    """y * X in GF(2^10) = F2[X] / (X^10 + X^3 + 1), a primitive modulus."""
    return ((y << 1) ^ np.where(y & (half >> 1), 0x409, 0)) & (half - 1)


def test_verify_vf_n20_time_and_memory(tmp_path):
    n, m, t = 20, 4, 2
    field = FieldSpec.default(n)
    half = 1 << (n // 2)
    rng = np.random.default_rng(20)
    x = np.arange(1 << n, dtype=np.int64)
    # F2-linear onto F_16 through the low m bits, so component (lambda, 0)
    # is a nonzero linear function for every lambda != 0
    values = np.zeros(1 << n, dtype=np.int64)
    for j, b in enumerate(field.subfield_basis(m)):
        values ^= ((x >> j) & 1) * b
    # two Maiorana-McFarland bent extra bits <x_low, pi(x_high)> + g(x_high);
    # pi, X pi and (1 + X) pi are permutations, so e1, e2 and e1 + e2 are
    # bent, and so is a linear function plus any of them
    pi = rng.permutation(half)
    low, high = x & (half - 1), x >> (n // 2)
    g = rng.integers(0, 2, (2, half), dtype=np.uint8)
    e1, e2 = (
        (np.bitwise_count(low & p[high]) & 1).astype(np.uint8) ^ g[i][high]
        for i, p in enumerate((pi, times_x(pi, half)))
    )
    path = tmp_path / "f20.vf"
    body = "".join(f"{v:x}.{e:x}\n" for v, e in zip(values.tolist(), (e1 | e2 << 1).tolist()))
    path.write_text(f"VF n={n} m={m} t={t} field={field.modulus:x}\n{body}")
    degrees = {1: anf_degree(e1), 2: anf_degree(e2), 3: anf_degree(e1 ^ e2)}
    rows = [
        f"  component lambda={lam:x} v={v:x}: "
        + (f"Bent(1024), degree {degrees[v]}" if v else "Plateaued(1048576), degree 1")
        for lam in field.subfield(m).tolist()
        for v in range(1 << t)
        if lam or v
    ]
    expected = (
        f"VF n={n} m={m} t={t} field={field.modulus:x}\n"
        f"class: vectorial plateaued ({n},{m + t})\n"
        f"degree: {max(degrees.values())}\n"
        f"bent components: {(1 << m) * 3} (bound n/a)\n"
        + "".join(row + "\n" for row in rows)
    )
    run_verify(path, expected, VERIFY_VF_N20_SECONDS, VERIFY_VF_N20_PEAK_MB)

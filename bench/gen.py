"""Seeded input generators and reference checks, written with numpy alone.

Nothing here imports bentvec: the files these functions write and the
answers they predict are independent of the program under test.

Conventions follow the BF format: entry v of a truth table is the value
at the field element whose polynomial-basis coordinates are the bits of v,
and the payload packs four entries per hex digit, lowest index in the
least significant bit.
"""

from __future__ import annotations

import numpy as np

# Moduli of the shipped field table for the degrees the workloads use.
MODULI = {10: 0x409, 12: 0x1053, 16: 0x1100B, 20: 0x100009}

_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def bf_text(n, table):
    """BF file text for a 0/1 table of length 2^n (n >= 2)."""
    t = np.asarray(table, dtype=np.uint8)
    nib = t[0::4] | (t[1::4] << 1) | (t[2::4] << 2) | (t[3::4] << 3)
    return f"BF n={n} field={MODULI[n]:x}\n" + _HEX[nib].tobytes().decode() + "\n"


def anf_degree(table):
    """Algebraic degree by the binary Moebius transform (0 for zero)."""
    a = np.asarray(table, dtype=np.uint8).copy()
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2, h)
        b[:, 1, :] ^= b[:, 0, :]
        h *= 2
    masks = np.nonzero(a)[0]
    if masks.size == 0:
        return 0
    return int(np.bitwise_count(masks.astype(np.uint64)).max())


def maiorana_mcfarland(n, seed):
    """Bent table f(x, y) = <x, pi(y)> + g(y), x the low n/2 bits of v.

    pi is a seeded permutation of F_2^(n/2) and g a seeded Boolean
    function of y.  Such an f is bent for any nondegenerate pairing, so
    in particular for the field pairing Tr(a v) that bentvec uses.
    """
    half = n // 2
    rng = np.random.default_rng(seed)
    pi = rng.permutation(1 << half)
    g = rng.integers(0, 2, 1 << half, dtype=np.uint8)
    parity = (np.bitwise_count(np.arange(1 << half, dtype=np.uint64)) & 1).astype(np.uint8)
    x = np.arange(1 << half)
    return (parity[x[None, :] & pi[:, None]] ^ g[:, None]).reshape(-1)

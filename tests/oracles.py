"""Independent oracles for the test suite.

Everything here recomputes results from definitions, sharing no code path
with the library: multiplication is schoolbook polynomial arithmetic with
top-down long division, the Walsh transform is the literal double sum,
the Hadamard matrix is Sylvester's doubling, and the ANF is the subset-sum
Möbius formula.
"""

import numpy as np


def poly_mul_mod(a, b, modulus, n):
    """Schoolbook carry-less product, then long division by the modulus."""
    prod = 0
    bb = b
    shift = 0
    while bb:
        if bb & 1:
            prod ^= a << shift
        bb >>= 1
        shift += 1
    deg = prod.bit_length() - 1
    while deg >= n:
        prod ^= modulus << (deg - n)
        deg = prod.bit_length() - 1
    return prod


def oracle_pow(a, e, modulus, n):
    r = 1
    for _ in range(e):
        r = poly_mul_mod(r, a, modulus, n)
    return r


def oracle_trace(a, modulus, n, m=1):
    t, x = 0, a
    for _ in range(n // m):
        t ^= x
        y = x
        for _ in range(m):
            y = poly_mul_mod(y, y, modulus, n)
        x = y
    return t


def pairing_matrix(modulus, n):
    """P[a, x] = Tr(a x) for all pairs, from the oracle primitives."""
    size = 1 << n
    P = np.zeros((size, size), dtype=np.uint8)
    for a in range(size):
        for x in range(size):
            P[a, x] = oracle_trace(poly_mul_mod(a, x, modulus, n), modulus, n)
    return P


def naive_walsh(table, pairing):
    """The literal double sum W[a] = sum_x (-1)^(f(x) + Tr(ax))."""
    size = len(table)
    mism = (pairing ^ np.asarray(table, dtype=np.uint8)[None, :]).sum(axis=1)
    return (size - 2 * mism).astype(np.int64)


def naive_walsh_batch(tables, pairing):
    """naive_walsh over a batch of truth tables (rows)."""
    size = pairing.shape[0]
    mism = (
        pairing[None, :, :] ^ np.asarray(tables, dtype=np.uint8)[:, None, :]
    ).sum(axis=2)
    return (size - 2 * mism).astype(np.int64)


def sylvester_hadamard(n):
    """H_0 = [1], H_(k+1) = [[H_k, H_k], [H_k, -H_k]]: the 2^n Hadamard matrix."""
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    return h


def naive_subset_xor(words):
    """a[I] = xor of words[x] over x <= I, along axis 0, for any trailing shape."""
    words = np.asarray(words)
    xs = np.arange(words.shape[0])
    out = np.empty_like(words)
    for mask in range(words.shape[0]):
        out[mask] = np.bitwise_xor.reduce(words[(xs & ~mask) == 0], axis=0)
    return out


def naive_anf(table, n):
    """ANF coefficients by the subset-sum formula a_I = xor of f over x <= I."""
    return naive_subset_xor(np.asarray(table, dtype=np.uint8)[: 1 << n])


def naive_degree(table, n):
    coeffs = naive_anf(table, n)
    deg = 0
    for mask in range(1 << n):
        if coeffs[mask]:
            deg = max(deg, bin(mask).count("1"))
    return deg


def oracle_subfield_trace(y, modulus, n, m):
    """Tr^m_1(y) = y + y^2 + ... + y^(2^(m-1)) for y in F_{2^m}."""
    t, x = 0, y
    for _ in range(m):
        t ^= x
        x = poly_mul_mod(x, x, modulus, n)
    return t


def naive_p_tau(table, elements):
    """(holds, pair, x) of property (P_tau) by its definition, pair by pair.

    The first pair i < j (1-based, lexicographic) whose second derivative
    g(x) + g(x+u_i) + g(x+u_j) + g(x+u_i+u_j) is 1 somewhere, with the
    least such x.
    """
    g = [int(b) for b in table]
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            a, b = elements[i], elements[j]
            for x in range(len(g)):
                if g[x] ^ g[x ^ a] ^ g[x ^ b] ^ g[x ^ a ^ b]:
                    return False, (i + 1, j + 1), x
    return True, None, None

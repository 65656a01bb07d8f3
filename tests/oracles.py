"""Independent oracles for the test suite.

Everything here recomputes results from definitions, sharing no code path
with the library: multiplication is schoolbook polynomial arithmetic with
top-down long division, the Walsh transform is the literal double sum,
the Hadamard matrix is Sylvester's doubling, and the ANF is the subset-sum
Möbius formula.  The VF reader and writer go one line at a time through
Python's own `int` and `format`; they share only the header parser, the
bad-character pattern and the `VectorialFunction` constructor with the
library.  The tail profile builds and transforms each tail bundle on its
own, through `BooleanFunction`, where the library reads the bundles off
the augmented function's profile.
"""

import numpy as np

from bentvec.boolfun import BooleanFunction
from bentvec.errors import FieldError, ParseError
from bentvec.fileio import _VF_BAD_CHAR, _header_field, parse_header
from bentvec.vectorial import VectorialFunction


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


def naive_tail_profile(field, fs):
    """(plateaued, amplitude per v) of the tail (f_1, ..., f_t), bundle by
    bundle: each nonzero combination v of the tail is built as its own
    truth table and classified from its own spectrum.
    """
    ok, amplitudes = True, {}
    for v in range(1, 1 << len(fs)):
        table = np.zeros(field.size, dtype=np.uint8)
        for i, f in enumerate(fs):
            if (v >> i) & 1:
                table ^= f.table
        cls = BooleanFunction(field, table).classification()
        amplitudes[v] = cls.amplitude
        ok = ok and cls.plateaued_family
    return ok, amplitudes


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


def naive_vf_to_text(F):
    """A VF file, one formatted line per point."""
    header = f"VF n={F.n} m={F.m} t={F.t} field={F.field.modulus:x}"
    lines = [header]
    if F.t:
        for value, extra in zip(F.values, F.extra):
            lines.append(f"{int(value):x}.{int(extra):x}")
    else:
        lines.extend(f"{int(value):x}" for value in F.values)
    return "\n".join(lines) + "\n"


def naive_vf_from_text(text, modulus=None):
    """A VF file read line by line, each entry through int(part, 16)."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1, column=1)
    header, columns = parse_header(lines[0], "VF", ("n", "m", "t", "field"))
    n, m, t = header["n"], header["m"], header["t"]
    spec = _header_field(header, columns, modulus)
    bad = _VF_BAD_CHAR.search(text, len(lines[0]))
    if bad:
        head = text[: bad.start() + 1].splitlines()
        raise ParseError(
            f"bad character {bad.group()!r}", line=len(head), column=len(head[-1])
        )
    size = 1 << n
    body = lines[1:]
    if len([ln for ln in body if ln.strip()]) != size:
        raise ParseError(
            f"expected {size} output lines, got {len([l for l in body if l.strip()])}",
            line=len(lines) + 1,
            column=1,
        )
    values = np.zeros(size, dtype=np.int64)
    extra = np.zeros(size, dtype=np.int64)
    row = 0
    for lineno, line in enumerate(body, start=2):
        entry = line.strip()
        if not entry:
            continue
        # columns count from the start of the line, its indent included
        indent = len(line) - len(line.lstrip())
        value_part, dot, extra_part = entry.partition(".")
        if t == 0 and dot:
            raise ParseError("t=0 entries must not carry extra bits", line=lineno, column=indent + len(value_part) + 1)
        if t > 0 and not dot:
            raise ParseError("entry is missing its extra bits", line=lineno, column=indent + len(entry) + 1)
        try:
            values[row] = int(value_part, 16)
        except (ValueError, OverflowError):
            raise ParseError(f"bad hex value {value_part!r}", line=lineno, column=indent + 1) from None
        if t:
            try:
                extra[row] = int(extra_part, 16)
            except (ValueError, OverflowError):
                raise ParseError(
                    f"bad hex extra bits {extra_part!r}",
                    line=lineno,
                    column=indent + len(value_part) + 2,
                ) from None
        row += 1
    try:
        return VectorialFunction(spec, m, values, extra, t)
    except FieldError as exc:
        line, column = 2, 1
        if exc.point is not None:
            rows = [i for i, entry in enumerate(body, start=2) if entry.strip()]
            line = rows[exc.point]
            entry = lines[line - 1]
            if exc.extra:
                column = entry.index(".") + 2
            else:
                column = len(entry) - len(entry.lstrip()) + 1
        raise ParseError(
            f"inconsistent table: {exc}", line=line, column=column
        ) from None

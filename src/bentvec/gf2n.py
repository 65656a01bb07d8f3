"""Exact arithmetic in GF(2^n), n <= 24.

Conventions used everywhere in this package:

  element <-> integer : bit j of the value is the coefficient of alpha^j in
                        the polynomial basis {1, alpha, ..., alpha^(n-1)},
                        where alpha is the class of x modulo the field
                        polynomial.  Addition is XOR.
  modulus             : bit mask of the (primitive) field polynomial,
                        including the leading x^n term.
  generator           : an element of multiplicative order 2^n - 1.  The
                        shipped table uses primitive polynomials, so the
                        generator is alpha itself (value 2) for n >= 2.

A fixed modulus table keeps truth-table files reproducible across runs.
Every spec is validated on construction: the generator must have order
exactly 2^n - 1, which simultaneously certifies that the modulus is
irreducible (the generator's powers exhaust all nonzero residues, so the
residue ring has no zero divisors).

Scalar products, subfield traces and the subfield and unit-circle lists
use the carry-less product `clmul_reduce`.  Only `pow`, `inverse`, `trace`
(through `pow`) and the `*_elems` array operations read the exp/log
tables, so a VF read or `verify` builds no full-field table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldError, ParseError

# One primitive polynomial per degree; generator x (value 2) has full order
# for each of them (checked in the test suite and on first table build).
PRIMITIVE_POLYNOMIALS = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
    17: 0x20009,
    18: 0x40081,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x1000087,
}

MAX_N = 24


def prime_factors(m):
    """Distinct prime factors of m (trial division; m <= 2^24)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def clmul_reduce(a, b, modulus, n):
    """Carry-less product of a and b reduced by the degree-n modulus."""
    r = 0
    top = 1 << n
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return r


@dataclass(frozen=True)
class FieldSpec:
    """A concrete model of GF(2^n): degree, modulus mask, primitive element."""

    n: int
    modulus: int
    generator: int

    def __post_init__(self):
        _check_degree(self.n, self.modulus)
        if not 0 < self.generator < (1 << self.n):
            raise FieldError(f"generator {self.generator:#x} out of range")
        order = self.order
        if not _order_is_full(
            self.generator, self.modulus, self.n, order, prime_factors(order)
        ):
            raise FieldError(
                f"generator {self.generator:#x} does not have order {order}; "
                f"modulus {self.modulus:#x} with this generator is not primitive"
            )

    @classmethod
    def default(cls, n):
        """The shipped field model for this degree."""
        if n not in PRIMITIVE_POLYNOMIALS:
            raise FieldError(f"no default modulus for n={n}")
        return cls(n, PRIMITIVE_POLYNOMIALS[n], 2 if n > 1 else 1)

    @classmethod
    def with_least_generator(cls, n, modulus):
        """Field model for a caller-supplied modulus, least primitive element.

        Used for the --field-modulus override: the file format records only
        the modulus, so the generator is pinned deterministically.  Testing
        irreducibility first keeps a bad modulus from a scan of 2^n candidates.
        """
        _check_degree(n, modulus)
        if not _is_irreducible(modulus, n):
            raise FieldError(f"modulus {modulus:#x} is not irreducible")
        order = (1 << n) - 1
        factors = prime_factors(order)
        for g in range(2, 1 << n) if n > 1 else (1,):
            if _order_is_full(g, modulus, n, order, factors):
                return cls(n, modulus, g)
        raise FieldError(f"modulus {modulus:#x} is not primitive-compatible")

    # -- structure ----------------------------------------------------------

    @property
    def size(self):
        return 1 << self.n

    @property
    def order(self):
        return (1 << self.n) - 1

    def serialize(self):
        return f"n:{self.n} modulus:{self.modulus:x} generator:{self.generator:x}"

    @classmethod
    def parse(cls, text):
        parts = dict(
            tok.split(":", 1) for tok in text.strip().split() if ":" in tok
        )
        try:
            return cls(
                int(parts["n"]), int(parts["modulus"], 16), int(parts["generator"], 16)
            )
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad field spec {text!r}: {exc}") from exc

    # -- scalar operations ---------------------------------------------------

    def check(self, a):
        """a as a Python int, if it is a Python or NumPy integer in [0, 2^n).

        Anything else, 2.5, '3' or None, raises FieldError, never truncated.
        """
        try:
            a = operator.index(a)
        except TypeError:
            raise FieldError(f"element {a!r} is not an integer") from None
        if not 0 <= a < self.size:
            raise FieldError(f"element {a:#x} outside GF(2^{self.n})")
        return a

    def mul(self, a, b):
        """Product in GF(2^n)."""
        return clmul_reduce(self.check(a), self.check(b), self.modulus, self.n)

    def pow(self, a, e):
        """a^e, exponent reduced mod 2^n - 1 for a != 0; 0^0 = 1 by convention."""
        a, e = self.check(a), _exponent(e)
        if a == 0:
            return int(e == 0)
        exp, log = _exp_log(self)
        return int(exp[(int(log[a]) * (e % self.order)) % self.order])

    def inverse(self, a):
        """Multiplicative inverse of a nonzero element."""
        if self.check(a) == 0:
            raise FieldError("zero has no inverse")
        return self.pow(a, self.order - 1)

    def trace(self, a, m=1):
        """Relative trace to the subfield F_{2^m}: sum of a^(2^(i*m)).

        The result lies in F_{2^m}; for m = 1 it is 0 or 1.
        """
        self.check(a)
        self._check_subfield_degree(m)
        t, x = 0, a
        for _ in range(self.n // m):
            t ^= x
            x = self.pow(x, 1 << m)
        return t

    def subfield_abs_trace(self, y, m):
        """Absolute trace of y computed inside F_{2^m}; y must lie there."""
        self._check_subfield_degree(m)
        t, x = 0, y
        for _ in range(m):
            t ^= x
            x = self.mul(x, x)
        # the m squarings end at y^(2^m), which is y exactly on F_{2^m}
        if x != y:
            raise FieldError(f"{y:#x} is not in the subfield F_(2^{m})")
        return t

    # -- subsets -------------------------------------------------------------

    def _check_subfield_degree(self, m):
        if m < 1 or self.n % m != 0:
            raise FieldError(f"{m} does not divide n={self.n}")

    def subfield(self, m):
        """All 2^m solutions of x^(2^m) = x, ascending."""
        self._check_subfield_degree(m)
        return _subfield(self, m).copy()

    def subfield_basis(self, m):
        """Lexicographically least F2-basis of the subfield F_{2^m}."""
        self._check_subfield_degree(m)
        basis = []
        for x in _subfield(self, m).tolist():
            if f2_is_independent([*basis, x]):
                basis.append(x)
                if len(basis) == m:
                    break
        return basis

    def unit_circle(self, m=None):
        """Elements of F_{2^m} with x^(2^(m/2)+1) = 1, ascending (m even).

        Defaults to the whole field (m = n).  For the Gold-like family the
        relevant circle lives inside the subfield F_{2^(2k)} of GF(2^(4k));
        pass m = 2k for that case.
        """
        m = self.n if m is None else m
        self._check_subfield_degree(m)
        if m % 2 != 0:
            raise FieldError(f"unit circle needs an even degree, got m={m}")
        return _subgroup(self, (1 << (m // 2)) + 1)

    # -- vectorized element operations ---------------------------------------

    def mul_elems(self, a, b):
        """Elementwise product; a, b arrays or scalars (broadcast)."""
        exp, log = _exp_log(self)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        la = log[np.broadcast_to(a, out.shape)[nz]]
        lb = log[np.broadcast_to(b, out.shape)[nz]]
        out[nz] = exp[(la + lb) % self.order]
        return out

    def pow_elems(self, a, e):
        """Elementwise a^e with the scalar-pow conventions."""
        e = _exponent(e)
        exp, log = _exp_log(self)
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.ones(a.shape, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = a != 0
        out[nz] = exp[(log[a[nz]] * (e % self.order)) % self.order]
        return out

    def poly_elems(self, terms):
        """int64 sum of c x^d over the (c, d) terms, at every element x.

        Each c goes through `check`; each d must be an integer exponent in
        [0, 2^n - 1].
        """
        xs = np.arange(self.size, dtype=np.int64)
        acc = np.zeros(self.size, dtype=np.int64)
        for c, d in terms:
            c = self.check(c)
            acc ^= self.mul_elems(self.pow_elems(xs, _exponent(d, self.order)), c)
        return acc

    def inverse_elems(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise FieldError("zero has no inverse")
        return self.pow_elems(a, self.order - 1)

    def abs_trace_table(self):
        """uint8 table of Tr^n_1(x) for every element x."""
        return _abs_trace_table(self).copy()

    def walsh_permutation(self):
        """perm with Tr^n_1(a x) = parity(perm[a] & x) for all a, x.

        This is the linear reindexing that turns the plain Hadamard
        transform into the field-paired Walsh transform.
        """
        return _walsh_permutation(self).copy()

    def linear_form_table(self, u):
        """uint8 truth table of x -> Tr^n_1(u x)."""
        w = int(_walsh_permutation(self)[self.check(u)])
        return _linear_table([(w >> j) & 1 for j in range(self.n)], np.uint8)


def _exponent(e, order=None):
    """e as a Python int, if it is a nonnegative Python or NumPy integer,
    at most `order` when that is given; every exponent is taken through it."""
    try:
        e = operator.index(e)
    except TypeError:
        raise FieldError(f"exponent {e!r} is not an integer") from None
    if order is not None and not 0 <= e <= order:
        raise FieldError(f"exponent {e} outside [0, 2^n - 1]")
    if e < 0:
        raise FieldError("negative exponent; use inverse()")
    return e


def _check_degree(n, modulus):
    if not 1 <= n <= MAX_N:
        raise FieldError(f"extension degree must be in 1..{MAX_N}, got {n}")
    if modulus.bit_length() != n + 1:
        raise FieldError(f"modulus {modulus:#x} does not have degree {n}")


def _poly_mod(a, f):
    """a mod f for GF(2)[x] polynomials coded as bit masks."""
    df = f.bit_length()
    while a.bit_length() >= df:
        a ^= f << (a.bit_length() - df)
    return a


def _is_irreducible(modulus, n):
    """Rabin's test: x^(2^n) = x mod f and gcd(x^(2^(n/q)) - x, f) = 1
    for every prime q | n."""
    frob = [_poly_mod(2, modulus)]  # frob[k] = x^(2^k) mod f
    for _ in range(n):
        frob.append(clmul_reduce(frob[-1], frob[-1], modulus, n))
    if frob[n] != frob[0]:
        return False
    for q in prime_factors(n):
        a, b = modulus, frob[n // q] ^ frob[0]
        while b:
            a, b = b, _poly_mod(a, b)
        if a != 1:
            return False
    return True


def _clpow(a, e, modulus, n):
    """a^e by square-and-multiply with clmul_reduce."""
    r = 1
    while e:
        if e & 1:
            r = clmul_reduce(r, a, modulus, n)
        a = clmul_reduce(a, a, modulus, n)
        e >>= 1
    return r


def _order_is_full(g, modulus, n, order, factors):
    if _clpow(g, order, modulus, n) != 1:
        return False
    return all(_clpow(g, order // q, modulus, n) != 1 for q in factors)


def _subgroup(spec, count):
    """The multiplicative subgroup of order count (a divisor of 2^n - 1),
    ascending: the powers of generator^((2^n - 1) / count)."""
    step = _clpow(spec.generator, spec.order // count, spec.modulus, spec.n)
    powers = [1]
    for _ in range(count - 1):
        powers.append(clmul_reduce(powers[-1], step, spec.modulus, spec.n))
    return np.sort(np.array(powers, dtype=np.int64))


def _clmul_reduce_elems(a, b, modulus, n):
    """clmul_reduce of every element of the array a by the scalar b."""
    r = np.zeros_like(a)
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a = (a << 1) ^ ((a >> (n - 1)) & 1) * modulus
    return r


@lru_cache(maxsize=None)
def _exp_log(spec):
    """exp/log tables for the generator; raises if its order is short."""
    order, n = spec.order, spec.n
    # exp[k] = g^k by doubling: the next 2^j powers are the first 2^j
    # times g^(2^j), one vectorised carry-less product per step
    exp = np.empty(order, dtype=np.int64)
    exp[0] = 1
    filled, step = 1, spec.generator
    while filled < order:
        count = min(filled, order - filled)
        exp[filled : filled + count] = _clmul_reduce_elems(
            exp[:count], step, spec.modulus, n
        )
        step = clmul_reduce(step, step, spec.modulus, n)
        filled += count
    log = np.full(spec.size, -1, dtype=np.int64)
    ks = np.arange(order, dtype=np.int64)
    log[exp] = ks
    if not np.array_equal(log[exp], ks):
        # the first power that repeats an earlier one is the order
        _, first = np.unique(exp, return_index=True)
        seen = np.zeros(order, dtype=bool)
        seen[first] = True
        k = int(np.argmin(seen))
        raise FieldError(
            f"generator {spec.generator:#x} has order {k} < {order}; "
            f"modulus {spec.modulus:#x} with this generator is not primitive"
        )
    if clmul_reduce(int(exp[-1]), spec.generator, spec.modulus, n) != 1:
        raise FieldError(f"modulus {spec.modulus:#x} is not irreducible")
    exp.flags.writeable = False
    log.flags.writeable = False
    return exp, log


def _linear_table(images, dtype):
    """Table of the F2-linear map sending basis vector j to images[j]: entry
    c is the XOR of images[j] over the set bits j of c, filled by doubling."""
    tbl = np.zeros(1 << len(images), dtype=dtype)
    for j, w in enumerate(images):
        half = 1 << j
        np.bitwise_xor(tbl[:half], w, out=tbl[half : 2 * half])
    return tbl


@lru_cache(maxsize=None)
def _abs_trace_table(spec):
    # Tr is F2-linear: its table is spanned by the traces of the basis alpha^j
    traces = [spec.subfield_abs_trace(1 << j, spec.n) for j in range(spec.n)]
    if any(t not in (0, 1) for t in traces):
        raise FieldError("trace form corrupt")  # unreachable on valid specs
    tbl = _linear_table(traces, np.uint8)
    tbl.flags.writeable = False
    return tbl


@lru_cache(maxsize=None)
def _walsh_permutation(spec):
    tr = _abs_trace_table(spec)
    base = []
    for i in range(spec.n):
        w = 0
        for j in range(spec.n):
            w |= int(tr[clmul_reduce(1 << i, 1 << j, spec.modulus, spec.n)]) << j
        base.append(w)
    # no spectrum check reads perm, so its symmetry, Tr(a x) = Tr(x a), is
    # checked here on the basis matrix M_ij = Tr(alpha^i alpha^j)
    if any((base[i] >> j ^ base[j] >> i) & 1 for i in range(spec.n) for j in range(i)):
        raise FieldError(f"trace form of modulus {spec.modulus:#x} is not symmetric")
    # int64, not int32: an int32 index makes every gather through perm
    # allocate numpy's index-cast buffer
    perm = _linear_table(base, np.int64)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=None)
def _subfield(spec, m):
    if m == spec.n:
        els = np.arange(spec.size, dtype=np.int64)
    else:
        els = np.concatenate([[0], _subgroup(spec, (1 << m) - 1)])
    els.flags.writeable = False
    return els


# -- F2 linear algebra on integer-coded vectors ------------------------------


def f2_rank(values):
    """Rank of the given elements as F2 vectors."""
    pivots = []
    for v in values:
        r = int(v)
        for p in pivots:
            r = min(r, r ^ p)
        if r:
            pivots.append(r)
            pivots.sort(reverse=True)
    return len(pivots)


def f2_is_independent(values):
    values = list(values)
    return f2_rank(values) == len(values)


def f2_span(values):
    """All XOR combinations of the given elements, sorted (includes 0);
    tabulated over an independent subset, so 2^rank distinct entries."""
    basis = []
    for v in values:
        if f2_is_independent([*basis, int(v)]):
            basis.append(int(v))
    return np.sort(_linear_table(basis, np.int64)).tolist()

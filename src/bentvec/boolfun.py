"""Boolean functions on GF(2^n) as dense truth tables.

A function is a uint8 vector of length 2^n; entry v is f applied to the
field element with integer value v.  ANF variable X_j corresponds to bit
j-1 of the table index.

The Walsh transform uses the field pairing throughout:

    W_f(a) = sum_x (-1)^(f(x) + Tr^n_1(a x))

Since Tr(a x) = parity(perm[a] & x) for a linear reindexing perm, W_f(a)
= S(perm[a]), where S is the plain fast Hadamard transform of (-1)^f.
Spectra are given, computed and checked only in that Hadamard index:
Parseval's relation, even parity, the class and the round trip fwht(S) =
2^n (-1)^f do not depend on the index.  Only field-indexed values, duals
and the points named in failure messages are reindexed, through
`_field_order`, when they are asked for: a `WalshSpectrum` keeps S alone,
a copy of the array it is given or `walsh()`'s own.

The Hadamard and Möbius butterflies do two levels per pass, in place on
the caller's array, which they return; a caller that needs its input
afterwards transforms a copy.  The Hadamard one adds a scratch buffer of
half the array, or above TILE_ENTRIES entries runs its passes a
cache-sized tile at a time in a buffer of 1.5 tiles.  A truth table's
ANF is computed bit-sliced, 64 points to a uint64 word (`_anf_words`),
and the degree is read from those words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError, NotBentError, PreconditionError, VerificationError
from .gf2n import FieldSpec, _walsh_permutation


# entries per operand of the buffers numpy's ufuncs use on strided quarters;
# at numpy's default of 8192 they alone add 3/8 of an int32 column at n = 16
PASS_BUFSIZE = 1024
# entries above which fwht works a tile at a time, and the most a tile holds;
# a tile of 2^17 int32 entries and its pass scratch take 768 KB, within a
# 2 MB L2 cache, and half as many tiles as at 2^16 cost less Python overhead
# (one n = 20 column: 14-15 ms, against 17-18 ms at 2^16 on a 2-vCPU Xeon)
TILE_ENTRIES = 1 << 17
# LOW[s]: the bit positions below 64 with bit s clear, for Möbius level s
# inside a word; this and WEIGHT are plain ints, so importing builds no array
LOW = (
    0x5555555555555555,
    0x3333333333333333,
    0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF,
    0x0000FFFF0000FFFF,
    0x00000000FFFFFFFF,
)
# WEIGHT[k]: the bit positions below 64 whose popcount is k
WEIGHT = (
    0x0000000000000001,
    0x0000000100010116,
    0x0001011601161668,
    0x0116166816686880,
    0x1668688068808000,
    0x6880800080000000,
    0x8000000000000000,
)


def _quarters(a, h):
    """The four interleaved runs of one two-level butterfly pass.

    Row r of axis 0 lies in quarter (r // h) % 4; the quarters are stacked
    on axis 0 and returned with the order to iterate them in.  When a run
    of h rows holds fewer than 8 entries, numpy would call its inner loop
    once per run, so the block axis is moved innermost and iterated in C
    order instead (3x faster for the h = 4 pass of one column).
    """
    q = a.reshape(-1, 4, h, *a.shape[1:]).swapaxes(0, 1)
    if 1 < h * (a.size // a.shape[0]) < 8:
        return np.moveaxis(q, 1, -1), "C"
    return q, "K"


def fwht(a):
    """Fast Walsh-Hadamard butterfly along axis 0, exact integers, in place.

    Each column of a (2^n, ...) int32 or int64 array is transformed
    independently in O(n 2^n), overwriting the array, which is returned.
    int32 is exact for n <= 24: every partial sum is bounded by 2^n.  Any
    other input is refused with TypeError before anything is written; a
    caller that needs its input afterwards transforms a copy.

    Arrays of at most TILE_ENTRIES entries go through `_passes` whole,
    with a scratch buffer of half the array.  Larger C-contiguous ones are
    cache-tiled as H_(2^n) = H_(2^hi) (x) H_(2^lo) with lo = n // 2:
    `_tiled` transforms the lo low index bits, then the hi high ones, a
    tile of T entries at a time in a scratch buffer of 1.5 T, where T is
    at most TILE_ENTRIES and a third of the array.  The scratch and ufunc
    buffers of PASS_BUFSIZE entries are all the memory it takes.
    """
    if not (isinstance(a, np.ndarray) and a.dtype in (np.int32, np.int64)):
        dtype = getattr(a, "dtype", type(a).__name__)
        raise TypeError(f"fwht transforms int32 or int64 arrays in place, not {dtype}")
    size = a.shape[0]
    lo = (size.bit_length() - 1) // 2
    tile = min(TILE_ENTRIES, a.size // 3)
    with np.errstate():  # scopes setbufsize to this call
        np.setbufsize(PASS_BUFSIZE)
        # a tile holds whole transforms of the high bits, which at n <= 24
        # only a TILE_ENTRIES below 2^12 can prevent; `_tiled` reshapes `a`
        # into views only in C order, `_passes` in any order
        if a.size <= TILE_ENTRIES or size >> lo > tile or not a.flags.c_contiguous:
            _passes(a, np.empty_like(a[: size // 2]))
        else:
            # a power of two, so that the tiles split the array evenly
            _tiled(a, lo, 1 << (tile.bit_length() - 1))
    return a


def _passes(a, tmp):
    """The butterfly along axis 0 of `a`, in place; tmp is a[: len(a) // 2]
    in shape.

    Each pass does two levels (radix 4): the quarters a, b, c, d of
    `_quarters` become (a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d) and
    (a-b)-(c-d), through tmp.  Odd n ends with one radix-2 level.
    """
    size = a.shape[0]
    h = 1
    while 4 * h <= size:
        (q0, q1, q2, q3), order = _quarters(a, h)
        s, d = tmp.reshape(2, -1, h, *a.shape[1:])
        if order == "C":
            s, d = np.moveaxis(s, 0, -1), np.moveaxis(d, 0, -1)
        np.add(q0, q1, out=s, order=order)
        np.subtract(q0, q1, out=d, order=order)
        np.add(q2, q3, out=q0, order=order)
        np.subtract(q2, q3, out=q1, order=order)
        np.subtract(s, q0, out=q2, order=order)
        np.add(s, q0, out=q0, order=order)
        np.subtract(d, q1, out=q3, order=order)
        np.add(d, q1, out=q1, order=order)
        h *= 4
    if h < size:
        low, high = a[:h], a[h:]
        np.copyto(tmp, low)
        low += high
        np.subtract(tmp, high, out=high)


def _tiled(a, lo, tile):
    """The butterfly of `fwht` on `a` in place, a cache-sized tile at a time.

    Viewed as (2^hi, 2^lo, cols), the low bits are transformed along axis
    1, then the high bits along axis 0 of the (2^hi, 2^lo cols) view.  A
    tile is up to `tile` entries of whole transforms: a transposed copy
    into a flat scratch buffer puts the transform axis outermost, so that
    `_passes` walks long contiguous runs, and a transposed copy puts it
    back.  The tile and its pass scratch take 1.5 tile entries.
    """
    size = a.shape[0]
    buf = np.empty(3 * tile // 2, dtype=a.dtype)
    for outer, length in ((size >> lo, 1 << lo), (1, size >> lo)):
        view = a.reshape(outer, length, -1)
        inner = view.shape[2]
        per = tile // length  # entries of the other two axes in one tile
        rc = min(inner, per)
        ra = per // rc
        for i in range(0, outer, ra):
            for j in range(0, inner, rc):
                src = view[i : i + ra, :, j : j + rc].transpose(1, 0, 2)
                k = src.size
                part = buf[:k].reshape(src.shape)
                np.copyto(part, src)
                scratch = buf[k : k + k // 2].reshape(length // 2, -1)
                _passes(part.reshape(length, -1), scratch)
                np.copyto(src, part)


def _where(names, j):
    return "" if names is None else f"component {names[j]}: "


def _field_order(spectra, field):
    """Hadamard-indexed arrays along axis 0 reindexed by field element."""
    return spectra[_walsh_permutation(field)]


def check_parseval_parity(values, field, names=None):
    """Parseval's relation and even parity for spectra along axis 0.

    Each column of `values` is one spectrum of a function on `field`, in
    its Hadamard index.  A failure raises VerificationError naming a field
    point and its value, prefixed by the column's entry of `names` when
    given.
    """
    n = field.n
    cols = values.reshape(values.shape[0], -1)
    # float64 cannot wrap: with nonnegative terms and monotone rounding the sum
    # is exact below 2^53 and, once there, never drops back to 2^(2n) <= 2^48
    sums = np.einsum("ij,ij->j", cols, cols, dtype=np.float64)
    bad = np.flatnonzero(sums != 1 << (2 * n))
    if bad.size:
        j = int(bad[0])
        col = _field_order(cols[:, j], field)
        a = int(np.argmax(np.abs(col)))
        exact = sum(int(w) ** 2 for w in col)
        raise VerificationError(
            f"{_where(names, j)}Parseval check failed: sum of W(a)^2 is "
            f"{exact}, expected 2^{2 * n}; largest |W(a)| is "
            f"W({a}) = {int(col[a])}"
        )
    # one reduction, where `cols & 1` would allocate a whole copy
    if np.bitwise_or.reduce(cols, axis=None) & 1:
        cols = _field_order(cols, field)
        a, j = (int(i) for i in np.argwhere(cols & 1)[0])
        raise VerificationError(
            f"{_where(names, j)}spectrum parity check failed: "
            f"W({a}) = {int(cols[a, j])} is odd"
        )


def check_round_trip(values, signs, names=None):
    """The inverse butterfly must give back the +-1 sign tables, per column.

    `values` are the int32 or int64 spectra of `signs` in the Hadamard
    index, so that fwht(values) = 2^n signs.  `signs` may be +-1 of any
    integer dtype, such as the int8 ones `walsh()` and `profile()` keep;
    the messages do not depend on it.  The inverse is compared unscaled,
    so an entry off by less than 2^n fails too.  It is taken of `values`
    in place, which it overwrites, with no memory beyond the butterfly's
    scratch: a caller that still needs the spectra passes a copy.
    """
    size = values.shape[0]
    off = fwht(values).reshape(size, -1)
    s = signs.reshape(size, -1)
    # a sign is +-1, so an entry is 2^n signs exactly where its product
    # with the sign is 2^n, which the check computes in place
    off *= s
    off -= size
    if np.count_nonzero(off):
        x, j = (int(i) for i in np.argwhere(off)[0])
        sign = int(s[x, j])
        n = size.bit_length() - 1
        got = (int(off[x, j]) + size) * sign
        shown = f"{got >> n}" if got % size == 0 else f"{got}/2^{n}"
        raise VerificationError(
            f"{_where(names, j)}Walsh round-trip failed at x = {x}: inverse "
            f"gives {shown}, table sign is {sign}"
        )


@dataclass(frozen=True)
class Classification:
    """Spectrum class: bent, semi-bent, plateaued(s), or mixed.

    Precedence: bent first (all |W| = 2^(n/2), n even), then a single
    amplitude 2^s (named semi-bent when s = n/2 + 1 with n even), else
    mixed carrying the exact absolute-value set.
    """

    kind: str  # "bent" | "semi-bent" | "plateaued" | "mixed"
    amplitude: int | None
    abs_values: tuple[int, ...]

    @property
    def plateaued_family(self):
        return self.kind != "mixed"

    def __str__(self):
        if self.kind == "bent":
            return f"Bent({self.amplitude})"
        if self.kind == "semi-bent":
            return f"SemiBent({self.amplitude})"
        if self.kind == "plateaued":
            return f"Plateaued({self.amplitude})"
        shown = ",".join(str(v) for v in self.abs_values[:8])
        if len(self.abs_values) > 8:
            shown += f",...({len(self.abs_values)} values)"
        return "Mixed{" + shown + "}"


def classify(values, n):
    """Classify a Walsh value vector per the precedence above.

    int32 values stay int32, as for checked spectra, whose |W| <= 2^n.
    """
    values = np.asarray(values)
    absv = np.abs(values if values.dtype == np.int32 else values.astype(np.int64))
    lo, hi = int(absv.min()), int(absv.max())
    # exact shortcut for the common one-level spectra
    if lo == hi:
        abs_set = (hi,)
    else:
        # absv is this call's own array, so it is sorted in place
        abs_set = tuple(int(v) for v in _distinct(absv))
    if n % 2 == 0 and abs_set == ((1 << (n // 2)),):
        return Classification("bent", 1 << (n // 2), abs_set)
    nonzero = [v for v in abs_set if v]
    if len(nonzero) == 1 and nonzero[0] & (nonzero[0] - 1) == 0:
        amp = nonzero[0]
        s = amp.bit_length() - 1
        kind = "semi-bent" if n % 2 == 0 and s == n // 2 + 1 else "plateaued"
        return Classification(kind, amp, abs_set)
    return Classification("mixed", None, abs_set)


class WalshSpectrum:
    """Full integer Walsh spectrum, plus class.

    Holds one array, S = fwht((-1)^f) in the Hadamard index, where W(a) =
    S(perm[a]).  The checks, the class and `abs_counts` read S; `values`
    and `[a]` reindex only what they return.  A given array is copied, so
    no caller can change S after its checks; `walsh()` hands over its own
    fresh S uncopied.
    """

    __slots__ = ("field", "classification", "_spectrum")

    def __init__(self, field, spectrum):
        spectrum = np.asarray(spectrum)
        # int32 holds any |W| <= 2^n <= 2^24; anything else is widened to
        # int64, never narrowed, so no value is truncated before the checks
        dtype = np.int32 if spectrum.dtype == np.int32 else np.int64
        self._own(field, spectrum.astype(dtype))

    def _own(self, field, spectrum):
        """Check and classify S, an array no one else refers to, and keep it."""
        if spectrum.shape != (field.size,):
            raise FieldError("spectrum length must be 2^n")
        check_parseval_parity(spectrum, field)
        spectrum.flags.writeable = False
        self.field = field
        self._spectrum = spectrum
        self.classification = classify(spectrum, field.n)

    @property
    def values(self):
        """W(a) for every field element a, as a new array."""
        return _field_order(self._spectrum, self.field)

    @property
    def is_bent(self):
        return self.classification.kind == "bent"

    def __getitem__(self, a):
        return int(self._spectrum[_walsh_permutation(self.field)[self.field.check(a)]])

    def abs_counts(self):
        """The distinct |W(a)|, ascending, and how many points take each.

        A bent spectrum's class holds its one exact level, which every
        point takes; any other spectrum's |W| is sorted in place, in its
        own copy, and counted between the boundaries of its levels.
        """
        levels = self.classification.abs_values
        if len(levels) == 1:
            return np.array(levels), np.array([self.field.size])
        absv = np.abs(self._spectrum)
        absv.sort()
        starts = np.flatnonzero(absv[1:] != absv[:-1]) + 1
        starts = np.concatenate(([0], starts))
        return absv[starts], np.diff(starts, append=absv.size)


class BooleanFunction:
    """Immutable n-variable Boolean function bound to a field model."""

    __slots__ = ("field", "table", "_walsh")

    def __init__(self, field: FieldSpec, table):
        table = np.asarray(table, dtype=np.uint8)
        if table.shape != (field.size,):
            raise FieldError(f"truth table must have length {field.size}")
        if np.any(table > 1):
            raise FieldError("truth table entries must be bits")
        table = table.copy()
        table.flags.writeable = False
        self.field = field
        self.table = table
        self._walsh = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, np.zeros(field.size, dtype=np.uint8))

    @classmethod
    def constant(cls, field, bit):
        return cls(field, np.full(field.size, bit & 1, dtype=np.uint8))

    @classmethod
    def from_univariate(cls, field, terms):
        """x -> Tr^n_1(sum of c_i x^(d_i)) from (coefficient, exponent) pairs."""
        return cls(field, field.abs_trace_table()[field.poly_elems(terms)])

    @classmethod
    def from_anf(cls, field, monomials):
        """Build from ANF monomial supports (sets of 1-based variable indices)."""
        coeffs = np.zeros(field.size, dtype=np.uint8)
        for mono in monomials:
            mask = 0
            for j in mono:
                if not 1 <= j <= field.n:
                    raise FieldError(f"variable X{j} outside X1..X{field.n}")
                mask |= 1 << (j - 1)
            coeffs[mask] ^= 1
        return cls(field, _anf_bits(coeffs))

    # -- structure ------------------------------------------------------------

    @property
    def n(self):
        return self.field.n

    def __eq__(self, other):
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.field, self.table.tobytes()))

    def __repr__(self):
        return f"BooleanFunction(n={self.n}, weight={self.weight()})"

    def weight(self):
        return int(self.table.sum())

    def is_balanced(self):
        return 2 * self.weight() == self.field.size

    # -- pointwise algebra ------------------------------------------------------

    def _same_field(self, other):
        if self.field != other.field:
            raise FieldError("operands live in different fields")

    def __xor__(self, other):
        self._same_field(other)
        return BooleanFunction(self.field, self.table ^ other.table)

    def __and__(self, other):
        self._same_field(other)
        return BooleanFunction(self.field, self.table & other.table)

    def complement(self):
        return BooleanFunction(self.field, self.table ^ 1)

    def shift(self, a):
        """x -> f(x + a) (field addition is XOR)."""
        idx = np.arange(self.field.size) ^ self.field.check(a)
        return BooleanFunction(self.field, self.table[idx])

    def scale_input(self, delta):
        """x -> f(delta x) for nonzero delta."""
        if self.field.check(delta) == 0:
            raise FieldError("input scaling needs a nonzero factor")
        idx = self.field.mul_elems(np.arange(self.field.size, dtype=np.int64), delta)
        return BooleanFunction(self.field, self.table[idx])

    def derivative(self, a):
        """D_a f(x) = f(x) + f(x + a)."""
        return self ^ self.shift(a)

    def second_derivative(self, a, b):
        """D_a D_b f: four-term sum over the coset of span{a, b}."""
        idx = np.arange(self.field.size)
        return BooleanFunction(self.field, _second_derivative(self.table, idx, a, b))

    # -- spectra ---------------------------------------------------------------

    def walsh(self):
        """Walsh spectrum over the field pairing, verified exactly.

        Parseval and the inverse-transform round trip are asserted inline
        for every spectrum this package ever computes, in the Hadamard
        index.  The butterfly and the values are int32, exact since
        |W(a)| <= 2^n <= 2^24; the signs (-1)^f are kept as int8, a byte
        a point.  The forward butterfly transforms their one int32 copy
        into the spectrum, and the round trip inverts a copy of that.
        """
        if self._walsh is None:
            # (-1)^f in one int8 array; the table's 0/1 bytes read as int8
            signs = self.table.view(np.int8) * -2
            signs += 1
            hadamard = fwht(signs.astype(np.int32))
            spectrum = WalshSpectrum.__new__(WalshSpectrum)
            spectrum._own(self.field, hadamard)
            check_round_trip(hadamard.copy(), signs)
            self._walsh = spectrum
        return self._walsh

    def classification(self):
        return self.walsh().classification

    def is_bent(self):
        return self.walsh().is_bent

    def dual(self):
        """The dual f* of a bent function: W_f(a) = 2^(n/2) (-1)^(f*(a))."""
        spectrum = self.walsh()
        if not spectrum.is_bent:
            a = _off_bent_point(spectrum)
            expected = "2^(n/2) with n even" if self.n % 2 else 1 << (self.n // 2)
            raise NotBentError(a, spectrum[a], expected)
        negative = _field_order(spectrum._spectrum < 0, self.field)
        return BooleanFunction(self.field, negative)

    # -- algebraic normal form ---------------------------------------------------

    def anf_mask(self):
        """Möbius transform: uint8 vector of ANF coefficients by monomial mask."""
        return _anf_bits(self.table)

    def anf_monomials(self):
        """ANF as a set of monomial supports (frozensets of 1-based indices)."""
        coeffs = self.anf_mask()
        out = set()
        for mask in np.nonzero(coeffs)[0]:
            mask = int(mask)
            out.add(frozenset(j + 1 for j in range(self.n) if (mask >> j) & 1))
        return frozenset(out)

    def degree(self):
        """Algebraic degree; 0 for the zero function by convention.

        Read from the packed ANF: bit b of word i is the coefficient of
        monomial 64 i + b, whose degree is popcount(i) + popcount(b).
        """
        words = _anf_words(self.table)
        index_weight = np.bitwise_count(np.arange(words.size, dtype=np.uint32))
        degree = 0
        for k, mask in enumerate(WEIGHT):
            hit = index_weight[(words & mask) != 0]
            if hit.size:
                degree = max(degree, k + int(hit.max()))
        return degree


def _distinct(a):
    """Sorted distinct entries of a 1-D array, which is sorted in place.

    np.unique's plain form imports numpy.ma on first use, which costs more
    than a whole small job; a sort and a neighbour comparison do not.
    """
    a.sort()
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _second_derivative(t, idx, a, b):
    """D_a D_b of truth table t along axis 0; idx = np.arange(len(t)), built
    once per caller.  Bitwise, so a matrix of bit-planes gives every
    plane's second derivative at once."""
    # take() gathers whole rows faster than fancy indexing does
    return t ^ t.take(idx ^ a, 0) ^ t.take(idx ^ b, 0) ^ t.take(idx ^ a ^ b, 0)


def _mobius(a):
    """Binary Möbius transform along axis 0 (self-inverse XOR butterfly).

    Unsigned integer input is transformed bitwise, so a word packing
    several truth tables yields their ANF coefficients packed the same way.
    The array is transformed in place and returned: a caller that needs
    its input afterwards passes a copy.  Each pass does two levels, as
    four XORs over the quarters of `_quarters`; odd n ends with one single
    level.
    """
    size = a.shape[0]
    h = 1
    with np.errstate():  # scopes setbufsize to this call
        np.setbufsize(PASS_BUFSIZE)
        while 4 * h <= size:
            (q0, q1, q2, q3), order = _quarters(a, h)
            np.bitwise_xor(q1, q0, out=q1, order=order)
            np.bitwise_xor(q3, q2, out=q3, order=order)
            np.bitwise_xor(q2, q0, out=q2, order=order)
            np.bitwise_xor(q3, q1, out=q3, order=order)
            h *= 4
    if h < size:
        a[h:] ^= a[:h]
    return a


def _anf_words(table):
    """Binary Möbius transform of a 0/1 table, bit-sliced 64 points a word.

    Bit b of little-endian uint64 word i holds point 64 i + b, on any host.
    `_mobius` runs the levels of the word index; level s < 6 inside a word
    moves the bits with bit s clear (LOW[s]) up by 2^s and XORs them in.
    For n < 6 the one word is zero-padded, and the padding stays zero: a
    moved bit b < 2^n lands on b | 2^s < 2^n.
    """
    size = table.shape[0]
    words = np.zeros(max(1, size >> 6), dtype="<u8")
    words.view(np.uint8)[: -(-size // 8)] = np.packbits(table, bitorder="little")
    _mobius(words)
    moved = np.empty_like(words)
    for s in range(min(size.bit_length() - 1, 6)):
        np.bitwise_and(words, LOW[s], out=moved)
        moved <<= 1 << s
        words ^= moved
    return words


def _anf_bits(table):
    """`_anf_words` of a 0/1 table, one uint8 coefficient per monomial mask."""
    words = _anf_words(table)
    return np.unpackbits(words.view(np.uint8), count=table.shape[0], bitorder="little")


def sigma_of(f1, f2, f3):
    """Majority-of-three combiner f1 f2 + f1 f3 + f2 f3."""
    return (f1 & f2) ^ (f1 & f3) ^ (f2 & f3)


def check_lemma_walsh_identity(f1, f2, f3):
    """W_sigma(a) = (W_f1 + W_f2 + W_f3 - W_f4)(a) / 2 with f4 = f1+f2+f3.

    Returns True; raises VerificationError otherwise (theorem check).
    """
    f4 = f1 ^ f2 ^ f3
    # the identity holds at every point, so in the Hadamard index too
    functions = (sigma_of(f1, f2, f3), f1, f2, f3, f4)
    s, s1, s2, s3, s4 = (g.walsh()._spectrum for g in functions)
    if not np.array_equal(s * 2, s1 + s2 + s3 - s4):
        raise VerificationError("four-function Walsh identity failed")
    return True


def _off_bent_point(spectrum):
    """The witness that a spectrum is not bent: the least field point a
    with |W(a)| != 2^(n/2), or 0 for odd n, where no spectrum is bent."""
    n = spectrum.field.n
    if n % 2:
        return 0
    off = np.abs(spectrum._spectrum) != 1 << (n // 2)
    return int(np.flatnonzero(_field_order(off, spectrum.field))[0])


def bent_or_raise(f, name="input"):
    """Require bentness, re-raising with a labelled witness."""
    spectrum = f.walsh()
    if not spectrum.is_bent:
        a = _off_bent_point(spectrum)
        raise PreconditionError(
            f"{name} is not bent: class {spectrum.classification}, "
            f"W({a}) = {spectrum[a]}"
        )
    return f

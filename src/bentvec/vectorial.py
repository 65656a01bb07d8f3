"""(n,m)-functions with values in a subfield, plus appended Boolean coordinates.

A VectorialFunction has one output per field element: a value in the
subfield F_{2^m} of GF(2^n) and, for augmented functions, t extra output
bits, stored together as one (m+t)-bit coordinate word.  Components are
selected by pairs (lambda, v) with lambda in F_{2^m}, v an integer mask
of the extra coordinates, (lambda, v) != (0,0):

    component(lambda, v)(x) = Tr^m_1(lambda F(x)) + <v, extra bits(x)>

Enumeration order is lambda ascending by value, then v ascending, so that
witnesses and reports are deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import NamedTuple

import numpy as np

from .boolfun import (
    BooleanFunction,
    _distinct,
    _mobius,
    _off_bent_point,
    _spectrum_blocks,
    sign_table,
)
from .errors import FieldError, VerificationError
from .gf2n import FieldSpec, _linear_table

# points of the Möbius-transformed word that `_monomial_keys` reads at a
# time, so that at n <= 16 the whole word is one chunk
KEY_POINTS = 1 << 16


class BentnessCheck(NamedTuple):
    ok: bool
    selector: tuple[int, int] | None  # failing (lambda, v)
    point: int | None                 # spectrum index witnessing failure
    value: int | None                 # offending Walsh value


class PlateauedCheck(NamedTuple):
    ok: bool
    amplitudes: dict  # (lambda, v) -> amplitude for plateaued, None for mixed
    witness: tuple[int, int] | None


def _check_dimensions(n, m, t):
    """Refuse output dimensions no (n, m [+t])-function has: m must divide
    n and m + t fit the uint32 word.  A FieldError about t has extra set."""
    if m < 1 or n % m != 0:
        raise FieldError(f"output dimension {m} must divide n={n}")
    if t < 0:
        raise FieldError("appended coordinate count must be nonnegative", extra=True)
    if m + t > 32:
        raise FieldError(f"at most 32 output bits, got m + t = {m + t}", extra=True)


def max_bent_components_bound(n, m):
    """Largest possible number of bent components of an (n,m)-function, m >= n/2.

    2^m - 2^(m - n/2): Pott, Pasalic, Muratović-Ribić and Bajrić, "On the
    maximum number of bent components of vectorial functions", IEEE Trans.
    Inf. Theory 64(1), 2018.
    """
    if n % 2:
        raise FieldError("bound needs even n")
    if m < n // 2:
        raise FieldError(f"bound formula needs m >= n/2, got m={m}, n={n}")
    return (1 << m) - (1 << (m - n // 2))


def _bent_components_bound_or_none(n, m):
    """max_bent_components_bound, or None outside its formula's domain."""
    return None if n % 2 or m < n // 2 else max_bent_components_bound(n, m)


class VectorialFunction:
    """Immutable (n, m [+t])-function; `word` is its only per-point table.

    A function made by add_boolean or augment keeps its parent, whose rows
    profile() can copy, until its profile is computed.
    """

    __slots__ = ("field", "m", "t", "word", "_parent", "_profile")

    def __init__(self, field: FieldSpec, m, values, extra=None, t=0):
        _check_dimensions(field.n, m, t)
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (field.size,):
            raise FieldError(f"output table must have length {field.size}")
        # read as unsigned, a negative value is at least 2^63
        if np.any(values.view(np.uint64) >= field.size):
            raise FieldError(
                f"outputs must be elements of GF(2^{field.n})",
                point=_first(values.view(np.uint64) >= field.size),
            )
        # coordinates by element; 2^m marks elements outside F_{2^m}
        combos, _ = _basis_tables(field, m)
        lookup = np.full(field.size, 1 << m, dtype=np.uint32)
        lookup[combos] = np.arange(1 << m, dtype=np.uint32)
        word = lookup[values]
        if np.any(word >> m):
            raise FieldError(
                f"outputs must lie in the subfield F_(2^{m})", point=_first(word >> m)
            )
        if extra is not None:
            extra = np.asarray(extra, dtype=np.int64)
            message = "extra bits out of range for t appended coordinates"
            if extra.shape != (field.size,):
                raise FieldError(message)
            # read as unsigned, a negative entry is at least 2^63
            if np.any(extra.view(np.uint64) >= 1 << t):
                raise FieldError(
                    message, point=_first(extra.view(np.uint64) >= 1 << t), extra=True
                )
            # in place and in uint32, so no int64 temporary holds the shift
            high = extra.astype(np.uint32)
            high <<= np.uint32(m)
            word |= high
        word.flags.writeable = False
        self.field = field
        self.m = m
        self.t = t
        self.word = word
        self._parent = None
        self._profile = None

    @property
    def n(self):
        return self.field.n

    @property
    def values(self):
        """int64 subfield value F(x) per point, derived from the word."""
        combos, _ = _basis_tables(self.field, self.m)
        return combos[self.word & np.uint32((1 << self.m) - 1)]

    @property
    def extra(self):
        """int64 extra bits per point, derived from the word."""
        return (self.word >> np.uint32(self.m)).astype(np.int64)

    @property
    def out_bits(self):
        """Total output dimension m + t."""
        return self.m + self.t

    def __eq__(self, other):
        if not isinstance(other, VectorialFunction):
            return NotImplemented
        return (self.field, self.m, self.t) == (other.field, other.m, other.t) and (
            np.array_equal(self.word, other.word)
        )

    def __hash__(self):
        return hash((self.field, self.m, self.t, self.word.tobytes()))

    def __repr__(self):
        return f"VectorialFunction(n={self.n}, m={self.m}, t={self.t})"

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_univariate(cls, field, m, terms):
        """Outputs sum of c_i x^(d_i); must land in the subfield F_{2^m}."""
        return cls(field, m, field.poly_elems(terms))

    def add_boolean(self, g: BooleanFunction):
        """H(x) = F(x) + g(x), the bit embedded as the subfield element 1."""
        if g.field != self.field:
            raise FieldError("operands live in different fields")
        H = VectorialFunction(
            self.field, self.m, self.values ^ g.table, self.extra, self.t
        )
        H._parent = self
        return H

    def augment(self, fs):
        """Append Boolean coordinate functions: (F, f_1, ..., f_t')."""
        extra = self.extra
        t = self.t
        for f in fs:
            if f.field != self.field:
                raise FieldError("appended coordinate lives in a different field")
            extra |= f.table.astype(np.int64) << t
            t += 1
        H = VectorialFunction(self.field, self.m, self.values, extra, t)
        H._parent = self
        return H

    # -- components ---------------------------------------------------------------

    def selectors(self):
        """All component selectors (lambda, v) in canonical order."""
        sub = self.field.subfield(self.m)
        for lam in sub:
            for v in range(1 << self.t):
                if lam == 0 and v == 0:
                    continue
                yield int(lam), v

    def _selector_masks(self):
        """uint32 mask of every selector, in canonical order."""
        combos, masks = _basis_tables(self.field, self.m)
        lam_masks = masks[np.argsort(combos)]  # lambda ascending
        vs = np.arange(1 << self.t, dtype=np.uint32) << np.uint32(self.m)
        return (lam_masks[:, None] | vs[None, :]).ravel()[1:]

    def component(self, lam, v=0):
        """Truth table of Tr^m_1(lambda F(x)) + <v, extra bits>."""
        return BooleanFunction(self.field, np.bitwise_count(self.word & self._mask(lam, v)) & 1)

    def _mask(self, lam, v=0):
        """uint32 selector mask of the component (lambda, v); refuses a
        selector that names no component."""
        lam = self.field.check(lam)
        combos, masks = _basis_tables(self.field, self.m)
        rank = np.flatnonzero(combos == lam)
        if not rank.size:
            raise FieldError(f"selector {lam:#x} is not in F_(2^{self.m})")
        if not 0 <= v < (1 << self.t):
            raise FieldError(f"extra-bit selector {v:#x} out of range")
        if lam == 0 and v == 0:
            raise FieldError("zero selector does not name a component")
        return masks[rank[0]] | np.uint32(v << self.m)

    def components(self):
        for lam, v in self.selectors():
            yield (lam, v), self.component(lam, v)

    def dual(self, lam):
        """Dual of the bent component (lambda, 0), in field order: the lone
        component's dual.  Raises NotBentError when that component is not
        bent.  The checks read the duals `_read_duals` hands out instead.
        """
        return self.component(lam).dual()

    def profile(self):
        """Cached ((lambda, v), Classification, degree) per selector, in order.

        A row is copied from the parent recorded by add_boolean or augment
        when the parent's profile is computed and an exact test shows the
        two component tables are equal.  Every other component's class
        comes from the coordinate word through `boolfun._spectrum_blocks`,
        checked exactly (Parseval, parity, round trip): component (lambda,
        v) is parity(value & mask) of the word's value, so a block's signs
        are gathered from a small table with a row per value the word can
        take.  When m + t > n, the word is indexed by its distinct values,
        so that no table has more rows than points.
        Degrees use the linearity of the ANF: one Möbius transform of
        the word packs the coordinate ANFs, and a component's ANF is
        parity(anf_word & mask).  No truth table, sign or spectrum is kept.
        """
        if self._profile is None:
            self._read_duals(None)
        return self._profile

    def _read_duals(self, read):
        """Compute the profile; given `read`, from this function's own word
        alone, handing read(lambdas, bits) the duals of its bent (lambda, 0)
        components as the blocks that transform them read them.

        bits[c] is the dual of lambdas[c], ceil(2^n / 8) bytes in the
        Hadamard index: the dual at field element x is bit 7 - h % 8 of
        byte h // 8, h = perm[x], as np.packbits packs it, in a read-only
        array of its own.  A block's duals are handed over once its checks
        have passed, and each dual once.  No row is copied from a parent,
        and a profile computed before is computed again, so that every
        dual comes from this function's transform.
        """
        sels = list(self.selectors())
        masks = self._selector_masks()
        rows = [None] * len(sels) if read else self._inherited_rows(sels, masks)
        todo = [i for i, row in enumerate(rows) if row is None]
        if todo:
            mono_deg, mono_word = _monomial_keys(self.word)
            names = [sels[i] for i in todo]
            masks = masks[todo]
            keep = ["bent" if read is not None and v == 0 else None for _, v in names]
            word, values = self._sign_index()
            blocks = _spectrum_blocks(self.field, word, lambda c: sign_table(values, masks[c]), keep, names)
            for columns, classes, kept in blocks:
                odd = sign_table(mono_word, masks[columns]) < 0  # parity 1
                degrees = np.max(odd * mono_deg[:, None], axis=0, initial=0)
                for j, cls, degree in zip(columns, classes, degrees):
                    rows[todo[j]] = (names[j], cls, int(degree))
                if kept:
                    read([names[j][0] for j in kept], list(kept.values()))
        self._profile = tuple(rows)
        self._parent = None

    def _inherited_rows(self, sels, masks):
        """The parent's row wherever (lambda, v) has equal tables, else None.

        Both functions share the selector masks of the parent's t, and
        their components (lambda, v) agree exactly when
        parity((word ^ parent word) & mask) is 0 at every x.  That parity
        depends on x only through the difference, so it is tested on the
        difference's distinct values.
        """
        rows = [None] * len(sels)
        parent = self._parent
        if parent is None or parent._profile is None:
            return rows
        parent_rows = {row[0]: row for row in parent._profile}
        shared = [i for i, sel in enumerate(sels) if sel in parent_rows]
        low = np.uint32((1 << (self.m + parent.t)) - 1)
        diff = _distinct((self.word ^ parent.word) & low)
        for i in compress(shared, (sign_table(diff, masks[shared]) > 0).all(axis=0)):
            rows[i] = parent_rows[sels[i]]
        return rows

    def _sign_index(self):
        """The word as an index into the rows of a sign table, and their values.

        A sign table has a row per value the word can take, 2^(m+t) of
        them; when m + t > n, that is more than there are points, so the
        word is indexed by its sorted distinct values instead.
        """
        if self.out_bits <= self.n:
            return self.word, np.arange(1 << self.out_bits, dtype=np.uint32)
        values = _distinct(self.word.copy())
        return np.searchsorted(values, self.word).astype(np.uint32), values

    # -- predicates ----------------------------------------------------------------

    def is_vectorial_bent(self):
        """All components bent?  Witness identifies the first failure."""
        if self.n % 2:
            raise FieldError("vectorial bentness needs even n")
        for (lam, v), cls, _ in self.profile():
            if cls.kind != "bent":
                spectrum = self.component(lam, v).walsh()
                a = _off_bent_point(spectrum)
                return BentnessCheck(False, (lam, v), a, spectrum[a])
        if self.out_bits > self.n // 2:
            # vectorial bent (n,m)-functions exist only for m <= n/2
            raise VerificationError(
                f"certified a vectorial bent ({self.n},{self.out_bits})-function; "
                "this contradicts the m <= n/2 bound"
            )
        return BentnessCheck(True, None, None, None)

    def is_vectorial_plateaued(self):
        """Per-component amplitudes; ok iff every component is plateaued.

        Amplitudes may differ between components (the literal reading of
        the definition); the multiset is reported, not collapsed.
        """
        rows = self.profile()
        witness = next((sel for sel, cls, _ in rows if not cls.plateaued_family), None)
        amplitudes = {sel: cls.amplitude for sel, cls, _ in rows}
        return PlateauedCheck(witness is None, amplitudes, witness)

    def bent_component_count(self):
        if self.n % 2:
            raise FieldError("bent-component counting needs even n")
        return sum(1 for _, cls, _ in self.profile() if cls.kind == "bent")

    # -- degree ----------------------------------------------------------------------

    def coordinate_functions(self):
        """Coordinates w.r.t. the least basis of F_{2^m}, then the extra bits."""
        return [self._coordinate(j) for j in range(self.out_bits)]

    def _coordinate(self, j):
        """Coordinate j of `coordinate_functions`, on a table of its own,
        read from the byte of each little-endian word that holds bit j, so
        that no uint32 temporary is made."""
        table = self.word.astype("<u4", copy=False).view(np.uint8)[j // 8 :: 4] >> np.uint8(j % 8)
        table &= 1
        return BooleanFunction._adopt(self.field, table)

    def degree(self):
        """Algebraic degree: max over components, cross-checked on coordinates.

        A mismatch names the first selector and the first coordinate (its
        index in `coordinate_functions`) that reach each maximum.  The
        coordinates' tables are made one at a time, each dropped once its
        degree is read.
        """
        # max() keeps the first of equal rows or coordinates, the witness
        sel, _, comp_deg = max(self.profile(), key=lambda row: row[2])
        degrees = [self._coordinate(j).degree() for j in range(self.out_bits)]
        coord_deg = max(degrees)
        if comp_deg != coord_deg:
            raise VerificationError(
                f"component degree {comp_deg} (first reached by component {sel}) != coordinate "
                f"degree {coord_deg} (first reached by coordinate {degrees.index(coord_deg)})"
            )
        return comp_deg


def _monomial_keys(word):
    """Degree and packed coefficients of every distinct monomial of a word.

    One Möbius transform of the coordinate word packs the ANFs of all its
    coordinates; a component's degree is the largest degree among the
    monomials whose coefficients have odd parity with its mask.  Distinct
    (degree, coefficients) pairs suffice, at most (n + 1) 2^(m+t).  They
    are taken KEY_POINTS points at a time, each chunk's distinct keys
    merged into those before it, so that no int64 index or uint64 key of
    every nonzero entry is made: a random (20, 4+2) function's profile()
    traced 24.9 MB with the whole word at once, and 7.6 MB so.
    """
    anf = _mobius(word.copy())
    keys = None
    for i in range(0, len(anf), KEY_POINTS):
        monomials = np.flatnonzero(anf[i : i + KEY_POINTS])
        monomials += i
        part = np.bitwise_count(monomials).astype(np.uint64) << np.uint64(32) | anf[monomials]
        keys = _distinct(part if keys is None else np.concatenate((keys, part)))
    return (keys >> np.uint64(32)).astype(np.int64), keys.astype(np.uint32)


def _first(marks):
    """Least index of a nonzero entry."""
    return int(np.flatnonzero(marks)[0])


@lru_cache(maxsize=None)
def _basis_tables(field, m):
    """Subfield elements by coordinate vector, and their selector masks.

    combos[c] is the element of F_{2^m} with coordinates c in the least
    basis b; bit j of masks[c] is Tr^m_1(combos[c] b_j).  Both are F2-linear
    in c, so they are filled by doubling from the m basis elements.
    """
    basis = field.subfield_basis(m)
    rows = []
    for b in basis:
        traces = [field.subfield_abs_trace(field.mul(b, bj), m) for bj in basis]
        if any(tr not in (0, 1) for tr in traces):
            raise FieldError("subfield trace left the prime field")
        rows.append(sum(tr << j for j, tr in enumerate(traces)))
    combos = _linear_table(basis, np.int64)
    masks = _linear_table(rows, np.uint32)
    combos.flags.writeable = False
    masks.flags.writeable = False
    return combos, masks

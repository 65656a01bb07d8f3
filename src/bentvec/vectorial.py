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
    TILE_ENTRIES,
    BooleanFunction,
    _distinct,
    _field_order,
    _mobius,
    _off_bent_point,
    check_parseval_parity,
    check_round_trip,
    classify,
    fwht,
)
from .errors import FieldError, VerificationError
from .gf2n import FieldSpec, _linear_table

# profile() transforms min(BLOCK_COLUMNS, BLOCK_POINTS >> n) components at
# a time while two columns fit one fwht tile, and one at a time above: 16
# columns at n <= 15, 8 at n = 16, 1 at n >= 17.  Wide blocks give the low
# butterfly passes long runs; at n >= 17, two-column tiled blocks measured
# 1.4-1.7x slower per column than one.  A block takes 5 bytes per entry,
# int32 spectra and int8 signs, in two buffers that every block reuses:
# at most 2.5 MB for n <= 16, and 5 MB at n = 20.
BLOCK_POINTS = 1 << 19
BLOCK_COLUMNS = 16


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
    if n % 2 or m < n // 2:
        return None
    return max_bent_components_bound(n, m)


class VectorialFunction:
    """Immutable (n, m [+t])-function; `word` is its only per-point table.

    A function made by add_boolean or augment keeps its parent until its
    profile is computed, so that profile() can copy the parent's rows.
    """

    __slots__ = ("field", "m", "t", "word", "_parent", "_profile", "_dual_bits")

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
        self._dual_bits = None  # lambda -> packed dual, filled by profile()

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
        return (
            self.field == other.field
            and self.m == other.m
            and self.t == other.t
            and np.array_equal(self.word, other.word)
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
        lam = self.field.check(lam)
        combos, masks = _basis_tables(self.field, self.m)
        rank = np.flatnonzero(combos == lam)
        if not rank.size:
            raise FieldError(f"selector {lam:#x} is not in F_(2^{self.m})")
        if not 0 <= v < (1 << self.t):
            raise FieldError(f"extra-bit selector {v:#x} out of range")
        if lam == 0 and v == 0:
            raise FieldError("zero selector does not name a component")
        mask = masks[rank[0]] | np.uint32(v << self.m)
        table = np.bitwise_count(self.word & mask) & 1
        return BooleanFunction(self.field, table)

    def components(self):
        for lam, v in self.selectors():
            yield (lam, v), self.component(lam, v)

    def dual(self, lam):
        """Dual of the bent component (lambda, 0), unpacked from profile().

        Raises NotBentError, as BooleanFunction.dual does, when that
        component is not bent.
        """
        return BooleanFunction(self.field, self.dual_planes([lam])[:, 0])

    def dual_planes(self, lams):
        """(2^n, ceil(k/8)) uint8 bit-planes of the k duals of `lams`.

        The dual of lams[c] is bit c % 8 of column c // 8, the layout
        propp.satisfies_p_planes reads.  profile() keeps each dual packed
        in the Hadamard index; the planes are reindexed by field element.
        """
        self.profile()
        size = self.field.size
        planes = np.zeros((size, -(-len(lams) // 8)), dtype=np.uint8)
        for c, lam in enumerate(lams):
            bits = self._dual_bits.get(int(lam))
            if bits is None:
                # not a bent (lambda, 0) component, or not a selector: the
                # lone function's path raises the same error
                self.component(lam).dual()
                raise VerificationError(f"profile kept no dual for bent {lam:#x}")
            planes[:, c // 8] |= np.unpackbits(bits, count=size) << (c % 8)
        return _field_order(planes, self.field)

    def profile(self):
        """Cached ((lambda, v), Classification, degree) per selector, in order.

        A row is copied, with its packed dual, from the parent recorded by
        add_boolean or augment when the parent's profile is computed and an
        exact test shows the two component tables are equal.  Every other
        component comes from the coordinate word: each block of selector
        masks becomes an int8 sign matrix with one column per component,
        transformed at once along axis 0 and checked column by column
        (Parseval, parity, round trip), all in the Hadamard index.  The
        dual of each bent (lambda, 0) column is kept packed in that index,
        one bit per point, and reindexed when asked for.  Every block runs
        in place in one int32 and one uint8 buffer, allocated once per call
        for the widest block: the masked word, the signs, both butterflies
        and the checks, with the round trip last, once the spectra are
        read.  Degrees use the linearity of the ANF: one Möbius transform
        of the word packs the coordinate ANFs, and a component's ANF is
        parity(anf_word & mask).  No truth table or spectrum is kept.
        """
        if self._profile is None:
            sels = list(self.selectors())
            masks = self._selector_masks()
            rows, duals = self._inherited_rows(sels, masks)
            todo = [i for i, row in enumerate(rows) if row is None]
            if todo:
                self._transform_rows(sels, masks, todo, rows, duals)
            self._profile = tuple(rows)
            self._dual_bits = duals
            self._parent = None
        return self._profile

    def _inherited_rows(self, sels, masks):
        """The parent's row and packed dual wherever (lambda, v) has equal tables.

        Both functions share the selector masks of the parent's t, and
        their components (lambda, v) agree exactly when
        parity((word ^ parent word) & mask) is 0 at every x.  That parity
        depends on x only through the difference, so it is tested on the
        difference's distinct values.
        """
        rows = [None] * len(sels)
        duals = {}
        parent = self._parent
        if parent is None or parent._profile is None:
            return rows, duals
        parent_rows = {row[0]: row for row in parent._profile}
        shared = [i for i, sel in enumerate(sels) if sel in parent_rows]
        low = np.uint32((1 << (self.m + parent.t)) - 1)
        diff = _distinct((self.word ^ parent.word) & low)
        odd = np.bitwise_count(diff[:, None] & masks[shared][None, :]) & 1
        for i in compress(shared, ~odd.any(axis=0)):
            lam, v = sels[i]
            rows[i] = parent_rows[lam, v]
            if v == 0 and lam in parent._dual_bits:
                duals[lam] = parent._dual_bits[lam]
        return rows, duals

    def _transform_rows(self, sels, masks, todo, rows, duals):
        """Fill rows[i] for i in `todo` from blocked, checked transforms."""
        n = self.n
        size = self.field.size
        mono_deg, mono_word = _monomial_keys(self.word)
        cols = min(BLOCK_COLUMNS, BLOCK_POINTS >> n) if 2 * size <= TILE_ENTRIES else 1
        width = min(cols, len(todo))
        spectra = np.empty(size * width, dtype=np.int32)
        parities = np.empty(size * width, dtype=np.uint8)
        word = self.word[:, None]
        # one buffer holds the packed duals: many small arrays fragmented
        # the heap enough to raise verify's peak RSS
        slot = {i: r for r, i in enumerate(i for i in todo if sels[i][1] == 0)}
        store = np.empty((len(slot), -(-size // 8)), dtype=np.uint8)
        for start in range(0, len(todo), cols):
            index = todo[start : start + cols]
            names = [sels[i] for i in index]
            block = masks[index]
            # contiguous prefixes, so that a last, narrower block is one too
            values = spectra[: size * len(index)].reshape(size, len(index))
            signs = parities[: values.size].reshape(values.shape)
            # (-1)^component as int8, from the masked word in the spectra's
            # buffer; the signs are kept for the round trip
            np.bitwise_and(word, block, out=values.view(np.uint32))
            np.bitwise_count(values.view(np.uint32), out=signs)
            signs &= 1
            signs = signs.view(np.int8)
            signs *= -2
            signs += 1
            np.copyto(values, signs)
            # W(a) = values[perm[a]]: only witnesses and duals need field points
            fwht(values)
            check_parseval_parity(values, self.field, names)
            odd = np.bitwise_count(mono_word[:, None] & block[None, :]) & 1
            degrees = np.max(odd * mono_deg[:, None], axis=0, initial=0)
            for j, (i, sel) in enumerate(zip(index, names)):
                cls = classify(values[:, j], n)
                rows[i] = (sel, cls, int(degrees[j]))
                if sel[1] == 0 and cls.kind == "bent":
                    store[slot[i]] = np.packbits(values[:, j] < 0)
                    duals[sel[0]] = store[slot[i]]
            # the inverse overwrites the spectra, so it runs last
            check_round_trip(values, signs, names)

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
        amplitudes = {}
        ok = True
        witness = None
        for sel, cls, _ in self.profile():
            amplitudes[sel] = cls.amplitude
            if not cls.plateaued_family and ok:
                ok = False
                witness = sel
        return PlateauedCheck(ok, amplitudes, witness)

    def bent_component_count(self):
        if self.n % 2:
            raise FieldError("bent-component counting needs even n")
        return sum(1 for _, cls, _ in self.profile() if cls.kind == "bent")

    # -- degree ----------------------------------------------------------------------

    def coordinate_functions(self):
        """Coordinates w.r.t. the least basis of F_{2^m}, then the extra bits."""
        return [
            BooleanFunction(self.field, ((self.word >> j) & 1).astype(np.uint8))
            for j in range(self.out_bits)
        ]

    def degree(self):
        """Algebraic degree: max over components, cross-checked on coordinates."""
        comp_deg = max(deg for _, _, deg in self.profile())
        coord_deg = max(f.degree() for f in self.coordinate_functions())
        if comp_deg != coord_deg:
            raise VerificationError(
                f"component degree {comp_deg} != coordinate degree {coord_deg}"
            )
        return comp_deg


def _monomial_keys(word):
    """Degree and packed coefficients of every distinct monomial of a word.

    One Möbius transform of the coordinate word packs the ANFs of all its
    coordinates; a component's degree is the largest degree among the
    monomials whose coefficients have odd parity with its mask.  Distinct
    (degree, coefficients) pairs suffice, at most (n + 1) 2^(m+t).
    """
    anf = _mobius(word.copy())
    monomials = np.flatnonzero(anf)
    keys = _distinct(
        np.bitwise_count(monomials).astype(np.uint64) << np.uint64(32)
        | anf[monomials]
    )
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

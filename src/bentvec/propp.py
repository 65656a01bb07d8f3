"""Property (P_tau): vanishing second-order derivatives over a defining set.

g satisfies (P_tau) with defining set {u_1,...,u_tau} when
D_{u_i} D_{u_j} g = 0 for every pair i < j.  tau = 1 (or 0) is vacuously
true.  The module also checks the two structural facts the constructions
rely on: closure of the vanishing condition over the F2-span of the
defining set, and the equivalence with the shift decomposition
g(x + sum w_i u_i) = g(x) + sum w_i D_{u_i} g(x).

`satisfies_p` tests given sets on packed truth tables; `find_defining_sets`
searches for them, reading each candidate's vanishing partners from the
autocorrelation of its first derivative, one `fwht` pair per candidate.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .boolfun import LOW, BooleanFunction, fwht
from .errors import PreconditionError, VerificationError
from .redpoly import DefiningSet


class PropertyCheck(NamedTuple):
    holds: bool
    pair: tuple[int, int] | None  # failing (i, j), 1-based
    witness: int | None           # x with D_{u_i} D_{u_j} g(x) = 1


class ShiftCheck(NamedTuple):
    holds: bool
    weights: tuple[int, ...] | None  # failing w vector
    witness: int | None              # failing x


# satisfies_p_packed tests P_TAU_BYTES bytes of packed functions at a
# time; a chunk holds its functions, one first and one second derivative
# and the temporary of a shift, 512 KB in all, beside profile()'s buffers
# when the constructions check G's duals as it reads them
P_TAU_BYTES = 1 << 17


def satisfies_p(g: BooleanFunction, defining: DefiningSet) -> PropertyCheck:
    """Check D_{u_i} D_{u_j} g = 0 for all pairs of the defining set."""
    _same_field(g, defining)
    return satisfies_p_packed([np.packbits(g.table)], defining)[0]


def satisfies_p_packed(bits, defining: DefiningSet, order=None):
    """satisfies_p for many functions at once, one PropertyCheck each.

    bits[c] is function c packed as np.packbits packs a truth table, point
    y at bit 7 - y % 8 of byte y // 8, where y = order[x] for the field
    element x, or x itself when `order` is None.  order must be F2-linear,
    as the Walsh permutation is: then g(x) = bits(order[x]) has
    D_u D_w g = 0 exactly when D_{order[u]} D_{order[w]} vanishes on the
    bits, so the pairs are tested on the packed bits themselves, with the
    defining set mapped through order, P_TAU_BYTES of functions at a time.
    Each function's witness is its first failing pair in `combinations`
    order, then the least x, as if it were checked alone in field order:
    only that pair's derivative of that function is reindexed.
    """
    us = [int(u) if order is None else int(order[u]) for u in defining.elements]
    size = defining.field.size
    checks = [PropertyCheck(True, None, None)] * len(bits)
    if len(us) < 2 or not checks:
        return checks
    rows = max(1, P_TAU_BYTES // len(bits[0]))
    for start in range(0, len(bits), rows):
        block = np.stack(bits[start : start + rows])
        pending = np.ones(len(block), dtype=bool)
        for i, j in combinations(range(len(us)), 2):
            if j == i + 1:  # D_{u_i} serves every pair (i, j)
                first = _shifted(block, us[i])
                first ^= block
            second = _shifted(first, us[j])
            second ^= first
            new = pending & second.any(axis=1)
            for c in np.flatnonzero(new):
                marks = np.unpackbits(second[c], count=size)
                x = int(np.argmax(marks if order is None else marks[order]))
                checks[start + c] = PropertyCheck(False, (i + 1, j + 1), x)
            pending &= ~new
            if not pending.any():
                break
    return checks


def _shifted(rows, a):
    """A copy of packed rows with the bit of every point y moved to y ^ a.

    The rows are read as words of w = 64 bits when whole ones fit, else of
    w = 8.  Point y lies in word y // w, at the bit p whose index bits are
    those of y mod w, some of them complemented (which ones depends on
    the byte order), so y ^ 2^k for 2^k < w lies at p ^ 2^k.  The words
    are gathered at index ^ (a // w), and their bits then swapped in
    blocks of 2^k, once per set bit k of a mod w.
    """
    unit = np.uint64 if rows.shape[1] % 8 == 0 else np.uint8
    words = rows.view(unit)
    w = 8 * words.itemsize
    out = words.take(np.arange(words.shape[1]) ^ (a // w), axis=1) if a >= w else words.copy()
    for k in range(w.bit_length() - 1):
        if a >> k & 1:
            # the low 2^k bits of every block of 2^(k+1), cut to a word
            mask = unit(LOW[k] & (1 << w) - 1)
            shift = unit(1 << k)
            low = out & mask
            out >>= shift
            out &= mask
            low <<= shift
            out |= low
    return out.view(np.uint8)


def span_closure(g: BooleanFunction, defining: DefiningSet) -> bool:
    """D_a D_b g = 0 for all a, b in the span of a satisfying defining set.

    This is a theorem check: given the precondition it must return True.
    """
    _require_p(g, defining)
    # D_0 and D_a D_a vanish and D_a D_b = D_b D_a, so the pairs of the
    # span are every (a, b)
    return satisfies_p(g, DefiningSet(g.field, tuple(defining.span()))).holds


def shift_decomposition(g: BooleanFunction, defining: DefiningSet) -> ShiftCheck:
    """Does g(x + sum w_i u_i) = g(x) + sum w_i D_{u_i} g(x) for all w, x?

    Equivalent to satisfies_p by the decomposition lemma; both sides are
    computed independently so the equivalence itself is testable.
    """
    _same_field(g, defining)
    us = defining.elements
    tau = len(us)
    derivs = [g.derivative(u).table for u in us]
    t = g.table
    idx = np.arange(g.field.size)
    for w in range(1 << tau):
        shift_amount = 0
        rhs = t.copy()
        for i in range(tau):
            if (w >> i) & 1:
                shift_amount ^= us[i]
                rhs ^= derivs[i]
        lhs = t[idx ^ shift_amount]
        bad = np.nonzero(lhs ^ rhs)[0]
        if bad.size:
            weights = tuple((w >> i) & 1 for i in range(tau))
            return ShiftCheck(False, weights, int(bad[0]))
    return ShiftCheck(True, None, None)


def product_shift(g: BooleanFunction, defining: DefiningSet, b) -> BooleanFunction:
    """h(x) = g(x) g(x + b) for b in the span; h keeps property (P_tau).

    The preservation is asserted before returning (theorem check).
    """
    _require_p(g, defining)
    if b not in set(defining.span()):
        raise PreconditionError(f"shift {b:#x} is outside the defining-set span")
    h = g & g.shift(b)
    after = satisfies_p(h, defining)
    if not after.holds:
        raise VerificationError(
            f"product shift broke (P_tau) on pair {after.pair} at x={after.witness}"
        )
    return h


def _require_p(g, defining):
    """The precondition of span_closure and product_shift: g has (P_tau)."""
    check = satisfies_p(g, defining)
    if not check.holds:
        raise PreconditionError(
            f"property (P_tau) fails on pair {check.pair} at x={check.witness}"
        )


def find_defining_sets(
    g: BooleanFunction,
    tau,
    candidates=None,
    limit=None,
    node_budget=None,
):
    """All tau-subsets of the candidate pool satisfying (P_tau), lex order.

    Complete clique enumeration over the graph whose edges are the
    vanishing pairs; exponential in the worst case, bounded by
    node_budget (visited extension nodes) when given.  limit truncates
    the output to the first N sets in lexicographic value order.

    d is an edge of c when D_c D_d g = 0, that is when d is a 0-linear
    structure of h = D_c g: its autocorrelation sum_x (-1)^(h(x) + h(x + d))
    is 2^n.  With W = fwht((-1)^h), fwht(W^2)[d] is 2^n times that, so one
    fwht pair gives c's edges to every d, as fwht(W^2) == 2^(2n).  Both
    transforms run in int64 and are exact for n <= 24: the partial sums of
    the first lie within 2^n, and those of the second within
    sum W^2 = 2^(2n) <= 2^48 (Parseval).

    The pool is one sorted int64 array.  A node is expanded when it is
    first extended: that holds one int64 spectrum of 2^n entries while it
    runs and keeps one bool per field element, cached for the search.  Its
    children are the later candidates among its edges, so both bounds stop
    the work as well as the output.
    """
    if tau < 2:
        raise PreconditionError("search needs tau >= 2")
    field = g.field
    if candidates is None:
        pool = np.arange(1, field.size, dtype=np.int64)
    else:
        pool = np.array(sorted({field.check(c) for c in candidates}), dtype=np.int64)
    results = []
    nodes = 0

    @cache
    def edges(c):
        """edges(c)[d]: D_c D_d g = 0, for every field element d."""
        spectrum = fwht(1 - 2 * g.derivative(c).table.astype(np.int64))
        spectrum *= spectrum
        return fwht(spectrum) == 1 << 2 * field.n

    def extend(clique, allowed):
        nonlocal nodes
        for i in range(len(allowed)):
            if limit is not None and len(results) >= limit:
                return
            c = int(allowed[i])
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise PreconditionError(
                    f"defining-set search exceeded node budget {node_budget}"
                )
            if len(clique) + 1 == tau:
                results.append(DefiningSet(field, (*clique, c)))
            else:
                rest = allowed[i + 1 :]
                extend(clique + [c], rest[edges(c)[rest]])

    extend([], pool)
    return results


def _same_field(g, defining):
    if g.field != defining.field:
        raise PreconditionError("function and defining set live in different fields")

"""Property (P_tau): vanishing second-order derivatives over a defining set.

g satisfies (P_tau) with defining set {u_1,...,u_tau} when
D_{u_i} D_{u_j} g = 0 for every pair i < j.  tau = 1 (or 0) is vacuously
true.  The module also checks the two structural facts the constructions
rely on: closure of the vanishing condition over the F2-span of the
defining set, and the equivalence with the shift decomposition
g(x + sum w_i u_i) = g(x) + sum w_i D_{u_i} g(x).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .boolfun import BooleanFunction, _second_derivative
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


def satisfies_p(g: BooleanFunction, defining: DefiningSet) -> PropertyCheck:
    """Check D_{u_i} D_{u_j} g = 0 for all pairs of the defining set."""
    _same_field(g, defining)
    return satisfies_p_planes(g.table[:, None], defining, 1)[0]


def satisfies_p_planes(planes, defining: DefiningSet, count):
    """satisfies_p for `count` functions at once, one PropertyCheck each.

    `planes` is a (2^n, w) uint8 bit-plane matrix: function c is bit c % 8
    of column c // 8.  One second derivative per pair tests every plane.
    Each function's witness is its first failing pair in `combinations`
    order, then the least x, as if it were checked alone.
    """
    us = defining.elements
    idx = np.arange(planes.shape[0])
    checks = [PropertyCheck(True, None, None)] * count
    pending = np.ones(count, dtype=bool)
    for i, j in combinations(range(len(us)), 2):
        dd = _second_derivative(planes, idx, us[i], us[j])
        if not dd.any():
            continue
        hit = np.bitwise_or.reduce(dd, axis=0)
        new = np.unpackbits(hit, count=count, bitorder="little").astype(bool)
        new &= pending
        for c in np.flatnonzero(new):
            x = np.flatnonzero((dd[:, c >> 3] >> (c & 7)) & 1)[0]
            checks[c] = PropertyCheck(False, (i + 1, j + 1), int(x))
        pending &= ~new
        if not pending.any():
            break
    return checks


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
            f"product shift broke (P_tau) on pair {after.pair}"
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
    the output to the first N sets in lexicographic value order.  A
    node's later neighbours are found on its first extension, so both
    bounds stop the work as well as the output.
    """
    if tau < 2:
        raise PreconditionError("search needs tau >= 2")
    field = g.field
    if candidates is None:
        pool = list(range(1, field.size))
    else:
        pool = sorted({field.check(c) for c in candidates})
    idx = np.arange(field.size)
    results = []
    nodes = 0

    @cache
    def later(c):
        """Pool elements d > c with D_c D_d g = 0."""
        return {
            d
            for d in pool[bisect_right(pool, c) :]
            if not _second_derivative(g.table, idx, c, d).any()
        }

    def extend(clique, allowed):
        nonlocal nodes
        if limit is not None and len(results) >= limit:
            return
        for c in allowed:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise PreconditionError(
                    f"defining-set search exceeded node budget {node_budget}"
                )
            if len(clique) + 1 == tau:
                results.append(DefiningSet(field, (*clique, c)))
            else:
                extend(clique + [c], [d for d in allowed if d in later(c)])
            if limit is not None and len(results) >= limit:
                return

    extend([], pool)
    return results


def _same_field(g, defining):
    if g.field != defining.field:
        raise PreconditionError("function and defining set live in different fields")

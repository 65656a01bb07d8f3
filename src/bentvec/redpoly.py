"""Multilinear polynomials F(X_1,...,X_tau) over F2 and trace composition.

A polynomial is a canonical set of monomials, each monomial a subset of
{1,...,tau} (the empty subset is the constant term).  Textual syntax used
by the CLI: monomials like "X1*X3" joined by "+", the constant "1", and
"0" for the empty polynomial.  Repeated monomials cancel (coefficients
live in F2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .boolfun import BooleanFunction
from .errors import FieldError, ParseError
from .gf2n import FieldSpec, f2_is_independent, f2_span


@dataclass(frozen=True)
class ReducedPolynomial:
    tau: int
    monomials: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.tau < 0:
            raise FieldError("variable count must be nonnegative")
        for mono in self.monomials:
            if not all(1 <= j <= self.tau for j in mono):
                raise FieldError(
                    f"monomial {sorted(mono)} uses variables outside X1..X{self.tau}"
                )

    @classmethod
    def make(cls, tau, monomials):
        return cls(tau, frozenset(frozenset(m) for m in monomials))

    @classmethod
    def zero(cls, tau):
        return cls(tau, frozenset())

    @classmethod
    def one(cls, tau):
        return cls.make(tau, [()])

    def degree(self):
        return max((len(m) for m in self.monomials), default=0)

    def eval_bits(self, bits):
        """Evaluate at a 0/1 vector of length tau."""
        if len(bits) != self.tau:
            raise FieldError(f"expected {self.tau} bits, got {len(bits)}")
        out = 0
        for mono in self.monomials:
            out ^= all(bits[j - 1] for j in mono)
        return int(out)

    def __xor__(self, other):
        if self.tau != other.tau:
            raise FieldError("variable counts differ")
        return ReducedPolynomial(self.tau, self.monomials ^ other.monomials)

    # -- text form -------------------------------------------------------------

    def to_text(self):
        if not self.monomials:
            return "0"
        keys = sorted((len(m), tuple(sorted(m))) for m in self.monomials)
        parts = []
        for _, m in keys:
            parts.append("1" if not m else "*".join(f"X{j}" for j in m))
        return "+".join(parts)

    @staticmethod
    def parse(text, tau=None):
        """Parse the textual syntax; errors carry 1-based column positions."""
        monomials, seen = parse_monomials(text, tau)
        if tau is None:
            tau = seen
        return ReducedPolynomial(tau, monomials)

    @staticmethod
    def random(tau, max_degree, seed):
        """Seed-deterministic polynomial with degree <= max_degree."""
        if not 0 <= max_degree <= tau:
            raise FieldError("need 0 <= max_degree <= tau")
        rng = random.Random(seed)
        monos = set()
        for size in range(max_degree + 1):
            for combo in combinations(range(1, tau + 1), size):
                if rng.getrandbits(1):
                    monos.add(frozenset(combo))
        return ReducedPolynomial(tau, frozenset(monos))

    # -- composition -------------------------------------------------------------

    def compose_traces(self, defining):
        """The Boolean function x -> F(Tr(u_1 x), ..., Tr(u_tau x))."""
        if defining.tau != self.tau:
            raise FieldError(
                f"polynomial has {self.tau} variables, defining set {defining.tau}"
            )
        field = defining.field
        tables = [field.linear_form_table(u) for u in defining.elements]
        return self._combine(field, tables)

    def apply_tables(self, field, funcs):
        """Pointwise F(g_1(x), ..., g_tau(x)) for given Boolean functions."""
        if len(funcs) != self.tau:
            raise FieldError(f"expected {self.tau} functions, got {len(funcs)}")
        return self._combine(field, [f.table for f in funcs])

    def _combine(self, field, tables):
        out = np.zeros(field.size, dtype=np.uint8)
        for mono in self.monomials:
            term = np.ones(field.size, dtype=np.uint8)
            for j in mono:
                term &= tables[j - 1]
            out ^= term
        return BooleanFunction(field, out)


def parse_monomials(text, tau=None):
    """Tokenize 'X1*X3+X2+1' into (monomial set, highest variable index).

    '0' denotes the empty polynomial and must stand alone.  '1' is the
    constant term.  Duplicate monomials cancel (F2 coefficients).
    """
    def err(msg, at):
        raise ParseError(msg, line=1, column=at + 1)

    if not text.strip():
        err("empty polynomial (use '0')", len(text))
    if text.strip() == "0":
        return frozenset(), 0

    monomials = set()
    seen = 0
    pos = 0
    size = len(text)
    while True:
        term, pos = _parse_term(text, pos, tau, err)
        seen = max(seen, max(term, default=0))
        monomials ^= {frozenset(term)}
        while pos < size and text[pos].isspace():
            pos += 1
        if pos == size:
            return frozenset(monomials), seen
        if text[pos] != "+":
            err(f"expected '+' but found {text[pos]!r}", pos)
        pos += 1


def _parse_term(text, pos, tau, err):
    vars_ = set()
    size = len(text)
    expect_factor = True
    while True:
        while pos < size and text[pos].isspace():
            pos += 1
        if expect_factor:
            if pos == size:
                err("dangling operator", size - 1 if size else 0)
            ch = text[pos]
            if ch == "1":
                pos += 1
            elif ch == "0":
                err("'0' is only valid as the whole polynomial", pos)
            elif ch in "xX":
                start = pos + 1
                end = start
                # ASCII digits only: str.isdigit also takes "\u0661" and "\u00b2"
                while end < size and "0" <= text[end] <= "9":
                    end += 1
                if end == start:
                    err("variable needs an index, like X2", pos)
                idx = int(text[start:end])
                if idx < 1:
                    err("variable indices start at X1", pos)
                if tau is not None and idx > tau:
                    err(f"X{idx} exceeds declared variable count {tau}", pos)
                vars_.add(idx)
                pos = end
            else:
                err(f"unexpected character {ch!r}", pos)
            expect_factor = False
        elif pos < size and text[pos] == "*":
            pos += 1
            expect_factor = True
        else:
            return vars_, pos


@dataclass(frozen=True)
class DefiningSet:
    """Ordered distinct field elements u_1,...,u_tau for property checks."""

    field: FieldSpec
    elements: tuple[int, ...]

    def __post_init__(self):
        elements = tuple(self.field.check(u) for u in self.elements)
        object.__setattr__(self, "elements", elements)
        if len(set(self.elements)) != len(self.elements):
            raise FieldError("defining-set elements must be pairwise distinct")

    @property
    def tau(self):
        return len(self.elements)

    def is_linearly_independent(self):
        return f2_is_independent(self.elements)

    def span(self):
        """Sorted F2-span of the elements (includes 0)."""
        return f2_span(self.elements)

    def canonical(self):
        return DefiningSet(self.field, tuple(sorted(self.elements)))

    def __iter__(self):
        return iter(self.elements)

"""Secondary bent constructions and the three vectorial families.

Every operation here follows the same discipline: build the object, form
the theorem's prediction (class, closed-form dual, degree, component
count), then verify the prediction by exhaustive Walsh-spectrum
computation.  Verified values are never copied from predictions; a
disagreement marks the result as not ok (and would falsify the underlying
identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .boolfun import BooleanFunction, Classification, bent_or_raise, sigma_of
from .errors import PreconditionError, VerificationError
from .gf2n import prime_factors, f2_is_independent
from .propp import _same_field, satisfies_p, satisfies_p_planes
from .redpoly import DefiningSet
from .vectorial import (
    BentnessCheck,
    PlateauedCheck,
    VectorialFunction,
    _basis_tables,
    _bent_components_bound_or_none,
)


# ---------------------------------------------------------------------------
# Boolean-level constructions (majority combiner and trace products)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrichotomyResult:
    """Outcome of a bent/semi-bent/mixed trichotomy construction."""

    function: BooleanFunction
    predicted_kind: str  # "bent" | "semi-bent" | "mixed"
    verified: Classification
    dual_predicted: BooleanFunction | None
    dual_verified: BooleanFunction | None
    ok: bool


@dataclass(frozen=True)
class BentConstruction:
    """A construction whose preconditions force bentness, with dual formula."""

    function: BooleanFunction
    dual_predicted: BooleanFunction
    dual_verified: BooleanFunction
    ok: bool


def _mixed_set(n):
    r = 1 << (n // 2)
    return (0, r, 2 * r)


def _trichotomy(function, predicted_kind, dual_predicted):
    """Verify a predicted trichotomy outcome against the actual spectrum."""
    verified = function.classification()
    dual_verified = None
    ok = verified.kind == predicted_kind
    if predicted_kind == "bent" and ok:
        dual_verified = function.dual()
        ok = dual_predicted is not None and dual_verified == dual_predicted
    elif predicted_kind == "mixed" and ok:
        ok = verified.abs_values == _mixed_set(function.n)
    return TrichotomyResult(
        function, predicted_kind, verified, dual_predicted, dual_verified, ok
    )


def sigma_combine(f1, f2, f3):
    """sigma = f1 f2 + f1 f3 + f2 f3 for pairwise distinct bent f1, f2, f3.

    The class is predicted from the dual sum s = f1* + f2* + f3* + f4*
    (f4 = f1 + f2 + f3, required bent): s = 0 gives bent with dual
    f1* f2* + f1* f3* + f2* f3*, s = 1 gives semi-bent, anything else a
    mixed spectrum with absolute values {0, 2^(n/2), 2^(n/2+1)}.
    """
    if f1 == f2 or f1 == f3 or f2 == f3:
        raise PreconditionError("f1, f2, f3 must be pairwise distinct")
    d1 = bent_or_raise(f1, "f1").dual()
    d2 = bent_or_raise(f2, "f2").dual()
    d3 = bent_or_raise(f3, "f3").dual()
    f4 = f1 ^ f2 ^ f3
    d4 = bent_or_raise(f4, "f4 = f1+f2+f3").dual()
    s = d1 ^ d2 ^ d3 ^ d4
    sigma = sigma_of(f1, f2, f3)
    if not s.table.any():
        return _trichotomy(sigma, "bent", sigma_of(d1, d2, d3))
    if s.table.all():
        return _trichotomy(sigma, "semi-bent", None)
    return _trichotomy(sigma, "mixed", None)


def bent_plus_quadratic_trace(f, a, b):
    """h = f + Tr(ax) Tr(bx); class decided by the constancy of D_a D_b f*."""
    if a == b:
        raise PreconditionError("need a != b")
    bent_or_raise(f, "f")
    fld = f.field
    la = BooleanFunction(fld, fld.linear_form_table(a))
    lb = BooleanFunction(fld, fld.linear_form_table(b))
    h = f ^ (la & lb)
    dstar = f.dual()
    dd = dstar.second_derivative(a, b)
    if not dd.table.any():
        dual_pred = sigma_of(dstar, dstar.shift(a), dstar.shift(b))
        return _trichotomy(h, "bent", dual_pred)
    if dd.table.all():
        return _trichotomy(h, "semi-bent", None)
    return _trichotomy(h, "mixed", None)


def bent_plus_cubic_trace(f, a, b, c):
    """sigma = f + Tr(ax) Tr(bx) Tr(cx) under vanishing pair derivatives of f*.

    Bent with dual f* + (D_a f*)(D_b f*)(D_c f*); both facts verified.
    """
    if len({a, b, c}) != 3:
        raise PreconditionError("a, b, c must be pairwise distinct")
    bent_or_raise(f, "f")
    dstar = f.dual()
    fld = f.field
    check = satisfies_p(dstar, DefiningSet(fld, (a, b, c)))
    if not check.holds:
        i, j = check.pair
        raise PreconditionError(
            "second derivative of the dual does not vanish on pair "
            f"({'abc'[i - 1]},{'abc'[j - 1]})"
        )
    forms = [BooleanFunction(fld, fld.linear_form_table(u)) for u in (a, b, c)]
    sigma = f ^ (forms[0] & forms[1] & forms[2])
    gs = [dstar.derivative(u) for u in (a, b, c)]
    dual_pred = dstar ^ (gs[0] & gs[1] & gs[2])
    dual_ver = sigma.dual()  # raises if sigma is not bent
    return BentConstruction(sigma, dual_pred, dual_ver, dual_pred == dual_ver)


def tang_bent(g, defining, poly):
    """f = g + F(Tr(u_1 x), ..., Tr(u_tau x)) for bent g with g* having (P_tau).

    Dual formula: f* = g* + F(D_{u_1} g*, ..., D_{u_tau} g*), verified
    truth-table-exactly against the spectrum dual.
    """
    bent_or_raise(g, "g")
    _require_tau(poly, defining, g.n)
    gstar = g.dual()
    check = satisfies_p(gstar, defining)
    if not check.holds:
        raise PreconditionError(
            f"dual of g violates (P_tau) on pair {check.pair} at x={check.witness}"
        )
    f = g ^ poly.compose_traces(defining)
    derivs = [gstar.derivative(u) for u in defining.elements]
    dual_pred = gstar ^ poly.apply_tables(g.field, derivs)
    dual_ver = f.dual()
    return BentConstruction(f, dual_pred, dual_ver, dual_pred == dual_ver)


def _require_tau(poly, defining, n):
    """The tau conditions both bent constructions share: F has tau
    variables, and tau <= n/2."""
    if defining.tau != poly.tau:
        raise PreconditionError(
            f"polynomial has {poly.tau} variables, defining set {defining.tau}"
        )
    if defining.tau > n // 2:
        raise PreconditionError(f"tau = {defining.tau} exceeds n/2 = {n // 2}")


def remark_multi_trace(f, a, b, c, poly3):
    """Named three-trace entry point: tang_bent with defining set {a, b, c}."""
    if poly3.tau != 3:
        raise PreconditionError("the three-trace form needs a polynomial on X1..X3")
    return tang_bent(f, DefiningSet(f.field, (a, b, c)), poly3)


# ---------------------------------------------------------------------------
# Vectorial lifts
# ---------------------------------------------------------------------------


class VecBentLiftResult(NamedTuple):
    H: VectorialFunction
    g: BooleanFunction
    check: BentnessCheck
    lambdas: tuple[int, ...]  # the Tr = 1 selectors whose duals were checked
    ok: bool


class VecPlateauedLiftResult(NamedTuple):
    H_hat: VectorialFunction
    tail: tuple[BooleanFunction, ...]
    hat_check: PlateauedCheck
    tail_plateaued: bool
    tail_amplitudes: dict
    iff_ok: bool
    p_tau_all: bool
    bent_count: int
    bent_count_predicted: int | None
    bent_count_bound: int | None
    ok: bool


def _trace_one_lambdas(field, m):
    """Subfield selectors with Tr^m_1 = 1, ascending: Tr^m_1(lambda * 1)
    is parity(mask(lambda) & coordinates of 1)."""
    combos, masks = _basis_tables(field, m)
    one = np.uint32(np.flatnonzero(combos == 1)[0])
    odd = np.bitwise_count(masks & one) & 1
    return tuple(np.sort(combos[odd == 1]).tolist())


def _require_p_tau_for(G, defining, lambdas, others=()):
    """Gate (P_tau) on the `lambdas` duals and return the checks of the
    `others` duals.  All of them are tested in one packed pass."""
    _same_field(G, defining)
    lams = (*lambdas, *others)
    checks = satisfies_p_planes(G.dual_planes(lams), defining, len(lams))
    for lam, check in zip(lambdas, checks):
        if not check.holds:
            raise PreconditionError(
                f"dual of component {lam:#x} violates (P_tau) on pair "
                f"{check.pair} at x={check.witness}"
            )
    return checks[len(lambdas) :]


def _p_tau_all_lambdas(G, defining, lambdas):
    """Gate (P_tau) on the `lambdas` duals, then report whether every
    nonzero component dual of the vectorial bent G satisfies it.  Each
    dual is checked once."""
    others = [lam for lam, _ in G.selectors() if lam not in lambdas]
    checks = _require_p_tau_for(G, defining, lambdas, others)
    return all(check.holds for check in checks)


def _require_pure_vectorial_bent(G):
    """The gate both lifts put on G: pure, and vectorial bent."""
    if G.t:
        raise PreconditionError("lift expects a pure (n,m)-function")
    pre = G.is_vectorial_bent()
    if not pre.ok:
        raise PreconditionError(
            f"G is not vectorial bent: component {pre.selector} has "
            f"W({pre.point}) = {pre.value}"
        )


def vec_bent_lift(G, defining, poly):
    """H = G + F(traces): vectorial bent when the Tr = 1 component duals
    satisfy (P_tau) with the given defining set.

    Components with Tr^m_1(lambda) = 0 are untouched by the lift; the
    returned check still verifies every component of H.
    """
    _require_pure_vectorial_bent(G)
    _require_tau(poly, defining, G.n)
    lambdas = _trace_one_lambdas(G.field, G.m)
    _require_p_tau_for(G, defining, lambdas)
    g = poly.compose_traces(defining)
    H = G.add_boolean(g)
    check = H.is_vectorial_bent()
    return VecBentLiftResult(H, g, check, lambdas, check.ok)


def _tail_profile(H_hat):
    """(plateaued, amplitude per v) of the tail (f_1, ..., f_t): G is pure,
    so its component v is H_hat's (0, v), one of the first 2^t - 1 rows."""
    rows = H_hat.profile()[: (1 << H_hat.t) - 1]
    amplitudes = {v: cls.amplitude for (_, v), cls, _ in rows}
    return all(cls.plateaued_family for _, cls, _ in rows), amplitudes


def vec_plateaued_lift(G, defining, polys):
    """H_hat = (G, f_1, ..., f_t) with f_i = F_i(traces).

    Records both sides of the equivalence "H_hat vectorial plateaued iff
    the (n,t) tail is vectorial plateaued", the tail read off H_hat.  The
    bent-component count is predicted as 2^(t+m) - 2^t whenever every
    nonzero component dual of G satisfies (P_tau), the regime where the
    count provably reaches its maximum.
    """
    polys = tuple(polys)
    if not polys:
        raise PreconditionError("plateaued lift needs at least one tail polynomial")
    _require_pure_vectorial_bent(G)
    for poly in polys:
        if poly.tau != defining.tau:
            raise PreconditionError(
                f"tail polynomial has {poly.tau} variables, defining set "
                f"{defining.tau}"
            )
    p_tau_all = _p_tau_all_lambdas(G, defining, _trace_one_lambdas(G.field, G.m))
    fs = tuple(poly.compose_traces(defining) for poly in polys)
    H_hat = G.augment(fs)
    hat_check = H_hat.is_vectorial_plateaued()
    tail_ok, tail_amps = _tail_profile(H_hat)
    iff_ok = hat_check.ok == tail_ok
    t = len(fs)
    bent_count = H_hat.bent_component_count()
    predicted = ((1 << (t + G.m)) - (1 << t)) if p_tau_all else None
    bound = _bent_components_bound_or_none(G.n, G.m + t)
    ok = iff_ok and (predicted is None or bent_count == predicted)
    return VecPlateauedLiftResult(
        H_hat,
        fs,
        hat_check,
        tail_ok,
        tail_amps,
        iff_ok,
        p_tau_all,
        bent_count,
        predicted,
        bound,
        ok,
    )


# ---------------------------------------------------------------------------
# Construction reports
# ---------------------------------------------------------------------------


@dataclass
class ConstructionReport:
    """Claim/check ledger for one family construction.

    Verified entries come from exhaustive spectrum computation only.
    JSON form encodes every integer as a decimal string.
    """

    family: str
    field: str
    n: int
    m: int
    tau: int
    t: int
    r: int | None = None
    u_values: tuple = ()
    poly: str = "0"
    tail_polys: tuple = ()
    seed: int | None = None
    predicted_class: str = ""
    verified_class: str = ""
    class_match: bool = False
    dual_formula: str | None = None
    dual_match: bool | None = None
    dual_failures: tuple = ()
    self_dual_selector: int | None = None
    self_dual_ok: bool | None = None
    degree_predicted: int | None = None
    degree_measured: int | None = None
    degree_match: bool | None = None
    bent_components_predicted: int | None = None
    bent_components_measured: int | None = None
    bent_components_bound: int | None = None
    bent_components_match: bool | None = None
    p_tau_all_lambdas: bool | None = None
    tail_plateaued: bool | None = None
    hat_plateaued: bool | None = None
    plateaued_iff_ok: bool | None = None
    component_classes: tuple = ()
    ok: bool = False

    def to_json_dict(self):
        out = {}
        for key, value in self.__dict__.items():
            out[key] = _encode_json(value)
        return out


def _encode_json(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (tuple, list)):
        return [_encode_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode_json(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value)!r}")


@dataclass
class FamilyResult:
    G: VectorialFunction
    H: VectorialFunction
    H_hat: VectorialFunction | None
    report: ConstructionReport
    g: BooleanFunction | None = None


def vectorial_class_string(F):
    """Human-readable exhaustively verified class of a vectorial function."""
    classes = [cls for _, cls, _ in F.profile()]
    # all bent implies n even; is_vectorial_bent adds the m <= n/2 guard
    if all(cls.kind == "bent" for cls in classes) and F.is_vectorial_bent().ok:
        return f"vectorial bent ({F.n},{F.out_bits})"
    if all(cls.plateaued_family for cls in classes):
        return f"vectorial plateaued ({F.n},{F.out_bits})"
    return f"not vectorial plateaued ({F.n},{F.out_bits})"


# ---------------------------------------------------------------------------
# The three families
# ---------------------------------------------------------------------------


def _circle_scaled_basis(field, k):
    """rho_i v: rho the least basis of F_{2^k}, v the least element of the
    unit circle of F_{2^(2k)} besides 1."""
    v = min(x for x in field.unit_circle(2 * k).tolist() if x != 1)
    return [field.mul(r, v) for r in field.subfield_basis(k)]


def kasami_auto_u(field):
    """u_i = rho_i v: rho a least basis of F_{2^k}, v in U minus 1, k = n/2."""
    return _circle_scaled_basis(field, field.n // 2)


def niho_auto_u(field):
    """Least-value polynomial basis of the subfield F_{2^k}."""
    return field.subfield_basis(field.n // 2)


def gold_auto_u(field):
    """u_i = v_i sigma: v a least basis of F_{2^k}, sigma in U(2k) minus 1."""
    return _circle_scaled_basis(field, field.n // 4)


def _check_conjugate_condition(field, u_values, k):
    """u_i u_j^(2^k) must land in F*_{2^k} for every pair i < j; the u_i
    themselves are checked by `_require_in_subfield`."""
    for i in range(len(u_values)):
        for j in range(i + 1, len(u_values)):
            w = field.mul(u_values[i], field.pow(u_values[j], 1 << k))
            if w == 0 or field.pow(w, 1 << k) != w:
                raise PreconditionError(
                    f"u condition fails on pair ({i + 1},{j + 1}): "
                    f"u_i u_j^(2^{k}) = {w:#x} is not in F*_(2^{k})"
                )


def _require_in_subfield(field, u_values, k):
    """Every u_i must be a nonzero element of F_{2^k}: u^(2^k) = u."""
    for i, u in enumerate(u_values):
        if u == 0 or field.pow(u, 1 << k) != u:
            raise PreconditionError(f"u_{i + 1} = {u:#x} is not in F*_(2^{k})")


def _lift_degree(poly, u_values):
    """deg F when it is at least 2 and F's u_i are independent, else None."""
    d = poly.degree()
    return d if d >= 2 and f2_is_independent(u_values[: poly.tau]) else None


def _component_dual_check(G, closed_form):
    """Compare closed-form duals with spectrum duals for every selector."""
    failures = []
    classes = []
    for (lam, _), cls, _ in G.profile():
        verified = G.dual(lam)
        predicted = closed_form(lam)
        match = verified == predicted
        classes.append((lam, str(cls), match))
        if not match:
            failures.append(lam)
    return tuple(failures), tuple(classes)


def _run_family(
    family,
    field,
    G,
    u_values,
    poly,
    tail_polys,
    closed_form,
    dual_formula,
    degree_predicted,
    seed=None,
    r=None,
    self_dual_selector=None,
):
    """Shared verification pipeline for the three families."""
    tau = poly.tau
    if tau > len(u_values):
        raise PreconditionError(
            f"polynomial needs {tau} defining elements, only {len(u_values)} given"
        )
    defining = DefiningSet(field, tuple(u_values[:tau]))
    report = ConstructionReport(
        family=family,
        field=field.serialize(),
        n=field.n,
        m=G.m,
        tau=tau,
        t=len(tail_polys),
        r=r,
        u_values=tuple(u_values),
        poly=poly.to_text(),
        tail_polys=tuple(p.to_text() for p in tail_polys),
        seed=seed,
    )

    dual_failures, component_classes = _component_dual_check(G, closed_form)
    report.dual_formula = dual_formula
    report.dual_match = not dual_failures
    report.dual_failures = dual_failures
    report.component_classes = component_classes

    if self_dual_selector is not None:
        report.self_dual_selector = self_dual_selector
        report.self_dual_ok = (
            G.dual(self_dual_selector) == G.component(self_dual_selector)
        )

    lift = vec_bent_lift(G, defining, poly)
    report.predicted_class = f"vectorial bent ({field.n},{G.m})"
    report.verified_class = vectorial_class_string(lift.H)
    report.class_match = report.predicted_class == report.verified_class

    report.degree_predicted = degree_predicted
    report.degree_measured = lift.H.degree()
    report.degree_match = (
        None if degree_predicted is None else report.degree_measured == degree_predicted
    )

    H_hat = None
    if tail_polys:
        # The appended coordinates are composed on the whole u set, not
        # the bent-lift subset; that is what makes their count maximal.
        tail_defining = DefiningSet(field, tuple(u_values))
        plat = vec_plateaued_lift(G, tail_defining, tail_polys)
        H_hat = plat.H_hat
        report.p_tau_all_lambdas = plat.p_tau_all
        report.tail_plateaued = plat.tail_plateaued
        report.hat_plateaued = plat.hat_check.ok
        report.plateaued_iff_ok = plat.iff_ok
        report.bent_components_measured = plat.bent_count
        report.bent_components_predicted = plat.bent_count_predicted
        report.bent_components_bound = plat.bent_count_bound
    else:
        report.bent_components_measured = lift.H.bent_component_count()
        report.bent_components_predicted = (1 << G.m) - 1
        report.bent_components_bound = _bent_components_bound_or_none(field.n, G.m)
    report.bent_components_match = (
        None
        if report.bent_components_predicted is None
        else report.bent_components_measured == report.bent_components_predicted
    )

    checks = [
        report.class_match,
        report.dual_match,
        report.degree_match is not False,
        report.bent_components_match is not False,
        report.self_dual_ok is not False,
        report.plateaued_iff_ok is not False,
    ]
    report.ok = all(checks)
    return FamilyResult(G, lift.H, H_hat, report, g=lift.g)


def kasami_family(field, u_values, poly, tail_polys=(), seed=None):
    """H = x^(2^k+1) + F(traces) over GF(2^n), n = 2k.

    Component duals have the closed form Tr^k_1(lambda^(-1) x^(2^k+1)) + 1,
    verified against spectrum duals for every nonzero subfield selector.
    """
    if field.n % 2:
        raise PreconditionError("Kasami family needs even n")
    k = field.n // 2
    u_values = [field.check(u) for u in u_values]
    _check_conjugate_condition(field, u_values, k)
    G = VectorialFunction.from_univariate(field, k, [(1, (1 << k) + 1)])

    def closed_form(lam):
        # Tr^k_1(lambda^-1 x^(2^k+1)) is the component lambda^-1 of G
        return G.component(field.inverse(lam)).complement()

    return _run_family(
        "kasami",
        field,
        G,
        u_values,
        poly,
        tuple(tail_polys),
        closed_form,
        "Tr^k_1(lambda^-1 x^(2^k+1)) + 1",
        _lift_degree(poly, u_values),
        seed=seed,
    )


def niho_exponents(n, r):
    """The 2^r - 1 Niho exponents (i 2^(k-r) + 1)(2^k - 1) + 1, k = n/2."""
    k = n // 2
    return [
        (i * (1 << (k - r)) + 1) * ((1 << k) - 1) + 1 for i in range(1, 1 << r)
    ]


def niho_family(field, r, u_values, poly, tail_polys=(), seed=None):
    """H = sum_i x^(d_i) + F(traces) for the Niho exponent family.

    Needs 1 < r < k with gcd(r, k) = 1 and a basis of F_{2^k} as u set.
    Component duals are G*_1 composed with the scaling delta^(-1), where
    lambda = delta^(d_t) and d_t = (2^k - 1)(t 2^(k-r) + 1) + 1 with
    t = 2^(r-1) - 1.
    """
    if field.n % 2:
        raise PreconditionError("Niho family needs even n")
    k = field.n // 2
    if not 1 < r < k:
        raise PreconditionError(f"need 1 < r < k = {k}, got r={r}")
    if math.gcd(r, k) != 1:
        raise PreconditionError(f"gcd(r, k) must be 1, got gcd({r},{k})")
    u_values = [field.check(u) for u in u_values]
    if len(u_values) != k:
        raise PreconditionError(
            f"u set must be a basis of F_(2^{k}); expected {k} elements, "
            f"got {len(u_values)}"
        )
    _require_in_subfield(field, u_values, k)
    if not f2_is_independent(u_values):
        raise PreconditionError("u set is not linearly independent (basis check)")

    exps = niho_exponents(field.n, r)
    G = VectorialFunction.from_univariate(field, k, [(1, d) for d in exps])

    # Closed form for the lambda = 1 dual, then the scaling law for the rest.
    t_idx = (1 << (r - 1)) - 1
    d_t = ((1 << k) - 1) * (t_idx * (1 << (k - r)) + 1) + 1
    if math.gcd(d_t, field.order) != 1:
        raise PreconditionError(f"gcd(d_t = {d_t}, 2^n - 1) != 1")
    d_t_inv = pow(d_t, -1, field.order)
    s = pow((1 << r) - 1, -1, (1 << k) - 1)
    u = next(x for x in range(field.size) if field.trace(x, k) == 1)  # u + ubar = 1
    g1_dual = _niho_dual_one(field, r, k, s, u)

    def closed_form(lam):
        delta = field.pow(lam, d_t_inv)
        if field.pow(delta, 1 << k) != delta:
            raise VerificationError(f"delta = {delta:#x} left F_(2^{k})")
        return g1_dual.scale_input(field.inverse(delta))

    d = poly.degree()
    degree_predicted = k if (d == k and G.degree() != k) else None
    return _run_family(
        "niho",
        field,
        G,
        u_values,
        poly,
        tuple(tail_polys),
        closed_form,
        "G*_1(delta^-1 x), lambda = delta^(d_t)",
        degree_predicted,
        seed=seed,
        r=r,
    )


def _niho_dual_one(field, r, k, s, u):
    """Closed-form dual of the lambda = 1 Niho component.

    Tr^k_1((u(1 + x + xbar) + u^(2^(n-r)) + xbar)(1 + x + xbar)^(1/(2^r - 1)))
    with u + ubar = 1 and the exponent inverted modulo 2^k - 1.
    """
    xs = np.arange(field.size, dtype=np.int64)
    xbar = field.pow_elems(xs, 1 << k)
    y = 1 ^ xs ^ xbar  # lies in F_{2^k}
    ur = field.pow(u, 1 << (field.n - r))
    z = field.mul_elems(field.mul_elems(y, u) ^ ur ^ xbar, field.pow_elems(y, s))
    if np.any(field.pow_elems(z, 1 << k) != z):
        raise VerificationError("Niho dual argument left F_(2^k)")
    return VectorialFunction(field, k, z).component(1)


def gold_family(field, u_values, poly, tail_polys=(), seed=None):
    """H = Tr^(4k)_k(omega x^(2^k+1)) + F(traces) over GF(2^(4k)), k >= 2.

    omega = generator^((2^k-1)(2^(2k)+1)) generates the unit circle of
    F_{2^(2k)}; its three defining assertions are checked, the
    lambda_0 component is verified self-dual, and every component dual is
    matched against G_{lambda_0}(delta^(-1) x) with
    delta^(2^k+1) = lambda lambda_0^(-1).
    """
    if field.n % 4:
        raise PreconditionError("Gold-like family needs n = 4k")
    k = field.n // 4
    if k < 2:
        raise PreconditionError("Gold-like family needs k >= 2")
    u_values = [field.check(u) for u in u_values]
    _check_conjugate_condition(field, u_values, k)
    _require_in_subfield(field, u_values, 2 * k)

    e_omega = ((1 << k) - 1) * ((1 << (2 * k)) + 1)
    omega = field.pow(field.generator, e_omega)
    circle = set(int(x) for x in field.unit_circle(2 * k))
    if omega not in circle or omega == 1:
        raise VerificationError(f"omega = {omega:#x} is not in U minus 1")
    gg = math.gcd((1 << k) + 1, field.order)
    if field.pow(omega, field.order // gg) == 1:
        raise VerificationError("omega lies in the subgroup <generator^(2^k+1)>")
    obar = field.pow(omega, 1 << k)
    if omega ^ obar == 0:
        raise VerificationError("omega + omega^(2^k) vanishes")
    # omega must generate the whole circle, not just sit inside it
    # (order 2^k + 1 exactly; matters when 2^k + 1 is composite)
    circle_order = (1 << k) + 1
    for q in prime_factors(circle_order):
        if field.pow(omega, circle_order // q) == 1:
            raise VerificationError("omega does not generate the unit circle")

    # Tr^(4k)_k(omega x^e) is the sum of the conjugates omega^(2^(ik)) x^(e 2^(ik))
    e = (1 << k) + 1
    terms = [
        (field.pow(omega, 1 << (i * k)), (e << (i * k)) % field.order) for i in range(4)
    ]
    G = VectorialFunction.from_univariate(field, k, terms)

    lam0 = field.inverse(omega ^ obar)
    if field.pow(lam0, 1 << k) != lam0:
        raise VerificationError("lambda_0 left F_(2^k)")
    if field.subfield_abs_trace(lam0, k) != 1:
        raise VerificationError("Tr^k_1(lambda_0) != 1")
    comp0 = G.component(lam0)

    def closed_form(lam):
        target = field.mul(lam, field.inverse(lam0))
        delta = field.pow(target, 1 << (k - 1))  # square root inside F_{2^k}
        if field.pow(delta, (1 << k) + 1) != target:
            raise VerificationError("delta^(2^k+1) != lambda lambda_0^-1")
        return comp0.scale_input(field.inverse(delta))

    return _run_family(
        "gold",
        field,
        G,
        u_values,
        poly,
        tuple(tail_polys),
        closed_form,
        "G_lambda0(delta^-1 x), delta^(2^k+1) = lambda lambda_0^-1",
        _lift_degree(poly, u_values),
        seed=seed,
        self_dual_selector=lam0,
    )

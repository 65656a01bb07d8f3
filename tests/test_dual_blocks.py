"""G's duals checked in blocks in the Hadamard index, against their
per-lambda, field-order definitions.

The closed-form check compares each family's closed forms with the bits
profile() reads, a block of lambdas and points at a time; the reference
below is the per-lambda loop: each lone component's dual, then the
closed form as a whole truth table, in field order.  (P_tau) is tested
on the same bits with the defining set mapped through the Walsh
permutation; its reference is `oracles.naive_p_tau` in field order.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentvec import (
    BooleanFunction,
    DefiningSet,
    FieldSpec,
    NotBentError,
    ReducedPolynomial,
    VectorialFunction,
    gold_auto_u,
    gold_family,
    kasami_auto_u,
    kasami_family,
    niho_auto_u,
    niho_family,
)
import bentvec.constructions as constructions
from bentvec.constructions import (
    _ClosedForm,
    _component_dual_check,
    _niho_dual_one,
    _p_tau_all_lambdas,
    _require_p_tau_for,
    _trace_one_lambdas,
)
from bentvec.errors import PreconditionError, VerificationError
from bentvec.gf2n import _walsh_permutation
from bentvec.propp import satisfies_p_packed
from oracles import naive_p_tau

# kasami n = 2 and 4 have fewer points than a packed byte holds
CASES = [("kasami", 2), ("kasami", 4), ("kasami", 6), ("kasami", 8), ("kasami", 10),
         ("niho", 8), ("niho", 12), ("gold", 8), ("gold", 16)]
NIHO_R = {8: 3, 12: 5}


class _Captured(Exception):
    pass


def _family_parts(monkeypatch, name, n):
    """G and the closed form a family hands to `_run_family`, and the same
    closed form as one whole truth table per lambda."""
    field = FieldSpec.default(n)
    captured = {}

    def capture(family, field, G, u_values, poly, tails, closed_form, *args, **kwargs):
        captured.update(G=G, closed_form=closed_form)
        raise _Captured

    monkeypatch.setattr(constructions, "_run_family", capture)
    poly = ReducedPolynomial.make(2, [(1, 2)])
    with pytest.raises(_Captured):
        if name == "kasami":
            kasami_family(field, kasami_auto_u(field), poly)
        elif name == "niho":
            niho_family(field, NIHO_R[n], niho_auto_u(field), poly)
        else:
            gold_family(field, gold_auto_u(field), poly)
    monkeypatch.undo()
    G = captured["G"]
    return G, captured["closed_form"], _reference_closed_form(name, field, G)


def _reference_closed_form(name, field, G):
    """lambda -> the closed-form dual as a whole BooleanFunction, in field
    order, from each family's formula."""
    k = field.n // 2
    if name == "kasami":
        return lambda lam: G.component(field.inverse(lam)).complement()
    if name == "niho":
        r = NIHO_R[field.n]
        t_idx = (1 << (r - 1)) - 1
        d_t = ((1 << k) - 1) * (t_idx * (1 << (k - r)) + 1) + 1
        d_t_inv = pow(d_t, -1, field.order)
        s = pow((1 << r) - 1, -1, (1 << k) - 1)
        u = next(x for x in range(field.size) if field.trace(x, k) == 1)
        g1_dual = _niho_dual_one(field, r, k, s, u)

        def closed(lam):
            delta = field.pow(lam, d_t_inv)
            if field.pow(delta, 1 << k) != delta:
                raise VerificationError(f"delta = {delta:#x} left F_(2^{k})")
            return g1_dual.scale_input(field.inverse(delta))

        return closed
    k = field.n // 4
    omega = field.pow(field.generator, ((1 << k) - 1) * ((1 << (2 * k)) + 1))
    lam0 = field.inverse(omega ^ field.pow(omega, 1 << k))
    comp0 = G.component(lam0)

    def closed(lam):
        target = field.mul(lam, field.inverse(lam0))
        delta = field.pow(target, 1 << (k - 1))
        if field.pow(delta, (1 << k) + 1) != target:
            raise VerificationError("delta^(2^k+1) != lambda lambda_0^-1")
        return comp0.scale_input(field.inverse(delta))

    return closed


def _reference_check(F, closed):
    """The definition: lambda by lambda, the lone component's dual, then
    the closed form, compared whole; a failure is (lambda, least x)."""
    failures, classes = [], []
    for (lam, _), cls, _ in F.profile():
        verified = F.component(lam).dual()
        predicted = closed(lam)
        match = verified == predicted
        classes.append((lam, str(cls), match))
        if not match:
            failures.append((lam, int(np.flatnonzero(verified.table != predicted.table)[0])))
    return tuple(failures), tuple(classes)


def _planted(closed_form, reference, flips, raise_at):
    """Both closed forms with the bits of lambda flipped at the points
    flips[lambda], and a VerificationError planted at lambda raise_at."""

    def param(lam):
        if lam == raise_at:
            raise VerificationError(f"planted at {lam:#x}")
        return lam, closed_form.param(lam)

    def bits(params, xs):
        out = closed_form.bits([p for _, p in params], xs)
        for row, (lam, _) in enumerate(params):
            out[row] ^= np.isin(xs, flips.get(lam, ())).astype(np.uint8)
        return out

    def wrong(lam):
        if lam == raise_at:
            raise VerificationError(f"planted at {lam:#x}")
        table = reference(lam).table.copy()
        table[list(flips.get(lam, ()))] ^= 1
        return BooleanFunction(reference(lam).field, table)

    return _ClosedForm(param, bits), wrong


def _outcome(check):
    try:
        return check()
    except (NotBentError, VerificationError) as exc:
        return type(exc).__name__, str(exc)


def _perturbed(G, x):
    """G with F(x) moved to another subfield element: some components are
    then not bent."""
    values = G.values.copy()
    sub = G.field.subfield(G.m)
    values[x] = sub[(np.flatnonzero(sub == values[x])[0] + 1) % len(sub)]
    return VectorialFunction(G.field, G.m, values)


@pytest.mark.parametrize("name, n", CASES)
def test_blocked_dual_check_matches_the_per_lambda_definition(monkeypatch, name, n):
    G, closed_form, reference = _family_parts(monkeypatch, name, n)
    size = G.field.size
    lams = [lam for lam, _ in G.selectors()]
    want = _reference_check(G, reference)
    assert not want[0]  # every family's closed form holds
    assert _component_dual_check(G, closed_form)[:2] == want
    # planted mismatches: the least planted point is the witness (at
    # n = 2, lambda = 1 alone, flipped at 0)
    flips = {lams[0]: [size - 1], lams[len(lams) // 2]: [7, 3, size // 2], lams[-1]: [0]}
    flips = {lam: [x for x in xs if x < size] for lam, xs in flips.items()}
    blocked, wrong = _planted(closed_form, reference, flips, None)
    want = _reference_check(G, wrong)
    assert [lam for lam, _ in want[0]] == sorted(flips)
    assert [x for _, x in want[0]] == [min(flips[lam]) for lam in sorted(flips)]
    assert _component_dual_check(G, blocked)[:2] == want


@pytest.mark.parametrize("name, n", CASES)
def test_blocked_dual_check_raises_the_first_error_of_the_definition(monkeypatch, name, n):
    G, closed_form, reference = _family_parts(monkeypatch, name, n)
    F = _perturbed(G, 5 % G.field.size)
    lams = [lam for lam, _ in F.selectors()]
    bent = [cls.kind == "bent" for _, cls, _ in F.profile()]
    assert not all(bent)
    first = bent.index(False)
    # a formula error before, at and after the first lambda that is not bent
    for raise_at in {lams[0], lams[first], lams[-1], None}:
        blocked, wrong = _planted(closed_form, reference, {}, raise_at)
        want = _outcome(lambda: _reference_check(F, wrong))
        assert isinstance(want[0], str)  # an error
        assert _outcome(lambda: _component_dual_check(F, blocked)) == want
        if raise_at is not None and lams.index(raise_at) < first:
            assert want == ("VerificationError", f"planted at {raise_at:#x}")
        else:
            assert want[0] == "NotBentError"


def test_a_mismatch_is_reported_with_its_point(monkeypatch):
    G, closed_form, reference = _family_parts(monkeypatch, "kasami", 8)
    (lam, _), cls, _ = G.profile()[4]
    blocked, _ = _planted(closed_form, reference, {lam: [200, 17]}, None)
    failures, classes, _ = _component_dual_check(G, blocked)
    assert failures == ((lam, 17),)
    assert [c for c in classes if not c[2]] == [(lam, str(cls), False)]
    report = constructions.ConstructionReport(
        family="kasami", field="11d", n=8, m=4, tau=2, t=0, dual_failures=failures
    )
    assert report.to_json_dict()["dual_failures"] == [[str(lam), "17"]]


def _gold_lambda0(field):
    """lambda_0 = (omega + omega^(2^k))^-1 of the gold family, k = n/4."""
    k = field.n // 4
    omega = field.pow(field.generator, ((1 << k) - 1) * ((1 << (2 * k)) + 1))
    return field.inverse(omega ^ field.pow(omega, 1 << k))


@pytest.mark.parametrize("n", [8, 16])
def test_gold_closed_form_at_lambda0_is_the_component_lambda0(monkeypatch, n):
    # delta = 1 at lambda_0, so its closed form is G's component lambda_0:
    # the self-dual verdict is lambda_0's closed-form verdict
    G, closed_form, _ = _family_parts(monkeypatch, "gold", n)
    lam0 = _gold_lambda0(G.field)
    assert closed_form.param(lam0) == 1
    every = np.arange(G.field.size)
    assert np.array_equal(closed_form.bits([1], every)[0], G.component(lam0).table)


def _gold_report(monkeypatch, flips):
    """The report of the gold n = 8 family with the closed form's bits
    flipped at the points flips[lambda]."""
    run = constructions._run_family

    def planted(family, field, G, u_values, poly, tails, closed_form, *args, **kwargs):
        blocked, _ = _planted(closed_form, None, flips, None)
        return run(family, field, G, u_values, poly, tails, blocked, *args, **kwargs)

    field = FieldSpec.default(8)
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "_run_family", planted)
        result = gold_family(field, gold_auto_u(field), ReducedPolynomial.make(2, [(1, 2)]))
    return result.report


def test_gold_self_dual_verdict_follows_lambda0_alone(monkeypatch):
    lam0 = _gold_lambda0(FieldSpec.default(8))
    report = _gold_report(monkeypatch, {})
    assert report.self_dual_selector == lam0
    assert report.dual_match and report.self_dual_ok and report.ok
    report = _gold_report(monkeypatch, {lam0: [5]})
    assert report.dual_failures == ((lam0, 5),)
    assert report.dual_match is False and report.self_dual_ok is False
    other = next(lam for lam, _, _ in report.component_classes if lam != lam0)
    report = _gold_report(monkeypatch, {other: [5]})
    assert report.dual_failures == ((other, 5),)
    assert report.dual_match is False and report.self_dual_ok is True


def _tables(data, n, count):
    """Quadratic tables, some pairs of whose second derivatives vanish, some
    with flipped points (a failing column on every pair)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = np.arange(1 << n)
    tables = np.zeros((count, 1 << n), dtype=np.uint8)
    for table in tables:
        for _ in range(int(rng.integers(0, 3))):
            c1, c2 = rng.integers(0, 1 << n, size=2)
            table ^= (np.bitwise_count(x & c1) & np.bitwise_count(x & c2) & 1).astype(np.uint8)
        if rng.random() < 0.4:
            table[rng.integers(0, 1 << n, size=int(rng.integers(1, 4)))] ^= 1
    return tables


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([6, 8, 10]), count=st.integers(0, 70), data=st.data())
def test_hadamard_index_p_tau_matches_the_field_order_definition(n, count, data):
    field = FieldSpec.default(n)
    tau = data.draw(st.integers(2, 6))
    us = data.draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=tau, max_size=tau, unique=True)
    )
    tables = _tables(data, n, count)
    perm = _walsh_permutation(field)
    hadamard = np.empty_like(tables)
    hadamard[:, perm] = tables  # g(x) is bit perm[x]
    checks = satisfies_p_packed(list(np.packbits(hadamard, axis=1)), DefiningSet(field, us), perm)
    assert [tuple(c) for c in checks] == [naive_p_tau(t, us) for t in tables]


@pytest.fixture(scope="module")
def kasami16():
    field = FieldSpec.default(16)
    return VectorialFunction.from_univariate(field, 8, [(1, 257)])


def _traced_peak(call):
    call()  # any lazy table first
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_p_tau_gate_at_n16_stays_within_2_mb(kasami16):
    # the whole pass over G's 255 duals, closed form and both gates, holds
    # one block of DUAL_BLOCK duals of 8 KB at a time: at most 1 MB above
    # G.profile() alone, where a store of every dual took 2 MB; a gate
    # then reads the pass's checks
    G = kasami16
    us = kasami_auto_u(G.field)
    lambdas = _trace_one_lambdas(G.field, G.m)
    gate = DefiningSet(G.field, tuple(us[:3]))
    every = DefiningSet(G.field, tuple(us))
    gates = [(gate, set(lambdas)), (every, {lam for lam, _ in G.selectors()})]
    # kasami_family's closed form, Tr^k_1(lambda^-1 x^(2^k+1)) + 1
    closed_form = _ClosedForm(
        constructions._inverse_masks(G).__getitem__, constructions._component_bits(G, 1)
    )

    def profile_alone():
        G._profile = None
        return G.profile()

    alone = _traced_peak(profile_alone)
    streamed = _traced_peak(lambda: _component_dual_check(G, closed_form, gates))
    assert streamed <= alone + 2**20
    failures, _, (gate_checks, every_checks) = _component_dual_check(G, closed_form, gates)
    assert not failures
    assert _traced_peak(lambda: _require_p_tau_for(G, gate, lambdas, gate_checks)) <= 2 * 2**20
    assert _traced_peak(lambda: _p_tau_all_lambdas(G, every, lambdas, every_checks)) <= 2 * 2**20
    assert _p_tau_all_lambdas(G, every, lambdas, every_checks)


def test_a_gate_witness_is_the_least_field_point(kasami16):
    # a defining set that fails: the witness is reindexed from the one
    # failing derivative, and equals the lone dual's
    G = kasami16
    field = G.field
    bad = DefiningSet(field, (1, 2, 3))
    lam = _trace_one_lambdas(field, G.m)[0]
    want = naive_p_tau(G.component(lam).dual().table, bad.elements)
    assert not want[0]
    checks = _component_dual_check(G, None, [(bad, {lam})])[2][0]
    with pytest.raises(PreconditionError) as info:
        _require_p_tau_for(G, bad, (lam,), checks)
    assert str(info.value) == (
        f"dual of component {lam:#x} violates (P_tau) on pair {want[1]} at x={want[2]}"
    )

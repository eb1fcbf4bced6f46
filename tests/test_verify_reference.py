"""verify's integer image tables against the per-monomial FockVector loop.

The reference below is the commutator check as first written: every
operand maps a FockVector to a FockVector, each basis monomial is wrapped
as a unit vector, images are summed as FockVectors and the expected side
applies the abstract commutator generator by generator, N/2 shift
included.  The library sums {id: int} dicts held in ``ImageTable``s,
keyed by monomial ids of one index and built from the operators'
``fock.Operator``s with the identity coefficients kept apart; the
reports, failures and their printed vectors included, must not change.

The references act on vectors (``apply_generator``, the ladders, and
``Operator.apply`` of the charge and gauge generators).  They read the
same builders as the tables and run the same oscillator loop, so a fault
planted in a builder, or in the loop, reaches both sides."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from bilocal import algebra, cli, fock, young
from bilocal.algebra import (
    E,
    E_KIND,
    EMINUS_KIND,
    EPLUS_KIND,
    Eminus,
    Eplus,
    X,
    Xstar,
    abstract_commutator,
    apply_generator,
    dagger_label,
    generating_set_suffices,
    generator_images,
    generators,
    lie_generating_set,
    verify_structure_constants,
)
from bilocal.fock import (
    COMPLEX,
    REAL,
    FockContext,
    FockVector,
    Operator,
    apply_annihilation,
    apply_creation,
    basis_monomials,
    monomial_self_overlap,
    monomial_str,
    unit,
    zero,
)
from bilocal.linalg import add_scaled
from oracles import a_slot


def reference_counterexample(ctx, a, b, c, basis):
    for m in basis:
        v = unit(ctx, m)
        lhs = a(b(v)) - b(a(v))
        rhs = zero(ctx) if c is None else c(v)
        if lhs != rhs:
            return m, lhs, rhs
    return None


class ReferenceImages:
    """FockVector images of unit monomials, each computed once and extended
    linearly by ``apply``."""

    def __init__(self, ctx, realization):
        self.ctx, self.realization, self._images = ctx, realization, {}

    def image(self, label, m):
        out = self._images.get((label, m))
        if out is None:
            out = self._images[(label, m)] = self.realization(self.ctx, label, unit(self.ctx, m))
        return out

    def apply(self, label, v):
        out = {}
        for m, c in v.items():
            add_scaled(out, self.image(label, m).terms, c)
        return FockVector._wrap(out, self.ctx)


def reference_structure_constants(ctx, max_failures=10):
    basis = list(basis_monomials(ctx, ctx.P - 2))
    images = ReferenceImages(ctx, apply_generator)

    def degree_one(expr, v):
        """sum c g v over the terms c g of a linear combination of generators"""
        return zero(ctx).plus((c, images.apply(g, v)) for (g,), c in expr.terms.items())

    failures = []
    pairs = 0
    for g1, g2 in combinations_with_replacement(sorted(set(generators(ctx))), 2):
        pairs += 1
        expected = abstract_commutator(g1, g2, ctx.field_kind)
        hit = reference_counterexample(ctx, partial(images.apply, g1), partial(images.apply, g2),
                                       partial(degree_one, expected), basis)
        if hit:
            m, lhs, rhs = hit
            failures.append({"pair": [str(g1), str(g2)], "monomial": monomial_str(m),
                             "expected": repr(rhs), "got": repr(lhs)})
            if len(failures) >= max_failures:
                break
    return {"ok": not failures, "pairs_checked": pairs, "basis_size": len(basis), "failures": failures}


def reference_report(ctx, identities):
    basis = list(basis_monomials(ctx, ctx.P - 2))
    failures = []
    for label, a, b, c in identities:
        hit = reference_counterexample(ctx, a, b, c, basis)
        if hit:
            failures.append(dict(label, monomial=monomial_str(hit[0])))
            if len(failures) == 5:
                break
    return {"ok": not failures, "failures": failures}


def reference_ccr(ctx):
    slots = ctx.slots()
    return reference_report(ctx, (
        ({"slots": [str(s), str(t)]}, partial(apply_annihilation, ctx, s),
         partial(apply_creation, ctx, t), (lambda v: v) if s == t else None)
        for s in slots for t in slots))


def reference_adjointness(ctx):
    basis = list(basis_monomials(ctx, ctx.P - 2))
    weight = {m: monomial_self_overlap(m) for m in basis}
    images = ReferenceImages(ctx, apply_generator)

    def mismatch(g, h):
        return any(c * weight[n] != images.image(h, n).coefficient(m) * weight[m]
                   for m in basis for n, c in images.image(g, m).items() if n in weight)

    failures = []
    for g in generators(ctx):
        if mismatch(g, dagger_label(g)) or mismatch(dagger_label(g), g):
            failures.append({"generator": str(g)})
    return {"ok": not failures, "failures": failures[:5]}


def reference_charge_commutes(ctx):
    if ctx.field_kind != COMPLEX:
        return {"ok": True, "skipped": "no charge operator in the real case"}
    images = ReferenceImages(ctx, apply_generator)
    return reference_report(ctx, (
        ({"generator": str(g)}, lambda v: algebra.charge_terms(ctx).apply(v), partial(images.apply, g), None)
        for g in generators(ctx)))


def reference_gauge_commutant(ctx):
    flavors = range(1, ctx.N + 1)
    gauge = ReferenceImages(ctx, lambda ctx, pq, v: young.gauge_terms(ctx, *pq).apply(v))
    images = ReferenceImages(ctx, apply_generator)
    return reference_report(ctx, (
        ({"gauge": [p, q], "generator": str(g)}, partial(gauge.apply, (p, q)),
         partial(images.apply, g), None)
        for p in flavors for q in flavors for g in generators(ctx)))


def reference_reports(ctx):
    return {"structure_constants": reference_structure_constants(ctx),
            "ccr": reference_ccr(ctx),
            "adjointness": reference_adjointness(ctx),
            "charge_commutes": reference_charge_commutes(ctx),
            "gauge_commutant": reference_gauge_commutant(ctx)}


def library_reports(ctx, shift=True):
    """The library checks as ``bilocal verify`` runs them, on one set of
    generator tables."""
    images = generator_images(ctx, shift)
    return {"ccr": cli._check_ccr(ctx),
            "adjointness": cli._check_adjointness(ctx, images),
            "charge_commutes": cli._check_charge_commutes(ctx, images),
            "gauge_commutant": cli._check_gauge_commutant(ctx, images),
            "structure_constants": verify_structure_constants(ctx, images)}


def assert_matches_reference(ctx):
    got, want = library_reports(ctx), reference_reports(ctx)
    for name in want:
        assert got[name] == want[name], name


def drop_e_shift(mp):
    """Plant the drop-e-shift fault in the generators' builder: every
    diagonal E loses its N/2 shift, in the tables and in
    ``apply_generator`` alike."""
    terms = algebra.generator_terms
    mp.setattr(algebra, "generator_terms", lambda ctx, g: terms(ctx, g).body)


# the contexts of the verify gates in bench/gates.json
GATE_CONTEXTS = [(COMPLEX, 1, 2, 4), (COMPLEX, 1, 3, 4), (COMPLEX, 2, 2, 4), (REAL, 2, 3, 4)]


@pytest.mark.parametrize("context", GATE_CONTEXTS, ids=str)
def test_verify_checks_match_reference_on_gate_contexts(context):
    assert_matches_reference(FockContext(*context).validate())


@pytest.mark.parametrize("context", [(COMPLEX, 1, 2, 4), (REAL, 1, 2, 4), (COMPLEX, 2, 1, 4)],
                         ids=str)
def test_verify_checks_match_reference_without_e_shift(monkeypatch, context):
    ctx = FockContext(*context).validate()
    # the CLI's negative control: tables without the shift's scalars
    unshifted = library_reports(ctx, shift=False)
    assert not unshifted["structure_constants"]["ok"]
    drop_e_shift(monkeypatch)
    assert_matches_reference(ctx)
    assert unshifted == reference_reports(ctx)


def _doubled_creation(ctx, slot):
    return Operator(ctx, ((2, (), (slot,)),))


def _noncommuting_gauge(ctx, p, q):
    return Operator(ctx, ((1, (a_slot(1, 1),), ()),))


@pytest.mark.parametrize("fault", [
    pytest.param((fock, "creation_terms", _doubled_creation), id="apply_creation"),
    pytest.param((young, "gauge_terms", _noncommuting_gauge), id="apply_gauge_generator"),
])
def test_failing_checks_match_reference(monkeypatch, fault):
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    monkeypatch.setattr(*fault)
    got = library_reports(ctx)
    assert not all(report["ok"] for report in got.values())
    assert got == reference_reports(ctx)


def test_adjointness_fails_like_the_reference_on_shared_tables(monkeypatch):
    """Every Xstar doubled: the real X(i,j) and X(j,i) still share a table,
    and so do Xstar(i,j) and Xstar(j,i), and every X and Xstar label fails
    adjointness; a verdict decided once per pair of tables reports each."""
    ctx = FockContext(REAL, 2, 3, 4).validate()
    terms = algebra.generator_terms
    monkeypatch.setattr(algebra, "generator_terms", lambda ctx, g: terms(ctx, g) * (
        2 if g.kind == fock.XSTAR_KIND else 1))
    images = generator_images(ctx, True)
    assert images[Xstar(1, 2)] is images[Xstar(2, 1)]
    got = cli._check_adjointness(ctx, images)
    assert got == reference_adjointness(ctx)
    assert [f["generator"] for f in got["failures"]] == [str(X(i, j)) for i, j in
                                                         ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))]


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from([COMPLEX, REAL]), N=st.integers(0, 2), M=st.integers(1, 2),
       P=st.integers(2, 4), shifted=st.booleans())
def test_verify_checks_match_reference_on_drawn_contexts(kind, N, M, P, shifted):
    ctx = FockContext(kind, N, M, P).validate()
    with pytest.MonkeyPatch.context() as mp:
        if not shifted:
            drop_e_shift(mp)
        assert_matches_reference(ctx)


def _table_coefficients(ctx, images):
    """(g, m, n, c) over every monomial m up to P, through the tables' index."""
    index = next(iter(images.values())).index
    ids = [index[m] for m in basis_monomials(ctx)]
    for g in generators(ctx):
        table = images[g]
        table.fill(ids)
        for i in ids:
            for n, c in table[i].items():
                yield g, index.monomials[i], index.monomials[n], c


@pytest.mark.parametrize("context", [(COMPLEX, 2, 2, 4), (REAL, 2, 2, 4), (COMPLEX, 4, 1, 3)],
                         ids=str)
def test_even_n_tables_hold_only_ints(context):
    ctx = FockContext(*context).validate()
    images = generator_images(ctx, shift=True)
    assert {type(c) for *_, c in _table_coefficients(ctx, images)} == {int}


@pytest.mark.parametrize("context", [(COMPLEX, 1, 2, 4), (REAL, 3, 2, 3)], ids=str)
def test_odd_n_tables_hold_only_ints(context):
    """The N/2 shift is the one true quotient, and it is kept apart as the
    scalar of each diagonal E."""
    ctx = FockContext(*context).validate()
    images = generator_images(ctx, shift=True)
    assert {type(c) for *_, c in _table_coefficients(ctx, images)} == {int}
    diagonal_e = {EPLUS_KIND, EMINUS_KIND, E_KIND}
    for g in generators(ctx):
        want = Fraction(ctx.N, 2) if g.kind in diagonal_e and g.i == g.j else 0
        assert (images[g].scalar, type(images[g].scalar)) == (want, type(want)), g


def test_planted_off_by_one_table_entry_fails_structure_constants(monkeypatch):
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    target, m0 = X(1, 2), (a_slot(1, 1),)  # an a-only monomial, which X annihilates
    assert apply_generator(ctx, target, unit(ctx, m0)).is_zero()
    target_op, action = algebra.generator_terms(ctx, target), fock.Operator.images
    assert target_op.body == target_op  # no identity term: the tables run target_op itself

    def off_by_one(op, inputs):
        """The batched loop, the one both the tables and apply_generator
        run, with the entry planted in m0's image."""
        inputs = [list(items) for items in inputs]
        images = action(op, inputs)
        for items, image in zip(inputs, images):
            if op == target_op and [m for m, _ in items] == [m0]:
                add_scaled(image, {(): 1})
        return images

    monkeypatch.setattr(fock.Operator, "images", off_by_one)
    assert apply_generator(ctx, target, unit(ctx, m0)) == unit(ctx, ())
    report = verify_structure_constants(ctx, generator_images(ctx, shift=True))
    assert report == reference_structure_constants(ctx)
    assert not report["ok"]
    # the entry enters both as an operand and on the expected side
    assert any(str(target) in f["pair"] for f in report["failures"])
    assert any(str(target) not in f["pair"] for f in report["failures"])


# ---------------------------------------------------------------------------
# structure constants on the generating set against the full scan


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from([COMPLEX, REAL]), N=st.integers(0, 3), M=st.integers(1, 3),
       P=st.integers(2, 5), shifted=st.booleans())
def test_structure_constants_match_the_full_reference_on_drawn_contexts(kind, N, M, P, shifted):
    """At P = 2 and 3 every pair is scanned, at 4 and 5 the generating set
    against every generator, and every pair again where that fails
    (unshifted)."""
    ctx = FockContext(kind, N, M, P).validate()
    assume(comb(len(ctx.slots()) + P - 2, P - 2) <= 100)  # the reference's basis
    with pytest.MonkeyPatch.context() as mp:
        if not shifted:
            drop_e_shift(mp)
        images = generator_images(ctx, shift=True)
        assert generating_set_suffices(ctx, images) == (P >= 4)
        assert verify_structure_constants(ctx, images) == reference_structure_constants(ctx)


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_structure_constants_match_the_full_reference_at_one_mode(monkeypatch, kind):
    """At M = 1 the generating set is every generator."""
    ctx = FockContext(kind, 2, 1, 4).validate()
    assert set(lie_generating_set(ctx)) == set(generators(ctx))
    assert verify_structure_constants(ctx, generator_images(ctx, shift=True)) == \
        reference_structure_constants(ctx)
    drop_e_shift(monkeypatch)
    report = verify_structure_constants(ctx, generator_images(ctx, shift=True))
    assert not report["ok"] and report == reference_structure_constants(ctx)


def _without_flavor_n(op):
    """An X or Xstar without its last term, the flavor-N one."""
    return Operator(op.ctx, [(f, *key) for key, f in op.items()][:-1])


def _first_term_doubled(op):
    return Operator(op.ctx, [(2 * f if k == 0 else f, *key) for k, (key, f) in enumerate(op.items())])


def _extra_shift(op):
    return Operator(op.ctx, [(f, *key) for key, f in op.items()] + [(1, (), ())])


def _reduced_failures(ctx, images) -> list:
    """The failing pairs of the scan with one side on the generating set,
    scanned to the end."""
    generating = lie_generating_set(ctx)
    basis = next(iter(images.values())).index.basis()
    pairs = [pair for pair in combinations_with_replacement(sorted(generators(ctx)), 2)
             if set(pair) & set(generating)]
    return algebra.commutator_scan([images[g] for g in generating], images.values(),
                                   algebra._structure_identities(ctx, images, pairs, {}), basis,
                                   len(pairs))[0]


# (context, generator, fault, whether the faulty tables keep X(i,j) = X(j,i))
PLANTED_OUTSIDE_THE_GENERATING_SET = [
    pytest.param((COMPLEX, 2, 3, 4), X(2, 3), _without_flavor_n, True, id="X(2,3)-flavor-N"),
    pytest.param((COMPLEX, 2, 3, 4), Eplus(1, 3), _first_term_doubled, True, id="Eplus(1,3)-doubled"),
    pytest.param((COMPLEX, 2, 3, 4), Eminus(3, 3), _extra_shift, True, id="Eminus(3,3)-shift"),
    pytest.param((COMPLEX, 2, 3, 4), Xstar(3, 3), _first_term_doubled, True, id="Xstar(3,3)-doubled"),
    pytest.param((REAL, 2, 3, 4), X(3, 2), _without_flavor_n, False, id="real-X(3,2)-flavor-N"),
    pytest.param((REAL, 3, 3, 4), E(3, 1), _first_term_doubled, True, id="real-E(3,1)-doubled"),
    pytest.param((REAL, 2, 3, 4), E(2, 2), _extra_shift, True, id="real-E(2,2)-shift"),
]


@pytest.mark.parametrize("context,target,fault,symmetric", PLANTED_OUTSIDE_THE_GENERATING_SET)
def test_fault_outside_the_generating_set_fails_its_scan(monkeypatch, context, target, fault, symmetric):
    """A fault planted in one generator outside the generating set fails
    the scan on the generating set, so structure constants report what the
    full scan reports.  The real X(3,2) fault also breaks X(3,2) = X(2,3),
    so the generating set does not suffice there in the first place."""
    ctx = FockContext(*context).validate()
    assert target not in lie_generating_set(ctx)
    terms = algebra.generator_terms
    monkeypatch.setattr(algebra, "generator_terms",
                        lambda ctx, g: fault(terms(ctx, g)) if g == target else terms(ctx, g))
    assert generating_set_suffices(ctx, generator_images(ctx, shift=True)) == symmetric
    assert 1 <= len(_reduced_failures(ctx, generator_images(ctx, shift=True))) <= 6
    report = verify_structure_constants(ctx, generator_images(ctx, shift=True))
    assert not report["ok"]
    assert report == reference_structure_constants(ctx)


# ---------------------------------------------------------------------------
# the scan work of one verify run


def _scans_per_check(monkeypatch, command):
    """Run ``bilocal <command>``: (its exit code, its checks, and for each
    of ccr, charge, gauge and structure constants the number of times it
    ran and the ``commutator_counterexample`` calls made inside it)."""
    names = ["_check_ccr", "_check_charge_commutes", "_check_gauge_commutant",
             "verify_structure_constants"]
    runs, calls, current = dict.fromkeys(names, 0), dict.fromkeys(names, 0), []
    scan = algebra.commutator_counterexample

    def counting(*args):
        calls[current[-1]] += 1
        return scan(*args)

    monkeypatch.setattr(algebra, "commutator_counterexample", counting)
    for name in names:
        def tagged(*args, check=getattr(cli, name), name=name):
            runs[name] += 1
            current.append(name)
            try:
                return check(*args)
            finally:
                current.pop()

        monkeypatch.setattr(cli, name, tagged)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(command.split())
    return code, json.loads(out.getvalue())["checks"], [runs[n] for n in names], [calls[n] for n in names]


# the commutator_counterexample calls of each verify gate in bench/gates.json,
# for ccr, charge, gauge and structure constants
SCANS = {
    "verify --kind complex --N 2 --M 2 --P 4": [64, 8, 32, 100],
    "verify --kind complex --N 1 --M 3 --P 4": [36, 12, 12, 366],
    "verify --kind real --N 2 --M 3 --P 4": [36, 0, 7, 168],
    # the charge and gauge checks scan the generating set, then every
    # generator once structure constants fail
    "verify --kind complex --N 1 --M 2 --P 4 --inject-fault drop-e-shift": [16, 24, 24, 136],
}


@pytest.mark.parametrize("command", sorted(SCANS))
def test_each_verify_gate_makes_its_pinned_scans(monkeypatch, command):
    code, _, runs, calls = _scans_per_check(monkeypatch, command)
    assert code == (1 if "drop-e-shift" in command else 0)
    assert calls == SCANS[command]
    assert runs == ([1, 2, 2, 1] if "drop-e-shift" in command else [1, 1, 1, 1])


@pytest.mark.parametrize("command, built", [
    ("verify --kind complex --N 1 --M 2 --P 4 --inject-fault drop-e-shift", 136),
    ("verify --kind complex --N 2 --M 2 --P 4", 100),
])
def test_each_structure_identity_is_built_once(monkeypatch, command, built):
    """The full rescan after a failing reduced scan builds no expected side
    for a pair whose verdict it reuses: one abstract_commutator per pair."""
    calls = []
    bracket = algebra.abstract_commutator
    monkeypatch.setattr(algebra, "abstract_commutator", lambda *args: calls.append(args) or bracket(*args))
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(command.split())
    assert len(calls) == built == len(set(calls))


def test_a_failing_charge_check_reruns_once_when_structure_constants_fail(monkeypatch):
    """The charge-noncommuting fault of ``test_cli.NEGATIVE_CONTROLS`` with
    drop-e-shift: the reduced charge report fails, and so do structure
    constants, so the charge check runs once more, on every generator, and
    every report is the full reference's."""
    monkeypatch.setattr(algebra, "charge_terms", lambda ctx: Operator(ctx, ((1, (a_slot(1, 1),), ()),)))
    code, checks, runs, calls = _scans_per_check(
        monkeypatch, "verify --kind complex --N 2 --M 2 --P 4 --inject-fault drop-e-shift")
    assert code == 1
    assert runs == [1, 2, 2, 1] and calls == [64, 24, 96, 136]
    drop_e_shift(monkeypatch)
    want = reference_reports(FockContext(COMPLEX, 2, 2, 4).validate())
    assert {name: checks[name] for name in want} == want
    assert [name for name, c in checks.items() if not c["ok"]] == ["charge_commutes", "structure_constants"]

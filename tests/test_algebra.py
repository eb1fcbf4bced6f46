from fractions import Fraction

import pytest

from bilocal import algebra
from bilocal.algebra import (
    E,
    Eminus,
    Eplus,
    HamiltonianSpec,
    ImageTable,
    MonomialIndex,
    OperatorExpr,
    X,
    Xstar,
    abstract_commutator,
    apply_generator,
    canonical_hamiltonian,
    charge_terms,
    commutator_counterexample,
    dagger_label,
    fill_for,
    generating_set_suffices,
    generator_images,
    generator_terms,
    generators,
    hamiltonian_terms,
    lie_generating_set,
    verify_structure_constants,
)
from bilocal.fock import (
    COMPLEX,
    REAL,
    ContextMismatch,
    ContextViolation,
    FockContext,
    Operator,
    TruncationError,
    annihilation_terms,
    basis_monomials,
    creation_terms,
    inner_product,
    unit,
    vacuum,
    zero,
)
from oracles import a_slot, b_slot


def test_eplus_diagonal_on_vacuum():
    for N in (0, 1, 2, 3):
        ctx = FockContext(COMPLEX, N, 2, 4).validate()
        vac = vacuum(ctx)
        for i in range(1, 3):
            for j in range(1, 3):
                for gen in (Eplus(i, j), Eminus(i, j)):
                    want = vac * Fraction(N, 2) if i == j else 0 * vac
                    assert apply_generator(ctx, gen, vac) == want


def test_x_annihilates_vacuum():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    assert apply_generator(ctx, X(1, 2), vacuum(ctx)).is_zero()


def test_xstar_on_vacuum_flavor_sum():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    v = apply_generator(ctx, Xstar(1, 1), vacuum(ctx))
    want = unit(ctx, (a_slot(1, 1), b_slot(1, 1))) + unit(ctx, (a_slot(1, 2), b_slot(1, 2)))
    assert v == want


def test_real_x_symmetric_spellings_act_identically():
    ctx = FockContext(REAL, 2, 2, 6).validate()
    for m in basis_monomials(ctx, 4):
        v = unit(ctx, m)
        assert apply_generator(ctx, X(1, 2), v) == apply_generator(ctx, X(2, 1), v)
        assert apply_generator(ctx, Xstar(1, 2), v) == apply_generator(ctx, Xstar(2, 1), v)


def test_generator_kind_context_check():
    ctx = FockContext(REAL, 1, 2, 4).validate()
    with pytest.raises(ContextViolation):
        apply_generator(ctx, Eplus(1, 1), vacuum(ctx))


def test_commutator_x_xstar_complex():
    got = abstract_commutator(X(1, 2), Xstar(1, 2), COMPLEX)
    want = OperatorExpr.of(Eplus(2, 2)) + OperatorExpr.of(Eminus(1, 1))
    assert got == want


def test_commutator_eplus_eminus_vanishes():
    assert abstract_commutator(Eplus(1, 2), Eminus(3, 4), COMPLEX).is_zero()


def test_commutator_real_coincident():
    assert abstract_commutator(X(1, 1), Xstar(1, 1), REAL) == 4 * OperatorExpr.of(E(1, 1))


def test_commutator_antisymmetry():
    for kind, gens in (
        (COMPLEX, [X(1, 2), Xstar(2, 1), Eplus(1, 1), Eminus(2, 1)]),
        (REAL, [X(1, 2), Xstar(1, 1), E(2, 1)]),
    ):
        for g1 in gens:
            for g2 in gens:
                assert abstract_commutator(g1, g2, kind) == -1 * abstract_commutator(g2, g1, kind)


@pytest.mark.parametrize("kind,N", [(COMPLEX, 1), (REAL, 2)])
def test_verify_structure_constants_small(kind, N):
    ctx = FockContext(kind, N, 2, 4).validate()
    report = verify_structure_constants(ctx, generator_images(ctx, shift=True))
    assert report["ok"], report["failures"][:1]


def test_corrupted_realization_fails_on_x_xstar():
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    report = verify_structure_constants(ctx, generator_images(ctx, shift=False))
    assert not report["ok"]
    kinds = {tuple(sorted(p.split("(")[0] for p in f["pair"])) for f in report["failures"]}
    assert ("X", "Xstar") in kinds


def test_structure_constants_refuse_a_context_with_p_below_2():
    """No state lies 2 particles below P, so a scan would pass unread."""
    for P in (0, 1):
        ctx = FockContext(COMPLEX, 1, 2, P).validate()
        with pytest.raises(TruncationError):
            MonomialIndex(ctx).basis()
        with pytest.raises(TruncationError):
            verify_structure_constants(ctx, generator_images(ctx, shift=True))
    assert MonomialIndex(ctx._replace(P=2)).basis() == [0]


def test_structure_constants_refuse_tables_of_another_context():
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    with pytest.raises(ContextMismatch):
        verify_structure_constants(ctx, generator_images(ctx._replace(P=5), shift=True))


def test_structure_constants_refuse_an_incomplete_or_padded_table_dict():
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    images = generator_images(ctx, shift=True)
    with pytest.raises(ValueError, match="no image table for"):
        verify_structure_constants(ctx, {})
    with pytest.raises(ValueError, match=r"no image table for X\(2,2\)"):
        verify_structure_constants(ctx, {g: t for g, t in images.items() if g != X(2, 2)})
    with pytest.raises(ValueError, match=r"labels outside .*X\(3,3\)"):
        verify_structure_constants(ctx, {**images, X(3, 3): images[X(1, 1)]})


def test_operators_refuse_vectors_and_operators_of_another_context():
    """Xstar(1,1) at P = 0 drops everything it creates, and at P = 6 it would
    relabel a P = 0 vector as one of P = 6: both calls raise instead of
    returning a vector."""
    small, large = FockContext(COMPLEX, 3, 2, 0).validate(), FockContext(COMPLEX, 3, 2, 6).validate()
    with pytest.raises(ContextMismatch):
        apply_generator(small, Xstar(1, 1), vacuum(large))
    with pytest.raises(ContextMismatch):
        apply_generator(large, Xstar(1, 1), vacuum(small))
    with pytest.raises(ContextMismatch):
        charge_terms(small) + charge_terms(large)
    with pytest.raises(ContextMismatch):
        ImageTable(MonomialIndex(small), charge_terms(large))
    assert apply_generator(large, Xstar(1, 1), vacuum(large)).max_particles() == 2


def _ladder_tables(ctx, slot):
    """a and a* of ``slot`` as image tables of a new index, and the index."""
    index = MonomialIndex(ctx)
    return (ImageTable(index, annihilation_terms(ctx, slot)), ImageTable(index, creation_terms(ctx, slot)),
            index)


def test_commutator_counterexample_returns_first_failing_monomial():
    ctx = FockContext(COMPLEX, 1, 1, 3).validate()
    a, a_star, index = _ladder_tables(ctx, a_slot(1, 1))
    basis = index.basis()  # the monomials with at most one particle
    assert [index.monomials[m] for m in basis] == list(basis_monomials(ctx, 1))
    fill_for([a, a_star], [a, a_star], basis)
    identity = ((), 1)
    assert commutator_counterexample(ctx, a, a_star, identity, basis) is None
    # [a, a*] = 1 is not 0, and the vacuum comes first in the basis
    assert commutator_counterexample(ctx, a, a_star, None, basis) == ((), vacuum(ctx), zero(ctx))
    # [a*, a] = -1: the sides are returned as (ab - ba) m and c m
    m, lhs, rhs = commutator_counterexample(ctx, a_star, a, identity, basis[1:])
    first = index.monomials[basis[1]]
    assert (m, lhs, rhs) == (first, -1 * unit(ctx, first), unit(ctx, first))
    # the expected side sums its tables and its scalar: 1 = 2 - a*a holds on
    # a*|0> but not on the vacuum
    number = ImageTable(index, Operator(ctx, ((1, (a_slot(1, 1),), (a_slot(1, 1),)),)))
    fill_for([number], [], basis)
    assert commutator_counterexample(ctx, a, a_star, ([(-1, number)], 2), basis[1:2]) is None
    m, lhs, rhs = commutator_counterexample(ctx, a, a_star, ([(-1, number)], 2), basis)
    assert (m, lhs, rhs) == ((), vacuum(ctx), 2 * vacuum(ctx))


def test_fill_for_fills_one_family_scanned_against_itself_once(monkeypatch):
    """The full structure-constant scan reads the generator tables against
    themselves: each table is filled on the basis and on what the family's
    basis images reach, one call each, and its entries are those a fill
    for two distinct families computes."""
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    calls, fill = [], ImageTable.fill

    def counting_fill(self, ids):
        calls.append(id(self))
        fill(self, ids)

    monkeypatch.setattr(ImageTable, "fill", counting_fill)
    images = generator_images(ctx, shift=True)
    fill_for(images.values(), images.values(), next(iter(images.values())).index.basis())
    assert sorted(calls) == sorted(2 * [id(t) for t in images.values()])
    monkeypatch.undo()
    apart = generator_images(ctx, shift=True)
    fill_for(apart.values(), list(apart.values())[::-1], next(iter(apart.values())).index.basis())

    def filled(table):
        return {table.index.monomials[i] for i, image in enumerate(table) if image is not None}

    assert [filled(t) for t in apart.values()] == [filled(t) for t in images.values()]


@pytest.mark.parametrize("shift", [True, False])
@pytest.mark.parametrize("context", [(COMPLEX, 2, 3, 4), (REAL, 2, 3, 4), (REAL, 0, 2, 2)], ids=str)
def test_labels_of_equal_operators_share_one_table(context, shift):
    """The real X(i,j) and X(j,i) (Xstar likewise) are one operator, and
    at N = 0 every generator is the zero operator."""
    ctx = FockContext(*context).validate()
    images = generator_images(ctx, shift)

    def op(g):
        return generator_terms(ctx, g) if shift else generator_terms(ctx, g).body

    for g in generators(ctx):
        for h in generators(ctx):
            assert (images[g] is images[h]) == (op(g) == op(h)), (g, h)
    assert (images[X(1, 2)] is images[X(2, 1)]) == (ctx.field_kind == REAL)


def _counting_scan(monkeypatch):
    """The pairs (a, b) of tables that structure constants hand to
    ``commutator_counterexample``, in order."""
    calls, scan = [], algebra.commutator_counterexample

    def counting(ctx, a, b, c, basis):
        calls.append((a, b))
        return scan(ctx, a, b, c, basis)

    monkeypatch.setattr(algebra, "commutator_counterexample", counting)
    return calls


@pytest.mark.parametrize("kind,M,reduced", [(COMPLEX, 2, 100), (COMPLEX, 3, 366), (COMPLEX, 4, 904),
                                            (REAL, 3, 168), (REAL, 4, 396)])
def test_a_passing_scan_reads_the_generating_set_against_every_generator(monkeypatch, kind, M, reduced):
    """s(s+1)/2 + s(G - s) pairs with s labels in the generating set and G
    in all, and ``pairs_checked`` G(G+1)/2, the pairs the verdict covers."""
    ctx = FockContext(kind, 1, M, 4).validate()
    G, s = len(list(generators(ctx))), len(lie_generating_set(ctx))
    assert reduced == s * (s + 1) // 2 + s * (G - s)
    calls = _counting_scan(monkeypatch)
    images = generator_images(ctx, shift=True)
    assert generating_set_suffices(ctx, images)
    report = verify_structure_constants(ctx, images)
    assert report["ok"] and report["pairs_checked"] == G * (G + 1) // 2
    assert len(calls) == reduced
    generating = {id(images[g]) for g in lie_generating_set(ctx)}
    assert all(id(a) in generating or id(b) in generating for a, b in calls)


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_a_scan_with_fewer_than_two_particles_reads_every_pair(monkeypatch, kind):
    """At P < 4 the scan's basis stops below 2 particles, where a
    commutator of bilinears is truncated, so the generating set decides
    nothing: the scan reads every pair once."""
    ctx = FockContext(kind, 1, 2, 3).validate()
    G = len(list(generators(ctx)))
    calls = _counting_scan(monkeypatch)
    images = generator_images(ctx, shift=True)
    assert not generating_set_suffices(ctx, images)
    assert verify_structure_constants(ctx, images) == {
        "ok": True, "pairs_checked": G * (G + 1) // 2, "basis_size": 1 + len(ctx.slots()), "failures": []}
    assert len(calls) == G * (G + 1) // 2


def test_a_failing_scan_of_the_generating_set_reruns_every_pair(monkeypatch):
    """Without the N/2 shift the scan of the generating set stops at its
    first failing pair, [X(1,1), Xstar(1,1)], and the full scan reports.
    That scan keeps the verdicts the first one reached, so every pair is
    scanned once: 136 scans, not 90 + 136."""
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    calls = _counting_scan(monkeypatch)
    images = generator_images(ctx, shift=False)
    report = verify_structure_constants(ctx, images)
    assert not report["ok"]
    assert report["failures"][0]["pair"] == ["X(1,1)", "Xstar(1,1)"]
    scanned = [(id(a), id(b)) for a, b in calls]
    first = scanned.index((id(images[X(1, 1)]), id(images[Xstar(1, 1)]))) + 1
    generating = {id(images[g]) for g in lie_generating_set(ctx)}
    assert first == 90
    assert all(a in generating or b in generating for a, b in scanned[:first])
    assert not set(scanned[first]) & generating
    assert len(set(scanned)) == len(scanned) == report["pairs_checked"] == 136
    assert len(report["failures"]) == 4


def test_scans_refuse_tables_of_two_indexes():
    """Ids mean something only within their own index, so tables of two
    indexes in one scan would compare unrelated monomials."""
    ctx = FockContext(COMPLEX, 1, 1, 3).validate()
    a, a_star, index = _ladder_tables(ctx, a_slot(1, 1))
    other_a, other_a_star, other = _ladder_tables(ctx, a_slot(1, 1))
    basis = index.basis()
    assert other.basis() == basis  # equal ids, of two indexes
    with pytest.raises(ContextMismatch):
        fill_for([a], [other_a_star], basis)
    with pytest.raises(ContextMismatch):
        fill_for([a, other_a], [a_star], basis)
    fill_for([a], [a_star], basis)
    fill_for([other_a], [other_a_star], other.basis())
    with pytest.raises(ContextMismatch):
        commutator_counterexample(ctx, a, other_a_star, ((), 1), basis)
    with pytest.raises(ContextMismatch):
        commutator_counterexample(ctx, a, a_star, ([(1, other_a)], 1), basis)
    # the generator tables of one context, from two calls, do not mix either
    images, others = generator_images(ctx, shift=True), generator_images(ctx, shift=True)
    with pytest.raises(ContextMismatch):
        verify_structure_constants(ctx, {**images, X(1, 1): others[X(1, 1)]})


def test_hamiltonian_canonical_on_vacuum():
    for kind in (COMPLEX, REAL):
        ctx = FockContext(kind, 2, 2, 4).validate()
        spec = canonical_hamiltonian(ctx)
        assert hamiltonian_terms(ctx, spec).apply(vacuum(ctx)).is_zero()


def test_hamiltonian_single_slot():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    spec = canonical_hamiltonian(ctx)
    v = unit(ctx, (a_slot(1, 1),))
    assert hamiltonian_terms(ctx, spec).apply(v) == v


def test_hamiltonian_finite_renormalization():
    # g_1 = N + 1 with the rest canonical shifts the vacuum energy by -eps_1
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    energies = (Fraction(1), Fraction(2))
    spec = HamiltonianSpec(energies, (Fraction(ctx.N + 1), Fraction(ctx.N)))
    vac = vacuum(ctx)
    assert hamiltonian_terms(ctx, spec).apply(vac) == -1 * vac


def test_hamiltonian_validation():
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    with pytest.raises(ContextViolation):
        HamiltonianSpec((Fraction(1),), (Fraction(1),)).validate(ctx)
    with pytest.raises(ContextViolation):
        HamiltonianSpec((Fraction(2), Fraction(1)), (Fraction(0), Fraction(0))).validate(ctx)


def test_charge_values():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    charge = charge_terms(ctx)
    assert charge.apply(vacuum(ctx)).is_zero()
    one_a = unit(ctx, (a_slot(1, 1),))
    assert charge.apply(one_a) == one_a
    two_b = unit(ctx, (b_slot(1, 1), b_slot(2, 1)))
    assert charge.apply(two_b) == -2 * two_b


def test_charge_unsupported_in_real_case():
    ctx = FockContext(REAL, 1, 2, 4).validate()
    with pytest.raises(ContextViolation):
        charge_terms(ctx)


def test_charge_commutes_with_generators():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    charge = charge_terms(ctx)
    for g in generators(ctx):
        for m in basis_monomials(ctx, 2):
            v = unit(ctx, m)
            assert charge.apply(apply_generator(ctx, g, v)) == apply_generator(ctx, g, charge.apply(v))


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_grading_of_x_generators(kind):
    # [H_c, X(i,j)] = -(eps_i + eps_j) X(i,j) on the states 2 particles below P
    ctx = FockContext(kind, 2, 2, 4).validate()
    spec = canonical_hamiltonian(ctx)
    eps = spec.energies
    hamiltonian = hamiltonian_terms(ctx, spec)
    for i in range(1, 3):
        for j in range(1, 3):
            for m in basis_monomials(ctx, 2):
                v = unit(ctx, m)
                xv = apply_generator(ctx, X(i, j), v)
                lhs = hamiltonian.apply(xv) - apply_generator(ctx, X(i, j), hamiltonian.apply(v))
                assert lhs == -(eps[i - 1] + eps[j - 1]) * xv


def test_generator_adjointness():
    ctx = FockContext(COMPLEX, 2, 2, 3).validate()
    vs = [unit(ctx, m) for m in basis_monomials(ctx)]
    for g in generators(ctx):
        gd = dagger_label(g)
        gd_ws = [apply_generator(ctx, gd, w) for w in vs]
        for v in vs:
            gv = apply_generator(ctx, g, v)
            for w, gd_w in zip(vs, gd_ws):
                assert inner_product(gv, w) == inner_product(v, gd_w)


def test_operator_expr_apply_and_dagger():
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    expr = OperatorExpr.of(X(1, 1)) * OperatorExpr.of(Xstar(1, 1))
    vac = vacuum(ctx)
    # X X* |0> = [X, X*] |0> = (E+ + E-) |0> = N |0>
    assert expr.apply(ctx, vac) == vac * ctx.N
    assert expr.dagger() == OperatorExpr.of(X(1, 1)) * OperatorExpr.of(Xstar(1, 1))
    assert OperatorExpr.of(Eplus(1, 2)).dagger() == OperatorExpr.of(Eplus(2, 1))
    mixed = OperatorExpr.of(X(1, 2)) * OperatorExpr.of(Eplus(1, 2))
    assert mixed.dagger() == OperatorExpr.of(Eplus(2, 1)) * OperatorExpr.of(Xstar(1, 2))


def test_operator_expr_apply_checks_every_letter():
    # X(1,1) annihilates the vacuum, so no letter after it acts, and the
    # invalid X(5,5) must still raise
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    expr = OperatorExpr.of(X(5, 5)) * OperatorExpr.of(X(1, 1))
    with pytest.raises(ContextViolation):
        expr.apply(ctx, vacuum(ctx))
    with pytest.raises(ContextViolation):
        OperatorExpr.of(E(1, 1)).apply(ctx, zero(ctx))


def test_scalar_word_in_expr():
    ctx = FockContext(COMPLEX, 1, 1, 2).validate()
    expr = OperatorExpr({(): Fraction(3, 2)})
    assert expr.apply(ctx, vacuum(ctx)) == Fraction(3, 2) * vacuum(ctx)

from fractions import Fraction

import pytest

from bilocal.fock import (
    COMPLEX,
    REAL,
    ContextMismatch,
    ContextViolation,
    FockContext,
    FockVector,
    apply_annihilation,
    apply_creation,
    basis_monomials,
    gram_matrix,
    inner_product,
    unit,
    vacuum,
)
from bilocal.linalg import leading_principal_minors
from oracles import a_slot, b_slot


def test_vacuum_normalization():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    v = vacuum(ctx)
    assert inner_product(v, v) == 1


def test_vacuum_is_only_state_at_cutoff_zero():
    ctx = FockContext(REAL, 1, 1, 0).validate()
    assert list(basis_monomials(ctx)) == [()]
    assert apply_creation(ctx, a_slot(1, 1), vacuum(ctx)).is_zero()


def test_n_zero_context_has_no_slots():
    ctx = FockContext(COMPLEX, 0, 3, 4).validate()
    assert ctx.slots() == []
    assert list(basis_monomials(ctx)) == [()]
    with pytest.raises(ContextViolation):
        apply_creation(ctx, a_slot(1, 1), vacuum(ctx))


@pytest.mark.parametrize("fields", [(COMPLEX, 2, 2, 4.5), (COMPLEX, True, 2, 4), (REAL, 1, Fraction(2), 4)],
                         ids=["float-P", "bool-N", "fraction-M"])
def test_validate_refuses_a_non_int_size(fields):
    # a float P failed later in basis_monomials, and N = True shared the
    # lru_cache entries of N = 1
    with pytest.raises(ContextViolation, match="must be an int"):
        FockContext(*fields).validate()


def test_a_context_of_an_unknown_kind_is_refused():
    # each of these raised a raw KeyError on a context that skipped validate()
    ctx = FockContext("quaternion", 1, 1, 1)
    for call in (lambda: ctx.kind, ctx.slots, lambda: list(basis_monomials(ctx, 1))):
        with pytest.raises(ValueError, match="unknown field kind 'quaternion'"):
            call()
    with pytest.raises(ContextViolation, match="unknown field kind 'quaternion'"):
        ctx.validate()


def test_single_creation():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    v = apply_creation(ctx, a_slot(1, 1), vacuum(ctx))
    assert v == unit(ctx, (a_slot(1, 1),))


def test_creation_beyond_cutoff_drops():
    ctx = FockContext(COMPLEX, 1, 1, 1).validate()
    one = apply_creation(ctx, a_slot(1, 1), vacuum(ctx))
    assert apply_creation(ctx, a_slot(1, 1), one).is_zero()


def test_creation_mixed_species():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    v = apply_creation(ctx, b_slot(2, 1), apply_creation(ctx, a_slot(1, 1), vacuum(ctx)))
    assert v == unit(ctx, (a_slot(1, 1), b_slot(2, 1)))


def test_annihilation_on_vacuum():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    assert apply_annihilation(ctx, a_slot(1, 1), vacuum(ctx)).is_zero()


def test_annihilation_multiplicity():
    # [a, a* a*] = 2 a*, so annihilating the doubly occupied slot gives 2.
    ctx = FockContext(COMPLEX, 1, 1, 4).validate()
    s = a_slot(1, 1)
    two = unit(ctx, (s, s))
    assert apply_annihilation(ctx, s, two) == 2 * unit(ctx, (s,))


def test_annihilation_species_orthogonality():
    ctx = FockContext(COMPLEX, 1, 1, 4).validate()
    assert apply_annihilation(ctx, a_slot(1, 1), unit(ctx, (b_slot(1, 1),))).is_zero()


def test_invalid_slots_rejected():
    ctx = FockContext(REAL, 2, 2, 4).validate()
    with pytest.raises(ContextViolation):
        apply_creation(ctx, b_slot(1, 1), vacuum(ctx))
    with pytest.raises(ContextViolation):
        apply_creation(ctx, a_slot(3, 1), vacuum(ctx))
    with pytest.raises(ContextViolation):
        apply_creation(ctx, a_slot(1, 3), vacuum(ctx))


def test_inner_product_examples():
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    s = a_slot(1, 1)
    assert inner_product(unit(ctx, (s,)), unit(ctx, (s,))) == 1
    assert inner_product(unit(ctx, (s, s)), unit(ctx, (s, s))) == 2
    assert inner_product(unit(ctx, (s,)), unit(ctx, (a_slot(2, 1),))) == 0


@pytest.mark.parametrize(
    "combine",
    [inner_product, lambda v, w: v + w, lambda v, w: v - w, lambda v, w: v.plus([(1, w)])],
    ids=["inner_product", "add", "sub", "plus"],
)
def test_inner_product_context_mismatch(combine):
    c1 = FockContext(COMPLEX, 1, 2, 4)
    c2 = FockContext(COMPLEX, 2, 2, 4)
    with pytest.raises(ContextMismatch):
        combine(vacuum(c1), vacuum(c2))


@pytest.mark.parametrize("kind,N,M,P", [(COMPLEX, 1, 2, 4), (COMPLEX, 2, 2, 4), (REAL, 2, 2, 4)])
def test_ccr_exhaustive(kind, N, M, P):
    ctx = FockContext(kind, N, M, P).validate()
    slots = ctx.slots()
    for s in slots:
        for t in slots:
            for m in basis_monomials(ctx, P - 2):
                v = unit(ctx, m)
                lhs = apply_annihilation(ctx, s, apply_creation(ctx, t, v)) - apply_creation(
                    ctx, t, apply_annihilation(ctx, s, v)
                )
                assert lhs == (v if s == t else 0 * v), (s, t, m)


def test_creators_commute_and_annihilators_commute():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    slots = ctx.slots()
    for m in basis_monomials(ctx, 2):
        v = unit(ctx, m)
        for s in slots:
            for t in slots:
                assert apply_creation(ctx, s, apply_creation(ctx, t, v)) == apply_creation(
                    ctx, t, apply_creation(ctx, s, v)
                )
                assert apply_annihilation(ctx, s, apply_annihilation(ctx, t, v)) == apply_annihilation(
                    ctx, t, apply_annihilation(ctx, s, v)
                )


def test_creation_annihilation_adjoint():
    ctx = FockContext(COMPLEX, 2, 2, 3).validate()
    vs = [unit(ctx, m) for m in basis_monomials(ctx)]
    for s in ctx.slots():
        for v in vs:
            cv = apply_creation(ctx, s, v)
            for w in vs:
                assert inner_product(cv, w) == inner_product(v, apply_annihilation(ctx, s, w))


@pytest.mark.parametrize("kind,N,M,P", [(COMPLEX, 2, 2, 3), (REAL, 3, 2, 3)])
def test_gram_positive_definite(kind, N, M, P):
    ctx = FockContext(kind, N, M, P).validate()
    basis = [unit(ctx, m) for m in basis_monomials(ctx)]
    minors = leading_principal_minors(gram_matrix(basis))
    assert all(m > 0 for m in minors)


def test_inner_product_symmetric_and_bilinear():
    ctx = FockContext(COMPLEX, 2, 2, 3).validate()
    basis = [unit(ctx, m) for m in basis_monomials(ctx)]
    v = basis[0] + 2 * basis[1] - Fraction(1, 3) * basis[2]
    w = basis[3] - basis[1] + Fraction(5, 2) * basis[0]
    assert inner_product(v, w) == inner_product(w, v)
    assert inner_product(v + w, w) == inner_product(v, w) + inner_product(w, w)
    assert inner_product(Fraction(7, 3) * v, w) == Fraction(7, 3) * inner_product(v, w)


def test_vector_arithmetic_strips_zeros():
    ctx = FockContext(COMPLEX, 1, 1, 4).validate()
    v = unit(ctx, (a_slot(1, 1),))
    assert (v - v).is_zero()
    assert (Fraction(1, 2) * v + Fraction(1, 2) * v) == v
    assert len(FockVector(ctx, {(): Fraction(0)})) == 0


def test_repr_formats_only_the_six_terms_it_prints(monkeypatch):
    from bilocal import fock

    ctx = FockContext(COMPLEX, 2, 2, 2).validate()
    vectors = [vacuum(ctx) * 0] + [
        FockVector(ctx, {m: Fraction(k + 1, 2) for k, m in enumerate(reversed(list(basis_monomials(ctx, 2))[:n]))})
        for n in (1, 6, 7, 40)]
    # the repr as first written: every term formatted, the first six kept
    reference = [
        "FockVector(0)" if not v.terms else "FockVector(" + " + ".join(
            [f"{c}*{fock.monomial_str(m)}" for m, c in sorted(v.terms.items())][:6])
        + (" + ..." if len(v.terms) > 6 else "") + ")"
        for v in vectors]
    formatted = []
    monomial_str = fock.monomial_str
    monkeypatch.setattr(fock, "monomial_str", lambda m: formatted.append(m) or monomial_str(m))
    assert [repr(v) for v in vectors] == reference
    assert len(formatted) == 0 + 1 + 6 + 6 + 6

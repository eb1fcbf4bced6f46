"""The realized generators and gauge generators against per-kind reference
formulas.  The library reads the complex/real difference off
``fock.FIELD_KINDS``; the references below spell out each field kind's
oscillator bilinears by hand, so a wrong record entry (a swapped X leg, an
E kind counting the wrong species, the gauge term on the wrong species)
changes some image here.

The ladders the references are built from are copied below as first
written, not taken from the library, whose ladders and generators share
one oscillator loop, ``fock.Operator.images``: a fault there cannot
cancel out of both sides."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from bilocal.algebra import (
    EMINUS_KIND,
    X_KIND,
    XSTAR_KIND,
    apply_generator,
    generator_terms,
    generators,
)
from bilocal.fock import (
    COMPLEX,
    REAL,
    SPECIES_A,
    SPECIES_B,
    FockContext,
    FockVector,
    ModeSlot,
    Operator,
    apply_annihilation,
    apply_creation,
    basis_monomials,
    unit,
    vacuum,
    zero,
)
from bilocal.sectors import _slot_determinant
from bilocal.young import gauge_terms


def reference_creation(ctx, slot, v):
    """a*[slot] v, dropping monomials that would exceed P."""
    ctx.check_slot(slot)
    P = ctx.P
    return FockVector(ctx, {tuple(sorted(m + (slot,))): c for m, c in v.items() if len(m) < P})


def reference_annihilation(ctx, slot, v):
    """a[slot] v: one matching copy removed, weighted by its multiplicity."""
    ctx.check_slot(slot)
    out = {}
    for m, c in v.items():
        k = m.count(slot)
        if k:
            idx = m.index(slot)
            out[m[:idx] + m[idx + 1 :]] = c * k
    return FockVector(ctx, out)


def reference_generator(ctx, g, v, shift):
    """X(i,j) = sum_p b[i,p] a[j,p], Xstar(i,j) = sum_p a*[j,p] b*[i,p],
    Eplus/Eminus(i,j) = sum_p a*/b*[i,p] a/b[j,p] + (N/2) delta_ij (complex);
    X(i,j) = sum_p a[i,p] a[j,p], E(i,j) = sum_p a*[i,p] a[j,p] + (N/2) delta_ij
    (real)."""
    i, j = g.i, g.j
    out = zero(ctx)
    if g.kind == X_KIND:
        if ctx.field_kind == COMPLEX:
            for p in range(1, ctx.N + 1):
                out = out + reference_annihilation(
                    ctx, ModeSlot(SPECIES_B, i, p),
                    reference_annihilation(ctx, ModeSlot(SPECIES_A, j, p), v)
                )
        else:
            for p in range(1, ctx.N + 1):
                out = out + reference_annihilation(
                    ctx, ModeSlot(SPECIES_A, i, p),
                    reference_annihilation(ctx, ModeSlot(SPECIES_A, j, p), v)
                )
        return out
    if g.kind == XSTAR_KIND:
        if ctx.field_kind == COMPLEX:
            for p in range(1, ctx.N + 1):
                out = out + reference_creation(
                    ctx, ModeSlot(SPECIES_A, j, p),
                    reference_creation(ctx, ModeSlot(SPECIES_B, i, p), v)
                )
        else:
            for p in range(1, ctx.N + 1):
                out = out + reference_creation(
                    ctx, ModeSlot(SPECIES_A, i, p),
                    reference_creation(ctx, ModeSlot(SPECIES_A, j, p), v)
                )
        return out
    species = SPECIES_B if g.kind == EMINUS_KIND else SPECIES_A
    for p in range(1, ctx.N + 1):
        out = out + reference_creation(
            ctx, ModeSlot(species, i, p),
            reference_annihilation(ctx, ModeSlot(species, j, p), v)
        )
    if shift and i == j:
        out = out + v * Fraction(ctx.N, 2)
    return out


def reference_gauge(ctx, p, q, v):
    """E^{pq} = sum_i (a*[i,p] a[i,q] - b*[i,q] b[i,p]) (complex),
    M^{pq} = sum_i (a*[i,p] a[i,q] - a*[i,q] a[i,p]) (real)."""
    out = zero(ctx)
    for i in range(1, ctx.M + 1):
        out = out + reference_creation(
            ctx, ModeSlot(SPECIES_A, i, p),
            reference_annihilation(ctx, ModeSlot(SPECIES_A, i, q), v)
        )
        if ctx.field_kind == COMPLEX:
            out = out - reference_creation(
                ctx, ModeSlot(SPECIES_B, i, q),
                reference_annihilation(ctx, ModeSlot(SPECIES_B, i, p), v)
            )
        else:
            out = out - reference_creation(
                ctx, ModeSlot(SPECIES_A, i, q),
                reference_annihilation(ctx, ModeSlot(SPECIES_A, i, p), v)
            )
    return out


def apply_generator_unshifted(ctx, g, v):
    """g without the N/2 shift, as the drop-e-shift negative control reads
    it."""
    return generator_terms(ctx, g).body.apply(v)


def same(got, want):
    """Equal as vectors and with the same term order."""
    return got == want and list(got.items()) == list(want.items())


CONTEXTS = [(COMPLEX, 2, 2, 4), (COMPLEX, 1, 3, 4), (REAL, 2, 3, 4), (REAL, 3, 2, 4)]


@pytest.mark.parametrize("kind,N,M,P", CONTEXTS, ids=lambda x: str(x))
def test_realization_matches_reference_formulas(kind, N, M, P):
    ctx = FockContext(kind, N, M, P).validate()
    flavors = range(1, N + 1)
    for m in basis_monomials(ctx):
        v = unit(ctx, m)
        for g in generators(ctx):
            assert same(apply_generator(ctx, g, v), reference_generator(ctx, g, v, True)), (g, m)
            assert same(apply_generator_unshifted(ctx, g, v),
                        reference_generator(ctx, g, v, False)), (g, m)
        for p in flavors:
            for q in flavors:
                assert same(gauge_terms(ctx, p, q).apply(v), reference_gauge(ctx, p, q, v)), (p, q, m)


def _all_basis(ctx):
    """Every basis monomial, with distinct coefficients, as one vector."""
    return FockVector(ctx, {m: Fraction(k + 1, 3) for k, m in enumerate(basis_monomials(ctx))})


@pytest.mark.parametrize("kind,N,M,P", CONTEXTS, ids=lambda x: str(x))
def test_ladders_match_reference_copies(kind, N, M, P):
    ctx = FockContext(kind, N, M, P).validate()
    vectors = [unit(ctx, m) for m in basis_monomials(ctx)] + [_all_basis(ctx)]
    for s in ctx.slots():
        for v in vectors:
            assert same(apply_creation(ctx, s, v), reference_creation(ctx, s, v)), (s, v)
            assert same(apply_annihilation(ctx, s, v), reference_annihilation(ctx, s, v)), (s, v)


def reference_det_factor(ctx, v, species, modes, flavors):
    """det(c*[mode, flavor p]) v over the given modes and flavors as the
    signed sum over permutations of chained reference creations."""
    out = zero(ctx)
    for perm in permutations(range(len(modes))):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        piece = v
        for i, mode in enumerate(modes):
            piece = reference_creation(ctx, ModeSlot(species, mode, flavors[perm[i]]), piece)
        out = out + (-1) ** inversions * piece
    return out


@pytest.mark.parametrize("kind,N,M,P", CONTEXTS, ids=lambda x: str(x))
def test_det_factor_matches_chained_creations(kind, N, M, P):
    ctx = FockContext(kind, N, M, P).validate()
    vectors = [vacuum(ctx)] + [unit(ctx, m) for m in basis_monomials(ctx, 2)] + [_all_basis(ctx)]
    for species in ctx.kind.species:
        for height in range(1, min(N, M) + 1):
            for modes in (range(1, height + 1), range(M + 1 - height, M + 1)):
                for flavors in (list(range(1, height + 1)), list(range(N, N - height, -1))):
                    op = Operator(ctx, _slot_determinant(species, modes, flavors))
                    for v in vectors:
                        assert same(op.apply(v),
                                    reference_det_factor(ctx, v, species, modes, flavors)), \
                            (species, modes, flavors, v)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from([COMPLEX, REAL]), N=st.integers(0, 2), M=st.integers(1, 2),
       P=st.integers(0, 3))
def test_realization_matches_reference_on_drawn_contexts(kind, N, M, P):
    ctx = FockContext(kind, N, M, P).validate()
    vectors = [unit(ctx, m) for m in basis_monomials(ctx)] + [_all_basis(ctx)]
    flavors = range(1, N + 1)
    for v in vectors:
        for s in ctx.slots():
            assert same(apply_creation(ctx, s, v), reference_creation(ctx, s, v)), (s, v)
            assert same(apply_annihilation(ctx, s, v), reference_annihilation(ctx, s, v)), (s, v)
        for g in generators(ctx):
            assert same(apply_generator(ctx, g, v), reference_generator(ctx, g, v, True)), (g, v)
            assert same(apply_generator_unshifted(ctx, g, v),
                        reference_generator(ctx, g, v, False)), (g, v)
        for p in flavors:
            for q in flavors:
                assert same(gauge_terms(ctx, p, q).apply(v), reference_gauge(ctx, p, q, v)), (p, q, v)

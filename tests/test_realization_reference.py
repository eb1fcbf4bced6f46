"""The realized generators and gauge generators against per-kind reference
formulas.  The library reads the complex/real difference off
``fock.FIELD_KINDS``; the references below spell out each field kind's
oscillator bilinears by hand, so a wrong record entry (a swapped X leg, an
E kind counting the wrong species, the gauge term on the wrong species)
changes some image here."""

from fractions import Fraction

import pytest

from bilocal.algebra import (
    EMINUS_KIND,
    X_KIND,
    XSTAR_KIND,
    apply_generator,
    apply_generator_unshifted,
    generators,
)
from bilocal.fock import (
    COMPLEX,
    REAL,
    SPECIES_A,
    SPECIES_B,
    FockContext,
    ModeSlot,
    apply_annihilation,
    apply_creation,
    basis_monomials,
    unit,
    zero,
)
from bilocal.young import apply_gauge_generator


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
                out = out + apply_annihilation(
                    ctx, ModeSlot(SPECIES_B, i, p), apply_annihilation(ctx, ModeSlot(SPECIES_A, j, p), v)
                )
        else:
            for p in range(1, ctx.N + 1):
                out = out + apply_annihilation(
                    ctx, ModeSlot(SPECIES_A, i, p), apply_annihilation(ctx, ModeSlot(SPECIES_A, j, p), v)
                )
        return out
    if g.kind == XSTAR_KIND:
        if ctx.field_kind == COMPLEX:
            for p in range(1, ctx.N + 1):
                out = out + apply_creation(
                    ctx, ModeSlot(SPECIES_A, j, p), apply_creation(ctx, ModeSlot(SPECIES_B, i, p), v)
                )
        else:
            for p in range(1, ctx.N + 1):
                out = out + apply_creation(
                    ctx, ModeSlot(SPECIES_A, i, p), apply_creation(ctx, ModeSlot(SPECIES_A, j, p), v)
                )
        return out
    species = SPECIES_B if g.kind == EMINUS_KIND else SPECIES_A
    for p in range(1, ctx.N + 1):
        out = out + apply_creation(
            ctx, ModeSlot(species, i, p), apply_annihilation(ctx, ModeSlot(species, j, p), v)
        )
    if shift and i == j:
        out = out + v * Fraction(ctx.N, 2)
    return out


def reference_gauge(ctx, p, q, v):
    """E^{pq} = sum_i (a*[i,p] a[i,q] - b*[i,q] b[i,p]) (complex),
    M^{pq} = sum_i (a*[i,p] a[i,q] - a*[i,q] a[i,p]) (real)."""
    out = zero(ctx)
    for i in range(1, ctx.M + 1):
        out = out + apply_creation(
            ctx, ModeSlot(SPECIES_A, i, p), apply_annihilation(ctx, ModeSlot(SPECIES_A, i, q), v)
        )
        if ctx.field_kind == COMPLEX:
            out = out - apply_creation(
                ctx, ModeSlot(SPECIES_B, i, q), apply_annihilation(ctx, ModeSlot(SPECIES_B, i, p), v)
            )
        else:
            out = out - apply_creation(
                ctx, ModeSlot(SPECIES_A, i, q), apply_annihilation(ctx, ModeSlot(SPECIES_A, i, p), v)
            )
    return out


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
                assert same(apply_gauge_generator(ctx, p, q, v), reference_gauge(ctx, p, q, v)), (p, q, m)

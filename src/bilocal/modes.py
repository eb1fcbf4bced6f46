"""Conformal one-particle spectrum on the compactified space: spherical
harmonic counting and the oscillator normalization dictionary.

Harmonics are abstract orthonormal labels; only the degeneracy count

    h_ell = (D-2+2*ell)/(D-2+ell) * binomial(D-2+ell, D-2)

and the energy assignment eps = ell + d0, d0 = (D-2)/2, enter the rest
of the construction.  The enumeration order (by ell, then mu) is a
convention; any fixed order works.
"""

from __future__ import annotations

from itertools import count as naturals, islice
from math import comb
from numbers import Rational
from typing import NamedTuple

from . import algebra
from .algebra import HamiltonianSpec, canonical_hamiltonian, monomial_energy
from .fock import FockContext, basis_monomials, monomial_str, unit, vacuum
from .linalg import quotient


class ModeError(ValueError):
    pass


class ModeLabel(NamedTuple):
    D: int
    ell: int
    mu: int

    @property
    def d0(self) -> Rational:
        return quotient(self.D - 2, 2)

    @property
    def energy(self) -> Rational:
        return self.ell + self.d0


def _check_dimension(D: int):
    if D % 2 or D < 4:
        raise ModeError(f"spacetime dimension must be even and >= 4, got {D}")


def _check_level(D: int, ell: int):
    _check_dimension(D)
    if ell < 0:
        raise ModeError("ell must be >= 0")


def harmonic_count(D: int, ell: int) -> int:
    """Number of degree-ell spherical harmonics on S^{D-1}."""
    _check_level(D, ell)
    num = (D - 2 + 2 * ell) * comb(D - 2 + ell, D - 2)
    count, rem = divmod(num, D - 2 + ell)
    if rem:
        raise ArithmeticError("harmonic count did not divide evenly")
    return count


def _levels(D: int):
    """(ell, h_ell, ell + d0) for ell = 0, 1, ... in energy order; h_ell is
    counted only when its level is drawn."""
    d0 = quotient(D - 2, 2)
    for ell in naturals():
        yield ell, harmonic_count(D, ell), ell + d0


def enumerate_modes(D: int, count: int) -> list:
    """First ``count`` modes sorted by energy then (ell, mu), with their
    energies; deterministic."""
    _check_dimension(D)
    if count < 1:
        raise ModeError("count must be >= 1")
    modes = ((ModeLabel(D, ell, mu), energy) for ell, h, energy in _levels(D) for mu in range(1, h + 1))
    return list(islice(modes, count))


def oscillator_normalization(ell: int, D: int) -> Rational:
    """Squared rescaling (ell+d0)/d0 turning field modes into canonical
    oscillators; its product with the mode commutator coefficient
    d0/(ell+d0) is exactly 1."""
    _check_level(D, ell)
    return quotient(2 * ell + D - 2, D - 2)


def mode_ccr_coefficient(ell: int, D: int) -> Rational:
    """d0/(ell+d0), the coefficient in the raw mode commutator."""
    _check_level(D, ell)
    return quotient(D - 2, 2 * ell + D - 2)


def appendix_spectrum(ctx: FockContext, D: int) -> HamiltonianSpec:
    """Canonical Hamiltonian with the conformal energies eps = ell + d0."""
    return canonical_hamiltonian(ctx, [e for _, e in enumerate_modes(D, ctx.M)])


DIAGONAL_PARTICLES = 2


def conformal_spectrum_check(ctx: FockContext, D: int) -> dict:
    """Verify the Hamiltonian's oscillator action on the ctx.M conformal
    modes is diagonal, with eigenvalue the closed form ``monomial_energy``
    up to DIAGONAL_PARTICLES particles, and that one-particle degeneracies
    match N * h_ell per species (complete ell-levels only)."""
    spec = appendix_spectrum(ctx, D)
    hamiltonian = algebra.hamiltonian_terms(ctx, spec)
    failures = []
    checked = 0
    for m in basis_monomials(ctx, DIAGONAL_PARTICLES):
        v = unit(ctx, m)
        got = hamiltonian.apply(v)
        want = v * monomial_energy(m, spec)
        checked += 1
        if got != want:
            failures.append({"monomial": monomial_str(m), "expected": repr(want), "got": repr(got)})
    # one-particle level degeneracies, per complete harmonic level
    species_count = len(ctx.kind.species)
    degeneracies = []
    cumulative = 0
    for ell, h, energy in _levels(D):
        if cumulative + h > ctx.M:
            break
        cumulative += h
        per_species = [
            sum(
                1
                for m in basis_monomials(ctx, 1)
                if len(m) == 1 and m[0].species == sp and monomial_energy(m, spec) == energy
            )
            for sp in ctx.kind.species
        ]
        expected = ctx.N * h
        degeneracies.append({"ell": ell, "h": h, "energy": energy,
                             "per_species": per_species, "expected": expected})
        if any(x != expected for x in per_species):
            failures.append({"ell": ell, "per_species": per_species, "expected": expected})
    vac_energy = hamiltonian.apply(vacuum(ctx))
    if not vac_energy.is_zero():
        failures.append({"vacuum_energy": repr(vac_energy), "expected": "0"})
    return {
        "ok": not failures,
        "diagonal_checked": checked,
        "levels": degeneracies,
        "species": species_count,
        "failures": failures,
    }


def spectrum_table(D: int, count: int) -> list:
    """Rows (ell, h_ell, energy, cumulative modes) covering ``count`` modes."""
    _check_dimension(D)
    rows, cumulative, levels = [], 0, _levels(D)
    while cumulative < count:  # draw a level only while modes are missing
        ell, h, energy = next(levels)
        cumulative = min(cumulative + h, count)
        rows.append({"ell": ell, "h": h, "energy": energy, "cumulative": cumulative})
    return rows

"""Bilocal generators on Fock space and their abstract structure constants.

Complex case (the Lie algebra u(inf,inf)), realized with two oscillator
species:

    X(i,j)     = sum_p b[i,p] a[j,p]
    Xstar(i,j) = sum_p a*[j,p] b*[i,p]
    Eplus(i,j) = sum_p a*[i,p] a[j,p] + (N/2) delta_ij
    Eminus(i,j)= sum_p b*[i,p] b[j,p] + (N/2) delta_ij

Real case (sp(inf,R)), single species, X symmetric in its indices:

    X(i,j) = sum_p a[i,p] a[j,p],   E(i,j) = sum_p a*[i,p] a[j,p] + (N/2) delta_ij

The N/2 shift is folded into the E generators so the structure constants
are independent of N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from typing import Callable, Iterator, NamedTuple

from .fock import (
    COMPLEX,
    E_KIND,
    EMINUS_KIND,
    EPLUS_KIND,
    FIELD_KINDS,
    X_KIND,
    XSTAR_KIND,
    ContextViolation,
    FockContext,
    FockVector,
    Monomial,
    SPECIES_A,
    ModeSlot,
    apply_normal_ordered,
    basis_monomials,
    monomial_str,
    unit,
    zero,
)
from .linalg import Combination, add_scaled, canonical, quotient


class GeneratorLabel(NamedTuple):
    kind: str
    i: int
    j: int

    def __str__(self):
        return f"{self.kind}({self.i},{self.j})"


def X(i, j):
    return GeneratorLabel(X_KIND, i, j)


def Xstar(i, j):
    return GeneratorLabel(XSTAR_KIND, i, j)


def Eplus(i, j):
    return GeneratorLabel(EPLUS_KIND, i, j)


def Eminus(i, j):
    return GeneratorLabel(EMINUS_KIND, i, j)


def E(i, j):
    return GeneratorLabel(E_KIND, i, j)


def check_generator(ctx: FockContext, g: GeneratorLabel):
    if g.kind not in ctx.kind.generator_kinds:
        raise ContextViolation(f"generator kind {g.kind} invalid in {ctx.field_kind} context")
    ctx.check_mode(g.i)
    ctx.check_mode(g.j)


def generators(ctx: FockContext, max_mode=None) -> Iterator[GeneratorLabel]:
    """All generator labels with indices up to max_mode (default M)."""
    top = ctx.M if max_mode is None else max_mode
    for kind in ctx.kind.generator_kinds:
        for i in range(1, top + 1):
            for j in range(1, top + 1):
                yield GeneratorLabel(kind, i, j)


def dagger_label(g: GeneratorLabel) -> GeneratorLabel:
    """Adjoint of a single generator: X <-> Xstar (same indices), E(i,j) -> E(j,i)."""
    if g.kind == X_KIND:
        return GeneratorLabel(XSTAR_KIND, g.i, g.j)
    if g.kind == XSTAR_KIND:
        return GeneratorLabel(X_KIND, g.i, g.j)
    return GeneratorLabel(g.kind, g.j, g.i)


# ---------------------------------------------------------------------------
# realized action on Fock vectors


@lru_cache(maxsize=None)
def _generator_terms(ctx: FockContext, g: GeneratorLabel, shift: bool) -> tuple:
    """The normal-ordered terms of ``g``, built once per context and label
    (an invalid label is not cached, so it raises on every call)."""
    check_generator(ctx, g)
    i, j = g.i, g.j
    flavors = range(1, ctx.N + 1)
    if g.kind in (X_KIND, XSTAR_KIND):
        leg_i, leg_j = ctx.kind.x_legs
        legs = [(ModeSlot(leg_i, i, p), ModeSlot(leg_j, j, p)) for p in flavors]
        # X annihilates both legs, Xstar creates them
        return tuple((1, pair, ()) if g.kind == X_KIND else (1, (), pair) for pair in legs)
    # E generators: number-type bilinears plus the N/2 diagonal shift
    species = ctx.kind.e_kinds[g.kind]
    terms = [(1, (ModeSlot(species, j, p),), (ModeSlot(species, i, p),)) for p in flavors]
    if shift and i == j:
        terms.append((quotient(ctx.N, 2), (), ()))
    return tuple(terms)


def _apply_generator(ctx: FockContext, g: GeneratorLabel, v: FockVector, shift: bool) -> FockVector:
    return apply_normal_ordered(ctx, _generator_terms(ctx, g, shift), v)


def apply_generator(ctx: FockContext, g: GeneratorLabel, v: FockVector) -> FockVector:
    """Exact image of ``v`` under the realized generator ``g``."""
    return _apply_generator(ctx, g, v, shift=True)


def apply_generator_unshifted(ctx: FockContext, g: GeneratorLabel, v: FockVector) -> FockVector:
    """Deliberately wrong realization (E without the N/2 shift); negative control."""
    return _apply_generator(ctx, g, v, shift=False)


# ---------------------------------------------------------------------------
# noncommutative polynomials in generator labels


class OperatorExpr(Combination):
    """Finite rational combination of ordered generator words (tuples of
    labels).

    The empty word is the scalar 1.  In a product word the rightmost
    letter acts first.
    """

    __slots__ = ()

    @staticmethod
    def zero() -> "OperatorExpr":
        return OperatorExpr()

    @staticmethod
    def scalar(c) -> "OperatorExpr":
        return OperatorExpr({(): c})

    @staticmethod
    def of(g: GeneratorLabel, coeff=1) -> "OperatorExpr":
        return OperatorExpr({(g,): coeff})

    def __mul__(self, other):
        """Word product with another expression, else a scalar multiple."""
        if not isinstance(other, OperatorExpr):
            return Combination.__mul__(self, other)
        out = {}
        for w1, c1 in self.terms.items():
            add_scaled(out, {w1 + w2: c2 for w2, c2 in other.terms.items()}, c1)
        return OperatorExpr._wrap(canonical(out))

    def dagger(self) -> "OperatorExpr":
        """Reversed words of adjoint letters; the map is injective on words,
        so no two terms collide."""
        return OperatorExpr._wrap({tuple(dagger_label(g) for g in reversed(w)): c
                                   for w, c in self.terms.items()})

    def apply(self, ctx: FockContext, v: FockVector,
              realization: Callable = apply_generator) -> FockVector:
        pieces = []
        for w, c in self.terms.items():
            piece = v
            for g in reversed(w):
                if piece.is_zero():
                    break
                piece = realization(ctx, g, piece)
            pieces.append((c, piece))
        return zero(ctx).plus(pieces)

    def __repr__(self):
        if not self.terms:
            return "OperatorExpr(0)"
        bits = []
        for w, c in sorted(self.terms.items()):
            word = "*".join(str(g) for g in w) if w else "1"
            bits.append(f"{c}*{word}")
        return "OperatorExpr(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# abstract structure constants


def _delta(a, b) -> int:
    return 1 if a == b else 0


def _linear(terms) -> OperatorExpr:
    """The sum of coeff * kind(a, b) over the (kind, a, b, coeff) in terms."""
    return OperatorExpr().plus([(coeff, OperatorExpr.of(GeneratorLabel(kind, a, b)))
                                for kind, a, b, coeff in terms])


def abstract_commutator(g1: GeneratorLabel, g2: GeneratorLabel, field_kind: str = COMPLEX) -> OperatorExpr:
    """[g1, g2] as a degree <= 1 expression in the structure relations.

    No scalar term ever appears: the central shift lives inside the E
    generators.
    """
    for g in (g1, g2):
        if g.kind not in FIELD_KINDS[field_kind].generator_kinds:
            raise ContextViolation(f"kind {g.kind} invalid for {field_kind}")
    if field_kind == COMPLEX:
        return _commutator_complex(g1, g2)
    return _commutator_real(g1, g2)


def _commutator_complex(g1, g2) -> OperatorExpr:
    k1, i, j = g1
    k2, k, l = g2
    if k1 == k2 and k1 in (EPLUS_KIND, EMINUS_KIND):
        terms = [(k1, i, l, _delta(j, k)), (k1, k, j, -_delta(i, l))]
    elif {k1, k2} == {EPLUS_KIND, EMINUS_KIND}:
        terms = []
    elif (k1, k2) == (EPLUS_KIND, XSTAR_KIND):
        terms = [(XSTAR_KIND, k, i, _delta(j, l))]
    elif (k1, k2) == (EPLUS_KIND, X_KIND):
        terms = [(X_KIND, k, j, -_delta(i, l))]
    elif (k1, k2) == (EMINUS_KIND, XSTAR_KIND):
        terms = [(XSTAR_KIND, i, l, _delta(j, k))]
    elif (k1, k2) == (EMINUS_KIND, X_KIND):
        terms = [(X_KIND, j, l, -_delta(i, k))]
    elif (k1, k2) == (X_KIND, XSTAR_KIND):
        terms = [(EPLUS_KIND, l, j, _delta(i, k)), (EMINUS_KIND, k, i, _delta(j, l))]
    elif k1 == k2:  # [X,X] = [Xstar,Xstar] = 0
        terms = []
    else:
        return _commutator_complex(g2, g1) * -1
    return _linear(terms)


def _commutator_real(g1, g2) -> OperatorExpr:
    k1, i, j = g1
    k2, k, l = g2
    if (k1, k2) == (E_KIND, E_KIND):
        terms = [(E_KIND, i, l, _delta(j, k)), (E_KIND, k, j, -_delta(i, l))]
    elif (k1, k2) == (E_KIND, XSTAR_KIND):
        terms = [(XSTAR_KIND, i, l, _delta(j, k)), (XSTAR_KIND, k, i, _delta(j, l))]
    elif (k1, k2) == (E_KIND, X_KIND):
        terms = [(X_KIND, j, l, -_delta(i, k)), (X_KIND, k, j, -_delta(i, l))]
    elif (k1, k2) == (X_KIND, XSTAR_KIND):
        terms = [(E_KIND, l, i, _delta(j, k)), (E_KIND, k, i, _delta(j, l)),
                 (E_KIND, l, j, _delta(i, k)), (E_KIND, k, j, _delta(i, l))]
    elif k1 == k2:
        terms = []
    else:
        return _commutator_real(g2, g1) * -1
    return _linear(terms)


# ---------------------------------------------------------------------------
# verification harness


def commutator_counterexample(ctx: FockContext, a: Callable, b: Callable, c: Callable | None, basis):
    """The first basis monomial m with (ab - ba) m != c m, as the triple
    (m, (ab - ba) m, c m) of FockVectors, or None.

    a, b and c map a monomial to its image, a {monomial: coefficient} dict
    with no zero stored; the products are their linear extensions,
    ab m = sum over t of (b m)_t a t.  c = None is the zero operator."""
    for m in basis:
        lhs = {}
        for t, f in b(m).items():
            add_scaled(lhs, a(t), f)
        for t, f in a(m).items():
            add_scaled(lhs, b(t), -f)
        rhs = {} if c is None else c(m)
        if lhs != rhs:
            return m, FockVector(ctx, lhs), FockVector(ctx, rhs)
    return None


class _Table(dict):
    """{monomial: image}, each image computed on its first lookup."""

    __slots__ = ("_image",)

    def __init__(self, image: Callable):
        self._image = image

    def __missing__(self, m):
        out = self[m] = self._image(m)
        return out


class ImageCache:
    """Images of unit monomials under ``realization(ctx, label, v)``, each
    computed once and kept as the plain {monomial: coefficient} dict of the
    realized vector.

    Coefficients are canonical, so an image holds a Fraction only where
    the realization yields a true quotient, the N/2 shift of a diagonal E
    at odd N, and composing images runs on ints."""

    def __init__(self, ctx: FockContext, realization: Callable = apply_generator):
        self.ctx, self.realization, self._tables = ctx, realization, {}

    def _image(self, label, m: Monomial) -> dict:
        return self.realization(self.ctx, label, unit(self.ctx, m)).terms

    def table(self, label) -> Callable:
        """The map from a monomial to its image under ``label``."""
        images = self._tables.get(label)
        if images is None:
            images = self._tables[label] = _Table(partial(self._image, label))
        return images.__getitem__


def _expr_map(images: ImageCache, expr: OperatorExpr) -> Callable:
    """The map from a monomial to its image under a degree-one ``expr``."""
    terms = []
    for w, coeff in expr.items():
        if len(w) != 1:
            raise ValueError(f"{expr!r} is not of degree one")
        terms.append((coeff, images.table(w[0])))

    def image(m):
        out = {}
        for coeff, table in terms:
            add_scaled(out, table(m), coeff)
        return out

    return image


def verify_structure_constants(ctx: FockContext, margin: int = 2,
                               realization: Callable = apply_generator,
                               max_failures: int = 10) -> dict:
    """Check [g1,g2] against the abstract relations on every monomial with at
    most P - margin particles, for every unordered generator pair.

    A margin of 2 guarantees the truncated commutators are exact.
    """
    if margin < 2:
        raise ValueError("margin must be >= 2")
    if margin > ctx.P:
        raise ValueError(f"margin {margin} empties the basis (P = {ctx.P})")
    ctx.validate()
    basis = list(basis_monomials(ctx, ctx.P - margin))
    images = ImageCache(ctx, realization)
    failures = []
    pairs = 0
    for g1, g2 in combinations_with_replacement(sorted(set(generators(ctx))), 2):
        pairs += 1
        expected = _expr_map(images, abstract_commutator(g1, g2, ctx.field_kind))
        hit = commutator_counterexample(ctx, images.table(g1), images.table(g2), expected, basis)
        if hit:
            m, lhs, rhs = hit
            failures.append({"pair": [str(g1), str(g2)], "monomial": monomial_str(m),
                             "expected": repr(rhs), "got": repr(lhs)})
            if len(failures) >= max_failures:
                break
    return {"ok": not failures, "pairs_checked": pairs, "basis_size": len(basis), "failures": failures}


# ---------------------------------------------------------------------------
# Hamiltonians and charge


class HamiltonianSpec(NamedTuple):
    """One-particle energies (weakly increasing, positive) and vacuum
    subtractions g_i, both rational."""

    energies: tuple
    subtractions: tuple

    def validate(self, ctx: FockContext):
        if len(self.energies) < ctx.M or len(self.subtractions) < ctx.M:
            raise ContextViolation("hamiltonian spec shorter than mode cutoff")
        prev = None
        for e in self.energies:
            if e <= 0:
                raise ContextViolation("energies must be positive")
            if prev is not None and e < prev:
                raise ContextViolation("energies must be weakly increasing")
            prev = e
        return self


def canonical_hamiltonian(ctx: FockContext, energies=None) -> HamiltonianSpec:
    """The conformal choice: g_i = n0, N (complex) or N/2 (real); default
    energies are 1, 2, 3, ..."""
    if energies is None:
        energies = tuple(Fraction(i) for i in range(1, ctx.M + 1))
    else:
        energies = tuple(Fraction(e) for e in energies)
    return HamiltonianSpec(energies, (ctx.kind.n0(ctx.N),) * len(energies))


def hamiltonian_constant(ctx: FockContext, spec: HamiltonianSpec) -> Fraction:
    """The c-number part, truncated to modes <= M: sum_i eps_i (n0 - g_i)
    where n0 is the Cartan-sum vacuum eigenvalue (N complex, N/2 real)."""
    n0 = ctx.kind.n0(ctx.N)
    return sum(
        (Fraction(spec.energies[i]) * (n0 - Fraction(spec.subtractions[i])) for i in range(ctx.M)),
        Fraction(0),
    )


def monomial_energy(m: Monomial, spec: HamiltonianSpec) -> Fraction:
    return sum((Fraction(spec.energies[s.mode - 1]) for s in m), Fraction(0))


def apply_hamiltonian(ctx: FockContext, spec: HamiltonianSpec, v: FockVector) -> FockVector:
    """Diagonal action: eigenvalue = sum of slot energies + the c-number."""
    spec.validate(ctx)
    const = hamiltonian_constant(ctx, spec)
    return FockVector(ctx, {m: c * (monomial_energy(m, spec) + const) for m, c in v.items()})


def apply_charge(ctx: FockContext, v: FockVector) -> FockVector:
    """Q: (#a-slots - #b-slots) per monomial; complex contexts only."""
    if ctx.field_kind != COMPLEX:
        raise ContextViolation("no charge operator in the real case")
    out = {}
    for m, c in v.items():
        q = sum(1 if s.species == SPECIES_A else -1 for s in m)
        if q:
            out[m] = c * q
    return FockVector(ctx, out)

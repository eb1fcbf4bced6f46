"""Exact truncated bosonic Fock space for N scalar field multiplets.

States are linear combinations of occupation monomials over slots
(species, mode, flavor) with exact rational coefficients, ints where
integral (``linalg.rational``).
Monomials are *unnormalized* products of creation operators applied to
the vacuum, so every inner product is an integer-weighted sum and no
square roots ever appear:

    <m | m> = prod_s (multiplicity of slot s in m)!

Two species of oscillators exist, ``a`` and ``b``; a real (single
field) context uses only ``a``.  Creation beyond the particle cutoff P
maps to the zero vector (truncation semantics); callers that need exact
commutators must stay a margin of 2 particles below P.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement, groupby
from math import factorial
from numbers import Rational
from typing import Iterable, Iterator, NamedTuple

from .linalg import Combination, Record, canonical, quotient, rational

SPECIES_A = "a"
SPECIES_B = "b"

COMPLEX = "complex"
REAL = "real"

X_KIND = "X"
XSTAR_KIND = "Xstar"
EPLUS_KIND = "Eplus"
EMINUS_KIND = "Eminus"
E_KIND = "E"


class FieldKind(Record):
    """Everything the two bilocal field classes differ in as data.  They are
    the two instances of one dual pair: U(N) with u(inf,inf) (complex) and
    O(N) with sp(inf,R) (real).

    ``species`` are the oscillator species, ``x_legs`` the species of the i
    and j legs of X(i,j), and ``e_kinds`` maps each E kind, in generator
    order, to the species it counts.  An immutable record, one per kind,
    compared and hashed by identity.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, species: tuple, x_legs: tuple, e_kinds: dict):
        self._set(species=species, x_legs=x_legs, e_kinds=e_kinds)

    @cached_property
    def generator_kinds(self) -> tuple:
        """Cached: every generator label check reads it."""
        return (X_KIND, XSTAR_KIND) + tuple(self.e_kinds)

    @property
    def x_symmetric(self) -> bool:
        """X(i,j) = X(j,i): both legs carry the same species."""
        return self.x_legs[0] == self.x_legs[1]

    def n0(self, N) -> Rational:
        """Vacuum eigenvalue of the Cartan sum over all E kinds at one mode:
        N/2 per species."""
        return quotient(len(self.species) * N, 2)


FIELD_KINDS = {
    COMPLEX: FieldKind((SPECIES_A, SPECIES_B), (SPECIES_B, SPECIES_A),
                       {EPLUS_KIND: SPECIES_A, EMINUS_KIND: SPECIES_B}),
    REAL: FieldKind((SPECIES_A,), (SPECIES_A, SPECIES_A), {E_KIND: SPECIES_A}),
}


def field_kind_named(name: str) -> FieldKind:
    """The FieldKind of ``name``; ValueError for an unknown kind."""
    try:
        return FIELD_KINDS[name]
    except KeyError:
        raise ValueError(f"unknown field kind {name!r}") from None


class FockError(Exception):
    """Base class for Fock-space errors."""


class ContextViolation(FockError):
    """A slot or generator does not fit the context (N, M, P, kind)."""


class ContextMismatch(FockError):
    """Two vectors from different contexts were combined."""


class TruncationError(FockError):
    """The requested construction does not fit inside the cutoffs."""


class ModeSlot(NamedTuple):
    """One creation/annihilation slot.

    Field order (species, mode, flavor) is the canonical sort order used
    for monomial keys.
    """

    species: str
    mode: int
    flavor: int

    def __str__(self):
        return f"{self.species}[{self.mode},{self.flavor}]"


def a_slot(mode: int, flavor: int) -> ModeSlot:
    return ModeSlot(SPECIES_A, mode, flavor)


def b_slot(mode: int, flavor: int) -> ModeSlot:
    return ModeSlot(SPECIES_B, mode, flavor)


# A monomial is a sorted tuple of ModeSlot; the empty tuple is the vacuum.
Monomial = tuple

VACUUM_MONOMIAL: Monomial = ()


class FockContext(NamedTuple):
    """Shared truncation data: field kind, multiplet size N, mode cutoff M,
    particle cutoff P."""

    field_kind: str
    N: int
    M: int
    P: int

    def validate(self):
        if self.field_kind not in FIELD_KINDS:
            raise ContextViolation(f"unknown field kind {self.field_kind!r}")
        for name, value in zip(("N", "M", "P"), self[1:]):
            if type(value) is not int:
                raise ContextViolation(f"{name} must be an int, got {type(value).__name__} {value!r}")
        if self.N < 0:
            raise ContextViolation("multiplet size N must be >= 0")
        if self.M < 1:
            raise ContextViolation("mode cutoff M must be >= 1")
        if self.P < 0:
            raise ContextViolation("particle cutoff P must be >= 0")
        return self

    @property
    def kind(self) -> FieldKind:
        return field_kind_named(self.field_kind)

    def check_slot(self, slot: ModeSlot):
        if slot.species not in self.kind.species:
            raise ContextViolation(f"species {slot.species!r} not allowed in {self.field_kind} context")
        if not 1 <= slot.mode <= self.M:
            raise ContextViolation(f"mode {slot.mode} outside 1..{self.M}")
        if not 1 <= slot.flavor <= self.N:
            raise ContextViolation(f"flavor {slot.flavor} outside 1..{self.N}")

    def check_mode(self, i: int):
        if not 1 <= i <= self.M:
            raise ContextViolation(f"mode index {i} outside 1..{self.M}")

    def slots(self) -> list:
        """All valid slots, in canonical order."""
        return [
            ModeSlot(sp, m, f)
            for sp in self.kind.species
            for m in range(1, self.M + 1)
            for f in range(1, self.N + 1)
        ]


def monomial_str(m: Monomial) -> str:
    if not m:
        return "|0>"
    return "{" + " ".join(str(s) for s in m) + "}"


def monomial_self_overlap(m: Monomial) -> int:
    """<m|m> for an unnormalized monomial: product of multiplicity factorials."""
    out = 1
    for _, grp in groupby(m):
        out *= factorial(sum(1 for _ in grp))
    return out


class FockVector(Combination):
    """Rational combination of monomials in one context; adding vectors
    from two contexts raises ContextMismatch."""

    __slots__ = ()

    def __init__(self, ctx: FockContext, terms=None):
        Combination.__init__(self, terms, ctx)

    def _check(self, other: "FockVector"):
        if self.ctx != other.ctx:
            raise ContextMismatch(f"contexts differ: {self.ctx} vs {other.ctx}")

    def monomials(self):
        return self.terms.keys()

    def coefficient(self, m: Monomial):
        return self.terms.get(m, 0)

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        bits = [f"{c}*{monomial_str(m)}" for m, c in sorted(self.terms.items())]
        return "FockVector(" + " + ".join(bits[:6]) + (" + ..." if len(bits) > 6 else "") + ")"

    def max_particles(self) -> int:
        return max((len(m) for m in self.terms), default=0)


def zero(ctx: FockContext) -> FockVector:
    return FockVector._wrap({}, ctx)


def vacuum(ctx: FockContext) -> FockVector:
    """The state |0>, with <0|0> = 1."""
    return FockVector._wrap({VACUUM_MONOMIAL: 1}, ctx)


def unit(ctx: FockContext, m: Monomial) -> FockVector:
    return FockVector._wrap({m: 1}, ctx)


_IDENTITY = ((), ())  # the key of the scalar term: nothing removed, nothing inserted


class Operator(Combination):
    """A normal-ordered oscillator polynomial in one context, every realized
    operator: the sum of f * (creators of ins)(annihilators of rem), stored
    as {(rem, ins): f} with sorted slot tuples in first-seen order.  Built
    from (f, rem, ins) triples, so equal products merge (a sum that
    cancels is dropped, a float raises TypeError).  Mixing contexts,
    in a sum or applied to a vector, raises ContextMismatch."""

    __slots__ = ()

    def __init__(self, ctx: FockContext, terms=()):
        merged = {}
        for f, rem, ins in terms:
            key = tuple(sorted(rem)), tuple(sorted(ins))
            merged[key] = merged.get(key, 0) + f
        Combination.__init__(self, merged, ctx)

    _check = FockVector._check

    @property
    def scalar(self) -> Rational:
        """The coefficient of the identity term."""
        return self.terms.get(_IDENTITY, 0)

    @property
    def body(self) -> "Operator":
        """The operator without its identity term."""
        return Operator._wrap({k: f for k, f in self.terms.items() if k != _IDENTITY}, self.ctx)

    def images(self, inputs) -> list:
        """The images of the ``inputs``, the one oscillator loop: an input is
        a combination given by its (monomial, coefficient) pairs, iterated
        once per term (``((m, 1),)`` is the monomial m), and its image is a
        canonical {monomial: coefficient} dict, summed term by term.

        Each slot of ``rem`` removes one matching copy, weighted by its
        multiplicity (the Wick count); then ``ins`` is inserted, and
        monomials beyond the particle cutoff P are dropped.  Slots are not
        checked here.  A term is injective on monomials, so its image goes
        straight into the output by ``linalg.add_scaled``'s rule (a
        cancelled key is popped, a new one goes last), with the key order
        of the chained sums and no per-term dict.
        """
        P = self.ctx.P
        terms = self.terms.items()
        images = []
        for items in inputs:
            out = {}
            get = out.get
            for (rem, ins), f in terms:
                one = f == 1  # 1 * c would rebuild a Fraction c
                for m, c in items:
                    for s in rem:
                        k = m.count(s)
                        if not k:
                            break
                        idx = m.index(s)
                        m, c = m[:idx] + m[idx + 1 :], c if k == 1 else c * k
                    else:
                        if ins:
                            if len(m) + len(ins) > P:
                                continue
                            m = tuple(sorted(m + ins))
                        total = get(m, 0) + (c if one else f * c)
                        if total:
                            out[m] = total
                        else:
                            out.pop(m, None)
            if out:
                canonical(out)
            images.append(out)
        return images

    def apply(self, v: FockVector) -> FockVector:
        """The operator acting on ``v``: ``images`` on the one input v."""
        self._check(v)
        return FockVector._wrap(self.images((v.terms.items(),))[0], self.ctx)


def creation_terms(ctx: FockContext, slot: ModeSlot) -> Operator:
    """a*[slot]."""
    return Operator(ctx, ((1, (), (slot,)),))


def annihilation_terms(ctx: FockContext, slot: ModeSlot) -> Operator:
    """a[slot]."""
    return Operator(ctx, ((1, (slot,), ()),))


def apply_creation(ctx: FockContext, slot: ModeSlot, v: FockVector) -> FockVector:
    """Apply the creation operator for ``slot``; monomials that would exceed
    the particle cutoff P are dropped."""
    ctx.check_slot(slot)
    return creation_terms(ctx, slot).apply(v)


def apply_annihilation(ctx: FockContext, slot: ModeSlot, v: FockVector) -> FockVector:
    """Apply the annihilation operator for ``slot``, weighted by the slot's
    multiplicity in each monomial."""
    ctx.check_slot(slot)
    return annihilation_terms(ctx, slot).apply(v)


def inner_product(v1: FockVector, v2: FockVector):
    """Exact sesquilinear form induced by <0|0> = 1 and the CCR.

    Distinct monomials are orthogonal; <m|m> is the product of slot
    multiplicity factorials (all pairings of identical slots).
    """
    v1._check(v2)
    small, big = (v1, v2) if len(v1) <= len(v2) else (v2, v1)
    total = 0
    for m, c in small.items():
        c2 = big.coefficient(m)
        if c2:
            total += c * c2 * monomial_self_overlap(m)
    return rational(total)


def norm_sq(v: FockVector):
    return inner_product(v, v)


def basis_monomials(ctx: FockContext, max_particles=None) -> Iterator[Monomial]:
    """All monomials with at most ``max_particles`` slots (default: cutoff P),
    in deterministic order."""
    limit = ctx.P if max_particles is None else min(max_particles, ctx.P)
    universe = ctx.slots()
    for k in range(limit + 1):
        yield from combinations_with_replacement(universe, k)


def occupation_profile(m: Monomial, ctx: FockContext):
    """Per-species mode occupation vectors (length M each)."""
    a_occ = [0] * ctx.M
    b_occ = [0] * ctx.M
    for s in m:
        if s.species == SPECIES_A:
            a_occ[s.mode - 1] += 1
        else:
            b_occ[s.mode - 1] += 1
    return tuple(a_occ), tuple(b_occ)


def gram_matrix(vectors: Iterable[FockVector]):
    vs = list(vectors)
    return [[inner_product(v, w) for w in vs] for v in vs]

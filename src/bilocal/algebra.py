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

from functools import lru_cache
from itertools import combinations_with_replacement
from numbers import Rational
from typing import Iterator, NamedTuple

from .fock import (
    COMPLEX,
    E_KIND,
    EMINUS_KIND,
    EPLUS_KIND,
    X_KIND,
    XSTAR_KIND,
    ContextMismatch,
    ContextViolation,
    FockContext,
    FockVector,
    Monomial,
    SPECIES_A,
    ModeSlot,
    Operator,
    TruncationError,
    basis_monomials,
    field_kind_named,
    monomial_str,
    zero,
)
from .linalg import Combination, add_scaled, canonical, quotient, rational


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


def generators(ctx: FockContext) -> Iterator[GeneratorLabel]:
    """All generator labels with indices up to M."""
    for kind in ctx.kind.generator_kinds:
        for i in range(1, ctx.M + 1):
            for j in range(1, ctx.M + 1):
                yield GeneratorLabel(kind, i, j)


def lie_generating_set(ctx: FockContext) -> list:
    """Labels whose brackets span the bilocal algebra: X(1,1), Xstar(1,1)
    and, for each E kind, E(1,1), E(i,i+1) and E(i+1,i), i < M; 4M labels
    complex, 2M + 1 real.  The simple E(i,i+1), E(i+1,i) of one kind give
    its sl(M) and E(1,1) the rest of its gl(M); brackets of those with
    X(1,1) and Xstar(1,1) give every X(i,j) and Xstar(i,j)."""
    pairs = [(1, 1)] + [pair for i in range(1, ctx.M) for pair in ((i, i + 1), (i + 1, i))]
    return [X(1, 1), Xstar(1, 1)] + [GeneratorLabel(kind, i, j)
                                     for kind in ctx.kind.e_kinds for i, j in pairs]


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
def generator_terms(ctx: FockContext, g: GeneratorLabel) -> Operator:
    """The realized generator ``g``, built once per context and label (an
    invalid label is not cached, so it raises on every call)."""
    check_generator(ctx, g)
    i, j = g.i, g.j
    flavors = range(1, ctx.N + 1)
    if g.kind in (X_KIND, XSTAR_KIND):
        leg_i, leg_j = ctx.kind.x_legs
        legs = [(ModeSlot(leg_i, i, p), ModeSlot(leg_j, j, p)) for p in flavors]
        # X annihilates both legs, Xstar creates them
        return Operator(ctx, ((1, pair, ()) if g.kind == X_KIND else (1, (), pair) for pair in legs))
    # E generators: number-type bilinears plus the N/2 diagonal shift
    species = ctx.kind.e_kinds[g.kind]
    terms = [(1, (ModeSlot(species, j, p),), (ModeSlot(species, i, p),)) for p in flavors]
    if i == j:
        terms.append((quotient(ctx.N, 2), (), ()))
    return Operator(ctx, terms)


def apply_generator(ctx: FockContext, g: GeneratorLabel, v: FockVector) -> FockVector:
    """Exact image of ``v`` under the realized generator ``g``."""
    return generator_terms(ctx, g).apply(v)


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

    def apply(self, ctx: FockContext, v: FockVector) -> FockVector:
        """The expression acting on ``v``; a letter invalid in ctx raises
        ContextViolation, also where a partial image vanishes first."""
        for g in {g for w in self.terms for g in w}:
            check_generator(ctx, g)
        pieces = []
        for w, c in self.terms.items():
            piece = v
            for g in reversed(w):
                if piece.is_zero():
                    break
                piece = apply_generator(ctx, g, piece)
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
    kinds = field_kind_named(field_kind).generator_kinds
    for g in (g1, g2):
        if g.kind not in kinds:
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

# A commutator of bilinears annihilates at most two particles per term, so
# every verify identity is exact on the states this many particles below P.
EXACT_MARGIN = 2


class MonomialIndex(dict):
    """{monomial: id}, with the inverse list ``monomials``: a monomial not
    yet seen gets the next id on lookup, so ids run in first-seen order.
    The image tables of one index key their entries by these ids, so the
    scans sum and look up ints, not tuples of slots; an id means nothing
    outside its own index."""

    __slots__ = ("ctx", "monomials")

    def __init__(self, ctx: FockContext):
        super().__init__()
        self.ctx = ctx
        self.monomials = []

    def __missing__(self, m):
        i = self[m] = len(self.monomials)
        self.monomials.append(m)
        return i

    def basis(self) -> list:
        """The ids of ``basis_monomials`` up to P - EXACT_MARGIN particles, in
        its order: the one place a verify scan enumerates its basis.  An empty
        one would pass every scan, so P < EXACT_MARGIN raises TruncationError."""
        if self.ctx.P < EXACT_MARGIN:
            raise TruncationError(f"P = {self.ctx.P} leaves no state {EXACT_MARGIN} particles below P")
        return [self[m] for m in basis_monomials(self.ctx, self.ctx.P - EXACT_MARGIN)]


class _ZeroImage(dict):
    """The zero image: one empty dict, shared by every zero entry of every
    table (more than half of all entries at complex (N, M, P) = (3, 3, 5),
    where sharing cuts verify's peak RSS from 130 to 94 MiB), so each of
    its mutators raises TypeError."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("the shared zero image is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


_NO_IMAGE = _ZeroImage()


# Monomials per call of the oscillator loop in ``ImageTable.fill``.  Images
# held between the loop and their conversion to ids outlive garbage
# collections, which then scan every table: filling the structure-constant
# tables of complex (3, 3, 5) in one call per table took 1.4x as long as one
# call per monomial, and 0.89x in calls of 64 (in process, alternated).
_FILL_CHUNK = 64


class ImageTable(list):
    """The images of monomials under an operator's ``body`` (its
    ``fock.Operator`` without the identity term), by id of ``index``:
    entry i is the {id: coefficient} image of monomial i (the shared
    ``_NO_IMAGE`` when it is zero), or None until ``fill`` computes it.
    The identity coefficient (the N/2 shift of a diagonal E) is kept as
    ``scalar``: a scalar cancels from every commutator, so only the
    expected side of a structure constant adds it, and every table holds
    ints only, at every N.  An operator of another context than the index
    raises ContextMismatch."""

    __slots__ = ("index", "body", "scalar")

    def __init__(self, index: MonomialIndex, op: Operator):
        super().__init__()
        if op.ctx != index.ctx:
            raise ContextMismatch(f"operator of {op.ctx} tabled on an index of {index.ctx}")
        self.index, self.body, self.scalar = index, op.body, op.scalar

    def fill(self, ids) -> None:
        """Compute the missing entries at ``ids`` by ``Operator.images`` on
        ((m, 1),) per monomial, ``_FILL_CHUNK`` monomials per call."""
        index, monomials = self.index, self.index.monomials
        self.extend([None] * (len(monomials) - len(self)))
        missing = [i for i in ids if self[i] is None]
        for start in range(0, len(missing), _FILL_CHUNK):
            chunk = missing[start:start + _FILL_CHUNK]
            inputs = [((monomials[i], 1),) for i in chunk]
            for i, image in zip(chunk, self.body.images(inputs)):
                self[i] = {index[n]: c for n, c in image.items()} if image else _NO_IMAGE


def _one_index(tables) -> None:
    """Raise ContextMismatch unless ``tables`` share one index: ids of two
    indexes would compare unrelated monomials without any error."""
    if len({id(table.index) for table in tables}) > 1:
        raise ContextMismatch("image tables of different monomial indexes in one scan")


def fill_for(left, right, basis) -> None:
    """Fill the tables for scanning [a, b] on the ids ``basis``, for every a
    in ``left`` and b in ``right``: every table on the basis, each left
    table on the ids that the right tables' basis images reach, and each
    right table on those the left tables' reach.  Those are the entries the
    scans read when every identity holds.  A table listed twice (one table
    shared by equal operators, or one in both families) is filled on the
    basis once, and when both families are the same tables, in the same
    order, that family is filled once against itself."""
    families = [list({id(t): t for t in family}.values()) for family in (left, right)]
    if [id(t) for t in families[0]] == [id(t) for t in families[1]]:
        del families[1]
    tables = list({id(table): table for family in families for table in family}.values())
    _one_index(tables)
    for table in tables:
        table.fill(basis)
    reached = [set().union(*(table[m] for table in family for m in basis)) for family in families]
    for family, ids in zip(families, reversed(reached)):
        for table in family:
            table.fill(ids)


def commutator_counterexample(ctx: FockContext, a: ImageTable, b: ImageTable, c, basis):
    """The first m among the ids ``basis`` with (ab - ba) m != c m, as the
    triple (m, (ab - ba) m, c m) of a monomial and two FockVectors, or None.

    a and b are image tables filled for the scan (``fill_for``), and c is
    (terms, scalar): the sum of coeff * table over the (coeff, table) in
    terms plus scalar times the identity, or None, the zero operator.  All
    tables share one index (else ContextMismatch).  The products are the
    tables' linear extensions, ab m = sum over t of (b m)_t a t.  A scalar
    part of a or b cancels from ab - ba, so the tables leave it out.

    (ab - ba - c) m is summed in place into one {id: coefficient}
    accumulator per monomial, with no ``add_scaled`` call per image; only
    the returned monomial's sides are built as FockVectors."""
    terms, scalar = ((), 0) if c is None else c
    _one_index([a, b, *(table for _, table in terms)])
    for m in basis:
        acc = {}
        get = acc.get
        am, bm = a[m], b[m]
        if bm:  # a zero image is skipped: the scans measured 5-12 % slower without
            for t, f in bm.items():
                for n, x in a[t].items():
                    acc[n] = get(n, 0) + f * x
        if am:
            for t, f in am.items():
                for n, x in b[t].items():
                    acc[n] = get(n, 0) - f * x
        for coeff, table in terms:
            for n, x in table[m].items():
                acc[n] = get(n, 0) - coeff * x
        if scalar:
            acc[m] = get(m, 0) - scalar
        if any(acc.values()):
            break
    else:
        return None
    monomials = a.index.monomials

    def image(table, i):
        return {monomials[n]: x for n, x in table[i].items()}

    lhs, rhs = {}, {}
    for t, f in b[m].items():
        add_scaled(lhs, image(a, t), f)
    for t, f in a[m].items():
        add_scaled(lhs, image(b, t), -f)
    for coeff, table in terms:
        add_scaled(rhs, image(table, m), coeff)
    add_scaled(rhs, {monomials[m]: 1}, scalar)
    return monomials[m], FockVector(ctx, lhs), FockVector(ctx, rhs)


def generator_images(ctx: FockContext, shift: bool) -> dict:
    """{g: ImageTable} over ``generators(ctx)``, on one new index, with one
    table per distinct operator: labels of equal operators (the real X(i,j)
    and X(j,i), Xstar likewise) share it, so each image is computed once.
    shift=False drops the scalar terms, the N/2 shift of the diagonal E:
    the negative control of ``bilocal verify``, which changes the scalars
    and no table."""
    index, tables, images = MonomialIndex(ctx), {}, {}
    for g in generators(ctx):
        op = generator_terms(ctx, g) if shift else generator_terms(ctx, g).body
        if op not in tables:
            tables[op] = ImageTable(index, op)
        images[g] = tables[op]
    return images


def generating_set_suffices(ctx: FockContext, images: dict) -> bool:
    """Whether a commutator scan with one side on ``lie_generating_set(ctx)``
    decides every generator, on the generator tables ``images``: when P >= 4,
    so that the scan's basis reaches 2 particles and proves each identity as
    an oscillator polynomial (a commutator of bilinears has at most two
    annihilators per term), and the tables respect the labels that name one
    element.  In the real case X(i,j) = X(j,i) and Xstar(i,j) = Xstar(j,i),
    and the structure relations obey Jacobi only up to these identifications."""
    if ctx.P < EXACT_MARGIN + 2:
        return False
    if not ctx.kind.x_symmetric:
        return True
    return all(images[g].body == images[h].body and images[g].scalar == images[h].scalar
               for g in generators(ctx) if g.kind in (X_KIND, XSTAR_KIND)
               for h in [GeneratorLabel(g.kind, g.j, g.i)])


MAX_FAILURES = 10  # structure-constant failures listed before the check stops


def commutator_scan(left, right, identities, basis, limit: int, verdicts=None) -> tuple:
    """Fill the tables ``left`` and ``right`` on the ids ``basis``
    (``fill_for``), then check each identity (label, a, b, c), [a, b] = c
    with a in left, b in right and c as in ``commutator_counterexample``,
    until ``limit`` fail: (the failures, as (label, (m, lhs, rhs)), and the
    number of identities checked).  A label in the dict ``verdicts`` keeps
    the result found there, unscanned; a label scanned joins it."""
    fill_for(left, right, basis)
    failures, checked = [], 0
    for label, a, b, c in identities:
        checked += 1
        known = verdicts is not None and label in verdicts
        hit = verdicts[label] if known else commutator_counterexample(a.index.ctx, a, b, c, basis)
        if verdicts is not None:
            verdicts[label] = hit
        if hit:
            failures.append((label, hit))
            if len(failures) >= limit:
                break
    return failures, checked


def _structure_identities(ctx: FockContext, images: dict, pairs, verdicts: dict):
    """The scan identities [g1, g2] = abstract_commutator(g1, g2), labelled
    (g1, g2), for the ``pairs``; the expected side adds its terms' scalars.
    A pair in ``verdicts``, whose verdict the scan reuses, gets no expected
    side."""
    for g1, g2 in pairs:
        expected = None
        if (g1, g2) not in verdicts:
            terms = [(coeff, images[g]) for (g,), coeff in abstract_commutator(g1, g2, ctx.field_kind).items()]
            expected = terms, sum(coeff * table.scalar for coeff, table in terms)
        yield (g1, g2), images[g1], images[g2], expected


def verify_structure_constants(ctx: FockContext, images: dict) -> dict:
    """Check [g1,g2] against the abstract relations on every monomial with at
    most P - 2 particles (``MonomialIndex.basis``, where the truncated
    commutators are exact; P < 2 raises TruncationError), for every
    unordered generator pair, on the generator tables ``images`` of ctx
    (``generator_images``; tables of another context or of two indexes
    raise ContextMismatch, and keys other than ctx's generators
    ValueError).  The scalar parts enter only the expected side: they
    cancel from [g1,g2].

    When ``generating_set_suffices``, the scan first checks only the pairs
    with one side x in ``lie_generating_set`` and the other y anywhere, and
    stops at the first that fails.  That decides every pair.  Call x good
    when [rho x, rho y] = rho [x, y] for every y.  The good x form a
    subspace, closed under the bracket: for good x1 and x2, by Jacobi for
    operators and then for the relations,

        [rho [x1,x2], rho y] = [[rho x1, rho x2], rho y]
                             = [rho x1, rho [x2,y]] - [rho x2, rho [x1,y]]
                             = rho [x1,[x2,y]] - rho [x2,[x1,y]]
                             = rho [[x1,x2], y],

    and the brackets of the generating set span the algebra.  So a pass
    there is a pass on every pair, and ``pairs_checked`` counts every pair,
    the pairs the verdict covers.  Otherwise, or when that scan fails,
    every pair is scanned on the same tables, so the report, failure list
    included, is the full scan's; a pair the first scan decided keeps its
    verdict there and is not scanned again."""
    labels = set(generators(ctx.validate()))
    if images.keys() != labels:
        missing, foreign = labels - images.keys(), images.keys() - labels
        raise ValueError(f"no image table for {min(missing)}" if missing
                         else f"image tables for labels outside {ctx}: {sorted(map(str, foreign))}")
    tables = list(images.values())
    _one_index(tables)
    if tables[0].index.ctx != ctx:
        raise ContextMismatch(f"tables of {tables[0].index.ctx} checked in {ctx}")
    basis = tables[0].index.basis()
    pairs = list(combinations_with_replacement(sorted(labels), 2))
    verdicts = {}
    if generating_set_suffices(ctx, images):
        generating = lie_generating_set(ctx)
        reduced = [pair for pair in pairs if not set(pair).isdisjoint(generating)]
        if not commutator_scan([images[g] for g in generating], tables,
                               _structure_identities(ctx, images, reduced, verdicts), basis, 1, verdicts)[0]:
            return {"ok": True, "pairs_checked": len(pairs), "basis_size": len(basis), "failures": []}
    failures, checked = commutator_scan(tables, tables, _structure_identities(ctx, images, pairs, verdicts),
                                        basis, MAX_FAILURES, verdicts)
    return {"ok": not failures, "pairs_checked": checked, "basis_size": len(basis), "failures": [
        {"pair": [str(g1), str(g2)], "monomial": monomial_str(m), "expected": repr(rhs), "got": repr(lhs)}
        for (g1, g2), (m, lhs, rhs) in failures]}


# ---------------------------------------------------------------------------
# Hamiltonians and charge


class HamiltonianSpec(NamedTuple):
    """One-particle energies (weakly increasing, positive) and vacuum
    subtractions g_i, both rational."""

    energies: tuple
    subtractions: tuple

    def validate(self, ctx: FockContext):
        """Raise ContextViolation on a spec that does not fit ctx, and
        TypeError on an entry that is not exact (a float above all)."""
        if len(self.energies) < ctx.M or len(self.subtractions) < ctx.M:
            raise ContextViolation("hamiltonian spec shorter than mode cutoff")
        for x in (*self.energies, *self.subtractions):
            rational(x)
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
        energies = range(1, ctx.M + 1)
    energies = tuple(rational(e) for e in energies)
    return HamiltonianSpec(energies, (ctx.kind.n0(ctx.N),) * len(energies))


def hamiltonian_constant(ctx: FockContext, spec: HamiltonianSpec) -> Rational:
    """The c-number part, truncated to modes <= M: sum_i eps_i (n0 - g_i)
    where n0 is the Cartan-sum vacuum eigenvalue (N complex, N/2 real)."""
    n0 = ctx.kind.n0(ctx.N)
    return rational(sum(spec.energies[i] * (n0 - spec.subtractions[i]) for i in range(ctx.M)))


def monomial_energy(m: Monomial, spec: HamiltonianSpec) -> Rational:
    """The closed form of H without its c-number: the sum of slot energies."""
    return rational(sum(spec.energies[s.mode - 1] for s in m))


def hamiltonian_terms(ctx: FockContext, spec: HamiltonianSpec) -> Operator:
    """H = sum over slots of eps_mode a*a, plus the c-number; the spec is
    validated first."""
    spec.validate(ctx)
    terms = [(spec.energies[s.mode - 1], (s,), (s,)) for s in ctx.slots()]
    return Operator(ctx, terms + [(hamiltonian_constant(ctx, spec), (), ())])


def charge_terms(ctx: FockContext) -> Operator:
    """The charge Q = sum over slots of a*a - b*b, (#a-slots - #b-slots) per
    monomial; complex contexts only."""
    if ctx.field_kind != COMPLEX:
        raise ContextViolation("no charge operator in the real case")
    return Operator(ctx, ((1 if s.species == SPECIES_A else -1, (s,), (s,)) for s in ctx.slots()))

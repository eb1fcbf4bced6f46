"""Highest-weight sector machinery on the truncated Fock space.

Ground states are joint eigenvectors of the Cartan generators E(i,i)
annihilated by every X(i,j) and by the raising operators E(i,j), i < j.
Those conditions are generated by X(1,1) and the simple raising E(i,i+1)
under commutators, and none of these operators creates particles, so
kernels are solved from that generating set (2M-1 labels complex, M
real) and are exactly the kernels of the full set, which
``verify_hw_conditions`` still checks.  Complex ground states are
explicit products of slot determinants; real ones are obtained by
projecting the raw determinant product onto the joint kernel, which
realizes the traceless part without any tensor bookkeeping (trace terms
lie in the image of Xstar, hence orthogonal to the kernel).  Kernels are
solved per diagonal gauge charge, whose shards are orthogonal and which
every condition keeps; classify counts one shard per flavor orbit.  Both
facts are checked on the realized generators before they are used.

Closed-form norm and determinant recursions are evaluated here and
checked against brute-force oscillator computations elsewhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby, permutations
from math import factorial, gcd, lcm, prod
from numbers import Rational
from typing import Optional

from . import algebra, linalg
from .algebra import (
    GeneratorLabel,
    HamiltonianSpec,
    OperatorExpr,
    X,
    apply_generator,
    canonical_hamiltonian,
)
from .fock import (
    COMPLEX,
    FIELD_KINDS,
    ContextViolation,
    FockContext,
    FockVector,
    SPECIES_A,
    SPECIES_B,
    ModeSlot,
    Operator,
    TruncationError,
    field_kind_named,
    gram_matrix,
    inner_product,
    norm_sq,
    unit,
    vacuum,
    zero,
)
from .young import SectorLabel, YoungDiagram


# ---------------------------------------------------------------------------
# weights

_SIDES = {SPECIES_A: "plus", SPECIES_B: "minus"}  # the Weight head each species fills


class Weight(linalg.Record):
    """Cartan eigenvalue data: finite heads strictly above a stabilized tail.

    One head per oscillator species: plus and minus (complex), or plus with
    ``head_minus == ()`` (real).  Entries are stored in canonical form
    (``linalg.rational``); a float raises TypeError.
    """

    def __init__(self, field_kind: str, head_plus: tuple, head_minus: tuple, tail: Rational):
        field_kind_named(field_kind)  # ValueError for an unknown kind
        head_plus, head_minus = tuple(map(linalg.rational, head_plus)), tuple(map(linalg.rational, head_minus))
        self._set(field_kind=field_kind, head_plus=head_plus, head_minus=head_minus, tail=linalg.rational(tail))
        if self.tail < 0:
            raise ValueError("tail h_inf must be nonnegative")
        if head_minus != () and len(self.heads) == 1:
            raise ValueError("real weights carry a single head")
        for head in (head_plus, head_minus):
            for a, b in zip(head, head[1:]):
                if b > a:
                    raise ValueError("head not weakly decreasing")
            if head and head[-1] <= self.tail:
                raise ValueError("head values must lie strictly above the tail")
            if any((x - self.tail).denominator != 1 for x in head):
                raise ValueError("head offsets from tail must be nonnegative integers")

    @property
    def heads(self) -> tuple:
        """One head per species of the kind: (plus, minus) or (plus,)."""
        return (self.head_plus, self.head_minus)[:len(FIELD_KINDS[self.field_kind].species)]

    def component(self, i: int, side: str = "plus") -> Rational:
        """h_i, i >= 1, on side "plus" or "minus" (real minus: the tail)."""
        if i < 1:
            raise ValueError(f"weight index {i} must be >= 1")
        if side not in ("plus", "minus"):
            raise ValueError(f"weight side {side!r} is neither 'plus' nor 'minus'")
        head = self.head_minus if side == "minus" else self.head_plus
        return head[i - 1] if i <= len(head) else self.tail

    def coords(self, n: int):
        """Weight vector padded with the tail: n coordinates per species."""
        return tuple(head[i] if i < len(head) else self.tail for head in self.heads for i in range(n))


def weight_from_sector(s: SectorLabel) -> Weight:
    """Cartan data of the sector's ground state: h_i = m_i + N/2."""
    s.check_bound()
    return weight_from_profile(s.field_kind, s.N, (s.y_plus.rows, s.y_minus.rows))


def weight_from_profile(field_kind: str, N: int, profile) -> Weight:
    """Weight of a dominant occupation profile (a, b): h_i = occ_i + N/2
    per species, with the trailing tail-value entries (occupation 0)
    trimmed off the heads (so a real b, all zero, gives the empty head)."""
    half_n = linalg.quotient(N, 2)
    return Weight(field_kind, *(tuple(k + half_n for k in _trim(occ, 0)) for occ in profile), half_n)


def sector_profile(ctx: FockContext, s: SectorLabel) -> tuple:
    """The occupation profile (a, b) of the sector's ground state, in
    ``fock.occupation_profile``'s layout: the row lengths of Y+ and Y- on
    modes 1..M, b all zero for real."""
    return tuple(tuple(y.row(i) for i in range(1, ctx.M + 1)) for y in (s.y_plus, s.y_minus))


def _trim(head, tail):
    while head and head[-1] == tail:
        head = head[:-1]
    return head


# ---------------------------------------------------------------------------
# ground states


def _slot_determinant(species: str, modes, flavors) -> list:
    """det(c*[modes[i], flavors[k]]) over equally many modes and flavors, as
    the creation-only (sign, (), slots) terms of an ``Operator``."""
    terms = []
    for perm in permutations(range(len(modes))):
        slots = tuple(ModeSlot(species, mode, flavors[k]) for mode, k in zip(modes, perm))
        terms.append((_perm_sign(perm), (), slots))
    return terms


def _perm_sign(perm) -> int:
    """(-1) to the number of inversions."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def build_ground_state(ctx: FockContext, s: SectorLabel) -> FockVector:
    """Construct the sector's ground state, unnormalized with integer
    coefficients.

    Complex: the product of a-slot determinants (flavors 1..r) and b-slot
    determinants (flavors N+1-r..N), one factor per diagram column.
    Real: the raw a-determinant product projected onto the joint kernel of
    the ground-state conditions inside its occupation-profile subspace,
    scaled to content-1 integers with a positive leading coefficient.

    Built once per (ctx, s): both are hashable values and a FockVector is
    immutable by convention, so every caller shares one vector.  A call
    that raises stores nothing.
    """
    return _ground_state(ctx, s)


@lru_cache(maxsize=None)
def _ground_state(ctx: FockContext, s: SectorLabel) -> FockVector:
    if s.field_kind != ctx.field_kind or s.N != ctx.N:
        raise ContextViolation(f"sector {s} does not match context {ctx}")
    s.check_bound()
    rows = max(s.y_plus.num_rows, s.y_minus.num_rows)
    if rows > ctx.M:
        raise TruncationError(f"need mode cutoff M >= {rows}, have {ctx.M}")
    if s.total_boxes() > ctx.P:
        raise TruncationError(f"need particle cutoff P >= {s.total_boxes()}, have {ctx.P}")

    v = vacuum(ctx)
    for h in s.y_plus.column_heights():
        modes = range(1, h + 1)
        v = Operator(ctx, _slot_determinant(SPECIES_A, modes, modes)).apply(v)
    for h in s.y_minus.column_heights():
        flavors = range(ctx.N + 1 - h, ctx.N + 1)
        v = Operator(ctx, _slot_determinant(SPECIES_B, range(1, h + 1), flavors)).apply(v)
    if ctx.field_kind == COMPLEX:
        return v

    # only the shards v meets (one: every monomial of v has the same
    # occupation per flavor); the others are orthogonal to it
    labels = ground_state_generators(ctx)
    monos = profile_monomials(ctx, sector_profile(ctx, s))
    shards = _shards(ctx, monos, _keeps_charge(ctx, labels)).values()
    own = [shard for shard in shards if any(monos[j] in v.terms for j in shard)]
    kernel = _shard_kernels(ctx, labels, monos, own)
    proj = _project_onto(kernel, v)
    if proj.is_zero():
        raise TruncationError(f"no highest-weight vector for {s} in the window")
    return _canonical_integer_scale(proj)


def raisable_ground_state(ctx: FockContext, s: SectorLabel, n: int) -> FockVector:
    """The sector's ground state, with room below P for the 2n particles that
    n Xstar create (TruncationError otherwise: they would be dropped)."""
    ground = build_ground_state(ctx, s)
    if ground.max_particles() + 2 * n > ctx.P:
        raise TruncationError(f"need P >= {ground.max_particles() + 2 * n} to raise {s} by {n} Xstar")
    return ground


def _project_onto(basis, v):
    gram = gram_matrix(basis)
    rhs = [inner_product(a, v) for a in basis]
    coeffs = linalg.solve(gram, rhs)
    return zero(v.ctx).plus(zip(coeffs, basis))


def _canonical_integer_scale(v: FockVector) -> FockVector:
    items = sorted(v.items())
    denom = lcm(*(c.denominator for _, c in items))
    scale = linalg.quotient(denom, gcd(*(int(c * denom) for _, c in items)))
    if items and items[0][1] < 0:
        scale = -scale
    return v * scale


# ---------------------------------------------------------------------------
# profile subspaces and highest-weight kernels


def profile_monomials(ctx: FockContext, profile) -> list:
    """All monomials with the occupation profile (a, b)
    (``fock.occupation_profile``)."""
    groups = [(species, mode, k) for species, occ in zip((SPECIES_A, SPECIES_B), profile, strict=True)
              for mode, k in enumerate(occ, start=1) if k]
    monos = [()]
    for species, mode, k in groups:
        flavor_choices = list(combinations_with_replacement(range(1, ctx.N + 1), k))
        monos = [
            m + tuple(ModeSlot(species, mode, f) for f in choice)
            for m in monos
            for choice in flavor_choices
        ]
    return [tuple(sorted(m)) for m in monos]


def lowering_and_raising_labels(ctx: FockContext):
    """Every annihilation condition defining a ground state: all X(i,j) (only
    i <= j when X is symmetric) and the energy-raising E(i,j) with i < j.

    ``verify_hw_conditions`` checks all of them; kernels are solved from
    the generating subset ``ground_state_generators``."""
    kind, modes = ctx.kind, range(1, ctx.M + 1)
    symmetric, e_kinds = kind.x_symmetric, kind.e_kinds
    return [X(i, j) for i in modes for j in modes if i <= j or not symmetric] + [
        GeneratorLabel(e, i, j) for i in modes for j in modes if i < j for e in e_kinds]


def simple_raising_labels(ctx: FockContext, n: int) -> list:
    """The simple raising E(i,i+1), i < n, of every E kind.  Brackets
    [E(i,j), E(j,l)] = E(i,l) give every raising E(i,l), i < l <= n."""
    return [GeneratorLabel(e, i, i + 1) for i in range(1, n) for e in ctx.kind.e_kinds]


def ground_state_generators(ctx: FockContext) -> list:
    """X(1,1) and the simple raising E(i,i+1): 2M-1 labels complex, M real.

    Their brackets reach every label of ``lowering_and_raising_labels`` up
    to a nonzero scalar (complex: [E+(1,j), X(k,1)] = -X(k,j) and
    [E-(1,k), X(1,l)] = -X(k,l); real: [E(1,k), X(1,l)] = -X(k,l) -
    delta_1l X(1,k)).  A vector two operators annihilate is annihilated by
    their commutator, and none of these operators creates particles, so
    the P cutoff never enters: the joint kernel is exactly that of the
    full set, with the same free-column basis."""
    return [X(1, 1)] + simple_raising_labels(ctx, ctx.M)


def joint_kernel(ctx: FockContext, labels, vectors) -> list:
    """Basis of the combinations of ``vectors`` annihilated by every
    generator in ``labels``: one per free column of the coefficient matrix
    whose sparse rows are keyed by (label, target monomial).  Each label
    acts on all the vectors in one pass of the oscillator loop."""
    return [zero(ctx).plus((c, vectors[j]) for j, c in x.items())
            for x in _kernel_columns(ctx, labels, [v.terms.items() for v in vectors])]


def _kernel_columns(ctx: FockContext, labels, inputs) -> list:
    """``linalg.nullspace`` of ``joint_kernel``'s matrix on the
    ``Operator.images`` inputs: {input position: coefficient} dicts.  The
    generators are read off ``algebra`` at call time."""
    rows = {}
    for g in labels:
        for j, image in enumerate(algebra.generator_terms(ctx, g).images(inputs)):
            for t, c in image.items():
                rows.setdefault((g, t), {})[j] = c
    return linalg.nullspace(list(rows.values()), ncols=len(inputs))


def hw_kernel_in_profile(ctx: FockContext, profile) -> list:
    """Basis of the joint kernel of the ground-state conditions inside one
    occupation-profile subspace, solved from their generating set shard by
    shard (``_shards``), in the free-column order of the whole profile."""
    labels = ground_state_generators(ctx)
    monos = profile_monomials(ctx, profile)
    return _shard_kernels(ctx, labels, monos, _shards(ctx, monos, _keeps_charge(ctx, labels)).values())


# ---------------------------------------------------------------------------
# diagonal gauge shards
#
# The gauge group commutes with every ground-state condition, so a profile
# kernel is block diagonal over the characters of the diagonal gauge
# subgroup, and flavor permutations permute the blocks.  Neither is taken
# on trust: ``_keeps_charge`` and ``_flavor_symmetric`` read them off the
# realized terms of the labels, in time linear in the term lists, on every
# call that relies on them, and without them the profile is solved whole
# or every shard is solved.

_CHARGE_SIGN = {SPECIES_A: 1, SPECIES_B: -1}


def _gauge_charges(ctx: FockContext, tuples) -> list:
    """The diagonal gauge charge of each slot tuple: per flavor, the number
    of a slots less that of b slots, reduced mod ``FieldKind.gauge_modulus``
    when it is nonzero (the U(1)^N weight complex, the flavor parity
    real)."""
    place = {s: (s.flavor - 1, _CHARGE_SIGN[s.species]) for s in ctx.slots()}
    modulus = ctx.kind.gauge_modulus
    charges = []
    for slots in tuples:
        charge = [0] * ctx.N
        for s in slots:
            p, sign = place[s]
            charge[p] += sign
        charges.append(tuple(c % modulus for c in charge) if modulus else tuple(charge))
    return charges


def _keeps_charge(ctx: FockContext, labels) -> bool:
    """Every term of every label inserts the charge it removes, so each
    label maps a charge's monomials to monomials of that charge."""
    keys = [key for g in labels for key in algebra.generator_terms(ctx, g).terms]
    return _gauge_charges(ctx, (rem for rem, _ in keys)) == _gauge_charges(ctx, (ins for _, ins in keys))


def _swap_flavors(slots, p: int) -> tuple:
    """The slots with flavors p and p + 1 exchanged, sorted."""
    swap = {p: p + 1, p + 1: p}
    return tuple(sorted(ModeSlot(s.species, s.mode, swap.get(s.flavor, s.flavor)) for s in slots))


def _flavor_symmetric(ctx: FockContext, labels) -> bool:
    """Exchanging any two adjacent flavors maps each label's term dict to
    itself.  They generate S_N, so then every flavor permutation commutes
    with every label and maps a charge's shard onto its permuted charge's,
    kernel onto kernel."""
    for g in labels:
        terms = algebra.generator_terms(ctx, g).terms
        for p in range(1, ctx.N):
            if {(_swap_flavors(rem, p), _swap_flavors(ins, p)): f for (rem, ins), f in terms.items()} != terms:
                return False
    return True


def _shards(ctx: FockContext, monomials, sharded: bool) -> dict:
    """The positions of the monomials by diagonal gauge charge, each in
    monomial order; all of them under the key None unless ``sharded``."""
    shards = {}
    for j, charge in enumerate(_gauge_charges(ctx, monomials) if sharded else [None] * len(monomials)):
        shards.setdefault(charge, []).append(j)
    return shards


def _shard_kernels(ctx: FockContext, labels, monomials, shards) -> list:
    """The joint kernel of the labels on the monomials of the ``shards``
    (position lists), one vector per free column in monomial order: the
    union of the shards' kernels.  The reduced echelon form of a block
    diagonal matrix is the union of its blocks', and the vector of a free
    column has its other entries at pivot columns to its left, so it sorts
    by its last key."""
    columns = sorted(({shard[j]: c for j, c in x.items()} for shard in shards
                      for x in _kernel_columns(ctx, labels, [((monomials[j], 1),) for j in shard])), key=max)
    return [zero(ctx).plus((c, unit(ctx, monomials[j])) for j, c in x.items()) for x in columns]


def _profile_multiplicity(ctx: FockContext, profile, labels, sharded: bool, orbits: bool) -> int:
    """The dimension of ``hw_kernel_in_profile``, with no vector built.
    With ``orbits`` (the shards are flavor symmetric), only the shard whose
    charge decreases is solved for each S_N orbit of charges, and counted
    ``_orbit_size`` times."""
    monos = profile_monomials(ctx, profile)
    total = 0
    for charge, shard in _shards(ctx, monos, sharded).items():
        weight = _orbit_size(charge) if orbits else 1
        if weight:
            total += weight * len(_kernel_columns(ctx, labels, [((monos[j], 1),) for j in shard]))
    return total


def _orbit_size(charge: tuple) -> int:
    """The size N!/prod m_v! of the S_N orbit of a charge in decreasing
    order, m_v the number of flavors with charge v; 0 for any other charge,
    so that each orbit is counted at one representative."""
    if list(charge) != sorted(charge, reverse=True):
        return 0
    return factorial(len(charge)) // prod(factorial(len(list(run))) for _, run in groupby(charge))


# ---------------------------------------------------------------------------
# highest-weight verification


def verify_hw_conditions(ctx: FockContext, v: FockVector, expected: Weight) -> dict:
    """Exact check of the ground-state conditions against an expected weight
    of the context's field kind (ContextViolation otherwise).  Every
    condition is checked and counted; the first five that fail are listed,
    in condition order, as verify's checks list theirs."""
    if expected.field_kind != ctx.field_kind:
        raise ContextViolation(f"a {expected.field_kind} weight checked in {ctx}")
    if v.is_zero():
        raise ValueError("cannot verify the zero vector")
    failures = []
    checked = failed = 0
    for g in lowering_and_raising_labels(ctx):
        checked += 1
        img = apply_generator(ctx, g, v)
        if not img.is_zero():
            failed += 1
            if failed <= 5:
                failures.append({"condition": f"{g} v = 0", "got": repr(img)})
    for kind, species in ctx.kind.e_kinds.items():
        side = _SIDES[species]
        for i in range(1, ctx.M + 1):
            checked += 1
            g = GeneratorLabel(kind, i, i)
            img = apply_generator(ctx, g, v)
            want = v * expected.component(i, side)
            if img != want:
                failed += 1
                if failed <= 5:
                    failures.append({"condition": f"{g} v = h*v", "expected": repr(want), "got": repr(img)})
    return {"ok": not failed, "conditions_checked": checked, "failures": failures}


# ---------------------------------------------------------------------------
# closed-form norm oracles


def norm_recursion_oracle(w: Weight, kind: str, i: int, j: int, n: int = 1,
                          side: str = "plus") -> Rational:
    """Closed-form values of <h| ... |h> for the elementary raised vectors.

    recX, n = 1 only: <h| X(i,j) Xstar(i,j) |h> = (x_doubling if i = j else 1) times
    (h_i on the species of X's i leg + h_j on that of its j leg), so
    h-_i + h+_j (complex) and (1 + delta_ij)(h_i + h_j) (real).
    recE: <h| E(i,j)^n E(j,i)^n |h> = n! (h_i - h_j)(h_i - h_j - 1) ...
    down n factors, for i < j and n >= 0, on one side.
    """
    if kind == "recX":
        if n != 1:
            raise ValueError(f"recX raises by one Xstar, got n = {n}")
        w.component(1, side)  # X's legs fix the sides recX reads, so it only checks side
        doubling = field_kind_named(w.field_kind).x_doubling if i == j else 1
        return linalg.rational(doubling * _x_leg_sum(w, i, j))
    if kind == "recE":
        if i >= j:
            raise ValueError("recE needs i < j")
        if n < 0:
            raise ValueError(f"recE needs n >= 0, got {n}")
        d = w.component(i, side) - w.component(j, side)
        return linalg.rational(factorial(n) * prod(d - k for k in range(n)))
    raise ValueError(f"unknown oracle kind {kind!r}")


def null_vector_order(w: Weight, i: int, j: int, side: str = "plus") -> int:
    """Smallest n with E(j,i)^n |h> = 0 (i < j): h_i - h_j + 1."""
    if i >= j:
        raise ValueError("null_vector_order needs i < j")
    return int(w.component(i, side) - w.component(j, side)) + 1


def _x_leg_sum(w: Weight, i: int, j: int) -> Rational:
    """h_i on the species of X's i leg plus h_j on that of its j leg."""
    i_leg, j_leg = field_kind_named(w.field_kind).x_legs
    return w.component(i, _SIDES[i_leg]) + w.component(j, _SIDES[j_leg])


# ---------------------------------------------------------------------------
# determinant operators


def _check_order(n: int):
    """A determinant has order n >= 0 (n = 0 is the empty one, 1)."""
    if n < 0:
        raise ValueError(f"determinant order {n} must be >= 0")


def determinant_operator(n: int) -> OperatorExpr:
    """det(X(i,j)) over modes 1..n, expanded into n! words.

    Well defined without an ordering convention because the X(i,j)
    commute among themselves.
    """
    _check_order(n)
    return OperatorExpr({
        tuple(X(i + 1, perm[i] + 1) for i in range(n)): _perm_sign(perm)
        for perm in permutations(range(n))
    })


def adjoint_determinant_terms(ctx: FockContext, n: int, offset: int = 0) -> Operator:
    """D_n* = det(Xstar(i,j)) over modes offset+1..offset+n, creation only.
    Xstar(i,j) = sum_p c*[i,p] d*[j,p], with c and d the species of the
    legs of X, is C D^T with commuting entries, so by Cauchy-Binet D_n* is
    the sum of det(C_S) det(D_S) over the n-subsets S of the flavors.  The
    Operator merges products with the same slot multiset (in the real case
    C = D, and the permutation pairs (s, t) and (t, s) meet)."""
    _check_order(n)
    if offset < 0 or offset + n > ctx.M:
        raise ContextViolation(f"modes {offset + 1}..{offset + n} outside 1..{ctx.M}")
    modes = range(offset + 1, offset + n + 1)
    products = []
    for flavors in combinations(range(1, ctx.N + 1), n):
        c_det, d_det = (_slot_determinant(leg, modes, flavors) for leg in ctx.kind.x_legs)
        products += [(f * g, (), c + d) for f, _, c in c_det for g, _, d in d_det]
    return Operator(ctx, products)


def determinant_recursion_coefficient(w: Weight, n: int) -> Rational:
    """Closed form for X(1,1)...X(n,n) Dn* |h>: the product over m <= n of
    x_doubling (h_m on both legs' species - m + 1), so (h+_m + h-_m - m + 1)
    complex and 2(2 h_m - m + 1) real."""
    _check_order(n)
    doubling = field_kind_named(w.field_kind).x_doubling
    return linalg.rational(prod(doubling * (_x_leg_sum(w, m, m) - m + 1) for m in range(1, n + 1)))


def determinant_recursion_check(ctx: FockContext, s: SectorLabel, n: int) -> dict:
    """Brute-force the diagonal string against the adjoint determinant and
    compare with the closed-form coefficient, exactly."""
    _check_order(n)
    ground = raisable_ground_state(ctx, s, n)
    v = adjoint_determinant_terms(ctx, n).apply(ground)
    for m in range(n, 0, -1):
        v = apply_generator(ctx, X(m, m), v)
    coefficient = determinant_recursion_coefficient(weight_from_sector(s), n)
    expected = ground * coefficient
    return {
        "ok": v == expected,
        "sector": str(s),
        "n": n,
        "coefficient": coefficient,
        "lhs": repr(v),
        "expected": repr(expected),
    }


def p_polynomial_check(n: int, r: int = 0, n_values=None, field_kind: str = COMPLEX) -> dict:
    """Norms |Dn^(r)* |0>|^2 across integer N: zero below N = n, positive
    from N = n on, and a single degree-n polynomial in N (order n+1 finite
    differences vanish)."""
    _check_order(n)
    if n_values is None:
        n_values = list(range(0, n + 3))
    values = []
    for N in n_values:
        ctx = FockContext(field_kind, N, max(1, r + n), 2 * n).validate()
        d_star = adjoint_determinant_terms(ctx, n, r).apply(vacuum(ctx))
        values.append(norm_sq(d_star))
    failures = []
    for N, val in zip(n_values, values):
        if N < n and val != 0:
            failures.append({"N": N, "value": val, "expected": "zero below n"})
        if N >= n and val <= 0:
            failures.append({"N": N, "value": val, "expected": "positive at N >= n"})
    diffs = list(values)
    for _ in range(n + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if any(d != 0 for d in diffs):
        failures.append({"finite_differences": [str(d) for d in diffs],
                         "expected": f"order-{n + 1} differences vanish"})
    return {"ok": not failures, "n": n, "r": r, "N_values": list(n_values),
            "norms": values, "failures": failures}


# ---------------------------------------------------------------------------
# spectrum classification


def classify_spectrum(ctx: FockContext, energy_cutoff, spec: Optional[HamiltonianSpec] = None) -> list:
    """Enumerate ground states below the cutoff of the canonical Hamiltonian.

    Splits by occupation profile (a refinement of the energy eigenspaces,
    since the Cartan operators are diagonal on monomials) and each profile
    by diagonal gauge charge (``_shards``), and counts the joint kernel of
    the ground-state conditions shard by shard, one shard per flavor
    orbit when ``_flavor_symmetric`` holds.  Both checks run once per call.
    Returns (sector, weight, multiplicity, energy) entries.  Only the spec's
    energies are read, so an entry's energy, and the cutoff, are H's
    eigenvalue less its c-number (zero for the canonical spec).  A float
    cutoff or spec entry raises TypeError.
    """
    energy_cutoff = linalg.rational(energy_cutoff)
    if spec is None:
        spec = canonical_hamiltonian(ctx)
    spec.validate(ctx)
    energies = spec.energies[: ctx.M]
    if energies and energy_cutoff >= 0:
        max_particles = energy_cutoff // min(energies)
        if max_particles > ctx.P:
            raise TruncationError(
                f"cutoff {energy_cutoff} can reach {max_particles} particles, cutoff P = {ctx.P}"
            )
    labels = ground_state_generators(ctx)
    sharded = _keeps_charge(ctx, labels)
    orbits = sharded and _flavor_symmetric(ctx, labels)
    results = []
    for profile in _profiles_below(ctx, energies, energy_cutoff):
        multiplicity = _profile_multiplicity(ctx, profile, labels, sharded, orbits)
        if not multiplicity:
            continue
        results.append(
            {
                "sector": _profile_to_sector(ctx, profile),
                "weight": weight_from_profile(ctx.field_kind, ctx.N, profile),
                "multiplicity": multiplicity,
                "energy": linalg.rational(sum(e * (a + b) for e, a, b in zip(energies, *profile))),
            }
        )
    results.sort(key=lambda e: (e["energy"], e["weight"].coords(ctx.M)))
    return results


def _profiles_below(ctx: FockContext, energies, cutoff):
    """All occupation profiles (a, b) with total energy <= cutoff and total
    particle number <= P; b is all zero for real."""

    def occ_vectors(budget, max_total):
        vecs = [((), budget, max_total)]
        for e in energies:
            vecs = [
                (v + (k,), rem - k * e, cap - k)
                for (v, rem, cap) in vecs
                for k in range(min(rem // e, cap) + 1)
            ]
        return [(v, rem) for (v, rem, _) in vecs]

    for a_occ, rem in occ_vectors(cutoff, ctx.P):
        for b_occ, _ in occ_vectors(rem, ctx.P - sum(a_occ) if ctx.field_kind == COMPLEX else 0):
            yield a_occ, b_occ


def _profile_to_sector(ctx: FockContext, profile) -> Optional[SectorLabel]:
    """Sector label when the profile is a valid pair of diagrams, else None
    (a nonempty kernel never produces None; dominance is forced)."""
    try:
        s = SectorLabel(ctx.field_kind, ctx.N, *(YoungDiagram(_trim(occ, 0)) for occ in profile))
    except ValueError:
        return None
    return s if s.bound_violation() is None else None


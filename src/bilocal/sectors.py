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
lie in the image of Xstar, hence orthogonal to the kernel).

Closed-form norm and determinant recursions are evaluated here and
checked against brute-force oscillator computations elsewhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, gcd, lcm, prod
from numbers import Rational
from typing import Optional

from . import linalg
from .algebra import (
    EMINUS_KIND,
    GeneratorLabel,
    HamiltonianSpec,
    OperatorExpr,
    X,
    apply_generator,
    canonical_hamiltonian,
    generator_terms,
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
        """h_i, i >= 1, on one side (the tail on a real weight's minus side)."""
        if i < 1:
            raise ValueError(f"weight index {i} must be >= 1")
        head = self.head_minus if side == "minus" else self.head_plus
        return head[i - 1] if i <= len(head) else self.tail

    def coords(self, n: int):
        """Weight vector padded with the tail: n coordinates per species."""
        return tuple(head[i] if i < len(head) else self.tail for head in self.heads for i in range(n))

    def to_json(self):
        return dict(zip(("head_plus", "head_minus"), map(list, self.heads)), tail=self.tail)


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

    kernel = hw_kernel_in_profile(ctx, sector_profile(ctx, s))
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
    rows = {}
    inputs = [v.terms.items() for v in vectors]
    for g in labels:
        for j, image in enumerate(generator_terms(ctx, g).images(inputs)):
            for t, c in image.items():
                rows.setdefault((g, t), {})[j] = c
    return [zero(ctx).plus((c, vectors[j]) for j, c in x.items())
            for x in linalg.nullspace(list(rows.values()), ncols=len(vectors))]


def hw_kernel_in_profile(ctx: FockContext, profile) -> list:
    """Basis of the joint kernel of the ground-state conditions inside one
    occupation-profile subspace, solved from their generating set."""
    basis = [unit(ctx, m) for m in profile_monomials(ctx, profile)]
    return joint_kernel(ctx, ground_state_generators(ctx), basis)


# ---------------------------------------------------------------------------
# highest-weight verification


def verify_hw_conditions(ctx: FockContext, v: FockVector, expected: Weight) -> dict:
    """Exact check of the ground-state conditions against an expected weight
    of the context's field kind (ContextViolation otherwise)."""
    if expected.field_kind != ctx.field_kind:
        raise ContextViolation(f"a {expected.field_kind} weight checked in {ctx}")
    if v.is_zero():
        raise ValueError("cannot verify the zero vector")
    failures = []
    checked = 0
    for g in lowering_and_raising_labels(ctx):
        checked += 1
        img = apply_generator(ctx, g, v)
        if not img.is_zero():
            failures.append({"condition": f"{g} v = 0", "got": repr(img)})
    for kind in ctx.kind.e_kinds:
        side = "minus" if kind == EMINUS_KIND else "plus"
        for i in range(1, ctx.M + 1):
            checked += 1
            g = GeneratorLabel(kind, i, i)
            img = apply_generator(ctx, g, v)
            want = v * expected.component(i, side)
            if img != want:
                failures.append({"condition": f"{g} v = h*v", "expected": repr(want), "got": repr(img)})
    return {"ok": not failures, "conditions_checked": checked, "failures": failures}


# ---------------------------------------------------------------------------
# closed-form norm oracles


def norm_recursion_oracle(w: Weight, kind: str, i: int, j: int, n: int = 1,
                          side: str = "plus") -> Rational:
    """Closed-form values of <h| ... |h> for the elementary raised vectors.

    recX: <h| X(i,j) Xstar(i,j) |h> = h+_j + h-_i (complex); the real form
    picks up the coincident-index doubling, (1 + delta_ij)(h_i + h_j).
    recE: <h| E(i,j)^n E(j,i)^n |h> = n! (h_i - h_j)(h_i - h_j - 1) ...
    down n factors, for i < j.
    """
    if kind == "recX":
        if w.field_kind == COMPLEX:
            return linalg.rational(w.component(j, "plus") + w.component(i, "minus"))
        base = w.component(i) + w.component(j)
        return linalg.rational(base * 2 if i == j else base)
    if kind == "recE":
        if i >= j:
            raise ValueError("recE needs i < j")
        d = w.component(i, side) - w.component(j, side)
        return linalg.rational(factorial(n) * prod(d - k for k in range(n)))
    raise ValueError(f"unknown oracle kind {kind!r}")


def null_vector_order(w: Weight, i: int, j: int, side: str = "plus") -> int:
    """Smallest n with E(j,i)^n |h> = 0 (i < j): h_i - h_j + 1."""
    if i >= j:
        raise ValueError("null_vector_order needs i < j")
    return int(w.component(i, side) - w.component(j, side)) + 1


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


@lru_cache(maxsize=None)
def adjoint_determinant_terms(ctx: FockContext, n: int, offset: int = 0) -> Operator:
    """D_n* = det(Xstar(i,j)) over modes offset+1..offset+n, creation only.
    Xstar(i,j) = sum_p c*[i,p] d*[j,p], with c and d the species of the
    legs of X, is C D^T with commuting entries, so by Cauchy-Binet D_n* is
    the sum of det(C_S) det(D_S) over the n-subsets S of the flavors.  The
    Operator merges products with the same slot multiset (in the real case
    C = D, and the permutation pairs (s, t) and (t, s) meet).  Built once
    per context, order and offset; an invalid order or offset is not
    cached, so it raises on every call."""
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
    (h+_m + h-_m - m + 1), doubled per factor in the real case."""
    _check_order(n)
    out = 1
    for m in range(1, n + 1):
        if w.field_kind == COMPLEX:
            out *= w.component(m, "plus") + w.component(m, "minus") - m + 1
        else:
            out *= 2 * (2 * w.component(m) - m + 1)
    return linalg.rational(out)


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

    Shards by occupation profile (a refinement of the energy eigenspaces,
    since the Cartan operators are diagonal on monomials) and solves for
    the joint kernel of the ground-state conditions in each shard.
    Returns (sector, weight, multiplicity, energy) entries.  A float
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
    results = []
    for profile in _profiles_below(ctx, energies, energy_cutoff):
        kernel = hw_kernel_in_profile(ctx, profile)
        if not kernel:
            continue
        results.append(
            {
                "sector": _profile_to_sector(ctx, profile),
                "weight": weight_from_profile(ctx.field_kind, ctx.N, profile),
                "multiplicity": len(kernel),
                "energy": linalg.rational(sum(e * (a + b) for e, a, b in zip(energies, *profile))),
                "kernel": kernel,
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


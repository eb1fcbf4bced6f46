"""Highest-weight sector machinery on the truncated Fock space.

Ground states are joint eigenvectors of the Cartan generators E(i,i)
annihilated by every X(i,j) and by the raising operators E(i,j), i < j.
Complex ground states are explicit products of slot determinants; real
ones are obtained by projecting the raw determinant product onto the
joint kernel, which realizes the traceless part without any tensor
bookkeeping (trace terms lie in the image of Xstar, hence orthogonal to
the kernel).

Closed-form norm and determinant recursions are evaluated here and
checked against brute-force oscillator computations elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd
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
)
from .fock import (
    COMPLEX,
    REAL,
    ContextViolation,
    FockContext,
    FockVector,
    SPECIES_A,
    SPECIES_B,
    ModeSlot,
    TruncationError,
    apply_normal_ordered,
    gram_matrix,
    inner_product,
    norm_sq,
    unit,
    vacuum,
    zero,
)
from .young import SectorLabel, YoungDiagram, complex_sector, real_sector


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """Cartan eigenvalue data: finite heads strictly above a stabilized tail.

    Complex weights carry two heads (plus/minus species); real weights a
    single head stored in ``head_plus``.
    """

    field_kind: str
    head_plus: tuple
    head_minus: Optional[tuple]
    tail: Fraction

    def __post_init__(self):
        object.__setattr__(self, "head_plus", tuple(Fraction(x) for x in self.head_plus))
        if self.head_minus is not None:
            object.__setattr__(self, "head_minus", tuple(Fraction(x) for x in self.head_minus))
        object.__setattr__(self, "tail", Fraction(self.tail))
        if self.tail < 0:
            raise ValueError("tail h_inf must be nonnegative")
        for head in self._heads():
            for a, b in zip(head, head[1:]):
                if b > a:
                    raise ValueError("head not weakly decreasing")
            if head and head[-1] <= self.tail:
                raise ValueError("head values must lie strictly above the tail")
            for x in head:
                d = x - self.tail
                if d.denominator != 1 or d < 0:
                    raise ValueError("head offsets from tail must be nonnegative integers")

    def _heads(self):
        return (self.head_plus,) if self.head_minus is None else (self.head_plus, self.head_minus)

    def component(self, i: int, side: str = "plus") -> Fraction:
        """h_i on one side; a weight with a single head ignores ``side``."""
        head = self.head_plus if side == "plus" or self.head_minus is None else self.head_minus
        return head[i - 1] if i <= len(head) else self.tail

    def coords(self, n: int):
        """Weight vector padded with the tail: length 2n complex, n real."""
        if self.field_kind == COMPLEX:
            return tuple(self.component(i, "plus") for i in range(1, n + 1)) + tuple(
                self.component(i, "minus") for i in range(1, n + 1)
            )
        return tuple(self.component(i) for i in range(1, n + 1))

    def to_json(self):
        out = {"tail": self.tail, "head_plus": list(self.head_plus)}
        if self.head_minus is not None:
            out["head_minus"] = list(self.head_minus)
        return out


def weight_from_sector(s: SectorLabel) -> Weight:
    """Cartan data of the sector's ground state: h_i = m_i + N/2."""
    s.check_bound()
    half_n = Fraction(s.N, 2)
    if s.field_kind == COMPLEX:
        return Weight(
            COMPLEX,
            tuple(Fraction(r) + half_n for r in s.y_plus.rows),
            tuple(Fraction(r) + half_n for r in s.y_minus.rows),
            half_n,
        )
    return Weight(REAL, tuple(Fraction(r) + half_n for r in s.y_plus.rows), None, half_n)


def weight_from_profile(ctx: FockContext, a_occ, b_occ) -> Weight:
    """Weight of a dominant occupation profile: h_i = occ_i + N/2, with
    trailing tail-value entries trimmed off the heads."""
    half_n = Fraction(ctx.N, 2)
    a_head = _trim(tuple(Fraction(k) + half_n for k in a_occ), half_n)
    if ctx.field_kind == COMPLEX:
        b_head = _trim(tuple(Fraction(k) + half_n for k in b_occ), half_n)
        return Weight(COMPLEX, a_head, b_head, half_n)
    return Weight(REAL, a_head, None, half_n)


def _trim(head, tail):
    while head and head[-1] == tail:
        head = head[:-1]
    return head


# ---------------------------------------------------------------------------
# ground states


def _slot_determinant(ctx: FockContext, species: str, height: int, flavors) -> list:
    """det(c*[mode i, flavor p]) over modes 1..height and the given flavor
    list, as creation-only terms (sign, (), slots) of ``apply_normal_ordered``."""
    terms = []
    for perm in permutations(range(height)):
        slots = tuple(ModeSlot(species, i + 1, flavors[perm[i]]) for i in range(height))
        terms.append((_perm_sign(perm), (), slots))
    return terms


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _apply_det_factor(ctx, v, species, height, flavors):
    return apply_normal_ordered(ctx, _slot_determinant(ctx, species, height, flavors), v)


def build_ground_state(ctx: FockContext, s: SectorLabel) -> FockVector:
    """Construct the sector's ground state, unnormalized with integer
    coefficients.

    Complex: the product of a-slot determinants (flavors 1..r) and b-slot
    determinants (flavors N+1-r..N), one factor per diagram column.
    Real: the raw a-determinant product projected onto the joint kernel of
    all X(i,j) and raising E(i,j) inside its occupation-profile subspace,
    scaled to content-1 integers with a positive leading coefficient.
    """
    if s.field_kind != ctx.field_kind or s.N != ctx.N:
        raise ContextViolation(f"sector {s} does not match context {ctx}")
    s.check_bound()
    rows = max(s.y_plus.num_rows, s.y_minus.num_rows if s.y_minus else 0)
    if rows > ctx.M:
        raise TruncationError(f"need mode cutoff M >= {rows}, have {ctx.M}")
    if s.total_boxes() > ctx.P:
        raise TruncationError(f"need particle cutoff P >= {s.total_boxes()}, have {ctx.P}")

    v = vacuum(ctx)
    if ctx.field_kind == COMPLEX:
        for h in s.y_plus.column_heights():
            v = _apply_det_factor(ctx, v, SPECIES_A, h, list(range(1, h + 1)))
        for h in s.y_minus.column_heights():
            v = _apply_det_factor(ctx, v, SPECIES_B, h, list(range(ctx.N + 1 - h, ctx.N + 1)))
        return v

    for h in s.y_plus.column_heights():
        v = _apply_det_factor(ctx, v, SPECIES_A, h, list(range(1, h + 1)))
    kernel = hw_kernel_in_profile(ctx, tuple(s.y_plus.row(i) for i in range(1, ctx.M + 1)), None)
    proj = _project_onto(kernel, v)
    if proj.is_zero():
        raise TruncationError(f"no highest-weight vector for {s} in the window")
    return _canonical_integer_scale(proj)


def _project_onto(basis, v):
    gram = gram_matrix(basis)
    rhs = [inner_product(a, v) for a in basis]
    coeffs = linalg.solve(gram, rhs)
    return zero(v.ctx).plus(zip(coeffs, basis))


def _canonical_integer_scale(v: FockVector) -> FockVector:
    items = sorted(v.items())
    denom = 1
    for _, c in items:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    nums = [int(c * denom) for _, c in items]
    g = 0
    for x in nums:
        g = gcd(g, abs(x))
    scale = Fraction(denom, g)
    if items and items[0][1] < 0:
        scale = -scale
    return v * scale


# ---------------------------------------------------------------------------
# profile subspaces and highest-weight kernels


def profile_monomials(ctx: FockContext, a_occ, b_occ=None) -> list:
    """All monomials with the given per-mode occupation numbers."""
    groups = []
    for mode, k in enumerate(a_occ, start=1):
        if k:
            groups.append((SPECIES_A, mode, k))
    for mode, k in enumerate(b_occ or (), start=1):
        if k:
            groups.append((SPECIES_B, mode, k))
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
    """The annihilation conditions defining a ground state: all X(i,j) (only
    i <= j when X is symmetric) and the energy-raising E(i,j) with i < j."""
    kind, modes = ctx.kind, range(1, ctx.M + 1)
    symmetric, e_kinds = kind.x_symmetric, kind.e_kinds
    return [X(i, j) for i in modes for j in modes if i <= j or not symmetric] + [
        GeneratorLabel(e, i, j) for i in modes for j in modes if i < j for e in e_kinds]


def joint_kernel(ctx: FockContext, labels, vectors) -> list:
    """Basis of the combinations of ``vectors`` annihilated by every
    generator in ``labels``: one per free column of the coefficient matrix
    whose sparse rows are keyed by (label, target monomial)."""
    rows = {}
    for g in labels:
        for j, v in enumerate(vectors):
            for t, c in apply_generator(ctx, g, v).items():
                rows.setdefault((g, t), {})[j] = c
    return [zero(ctx).plus((c, v) for c, v in zip(cv, vectors) if c)
            for cv in linalg.nullspace(list(rows.values()), ncols=len(vectors))]


def hw_kernel_in_profile(ctx: FockContext, a_occ, b_occ) -> list:
    """Basis of the joint kernel of the ground-state conditions inside one
    occupation-profile subspace."""
    basis = [unit(ctx, m) for m in profile_monomials(ctx, a_occ, b_occ)]
    return joint_kernel(ctx, lowering_and_raising_labels(ctx), basis)


# ---------------------------------------------------------------------------
# highest-weight verification


def verify_hw_conditions(ctx: FockContext, v: FockVector, expected: Weight) -> dict:
    """Exact check of the ground-state conditions against an expected weight."""
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
                          side: str = "plus") -> Fraction:
    """Closed-form values of <h| ... |h> for the elementary raised vectors.

    recX: <h| X(i,j) Xstar(i,j) |h> = h+_j + h-_i (complex); the real form
    picks up the coincident-index doubling, (1 + delta_ij)(h_i + h_j).
    recE: <h| E(i,j)^n E(j,i)^n |h> = n! (h_i - h_j)(h_i - h_j - 1) ...
    down n factors, for i < j.
    """
    if kind == "recX":
        if w.field_kind == COMPLEX:
            return w.component(j, "plus") + w.component(i, "minus")
        base = w.component(i) + w.component(j)
        return base * 2 if i == j else base
    if kind == "recE":
        if i >= j:
            raise ValueError("recE needs i < j")
        d = w.component(i, side) - w.component(j, side)
        out = Fraction(1)
        for k in range(n):
            out *= d - k
        for k in range(1, n + 1):
            out *= k
        return out
    raise ValueError(f"unknown oracle kind {kind!r}")


def null_vector_order(w: Weight, i: int, j: int, side: str = "plus") -> int:
    """Smallest n with E(j,i)^n |h> = 0 (i < j): h_i - h_j + 1."""
    return int(w.component(i, side) - w.component(j, side)) + 1


# ---------------------------------------------------------------------------
# determinant operators


def determinant_operator(n: int, offset: int = 0, max_mode: Optional[int] = None) -> OperatorExpr:
    """det(X(i,j)) over modes offset+1 .. offset+n, expanded into n! words.

    Well defined without an ordering convention because the X(i,j)
    commute among themselves.
    """
    if max_mode is not None and offset + n > max_mode:
        raise ContextViolation(f"determinant needs modes up to {offset + n} > M = {max_mode}")
    return OperatorExpr({
        tuple(X(offset + i + 1, offset + perm[i] + 1) for i in range(n)): _perm_sign(perm)
        for perm in permutations(range(n))
    })


def determinant_recursion_coefficient(w: Weight, n: int) -> Fraction:
    """Closed form for X(1,1)...X(n,n) Dn* |h>: the product over m <= n of
    (h+_m + h-_m - m + 1), doubled per factor in the real case."""
    out = Fraction(1)
    for m in range(1, n + 1):
        if w.field_kind == COMPLEX:
            out *= w.component(m, "plus") + w.component(m, "minus") - m + 1
        else:
            out *= 2 * (2 * w.component(m) - m + 1)
    return out


def determinant_recursion_check(ctx: FockContext, s: SectorLabel, n: int) -> dict:
    """Brute-force the diagonal string against the adjoint determinant and
    compare with the closed-form coefficient, exactly."""
    ground = build_ground_state(ctx, s)
    if ground.max_particles() + 2 * n > ctx.P:
        raise TruncationError(f"need P >= {ground.max_particles() + 2 * n}")
    w = weight_from_sector(s)
    dn_star = determinant_operator(n, max_mode=ctx.M).dagger()
    v = dn_star.apply(ctx, ground)
    for m in range(n, 0, -1):
        v = apply_generator(ctx, X(m, m), v)
    expected = ground * determinant_recursion_coefficient(w, n)
    return {
        "ok": v == expected,
        "sector": str(s),
        "n": n,
        "coefficient": determinant_recursion_coefficient(w, n),
        "lhs": repr(v),
        "expected": repr(expected),
    }


def p_polynomial_check(n: int, r: int = 0, n_values=None, field_kind: str = COMPLEX) -> dict:
    """Norms |Dn^(r)* |0>|^2 across integer N: zero below N = n, positive
    from N = n on, and a single degree-n polynomial in N (order n+1 finite
    differences vanish)."""
    if n_values is None:
        n_values = list(range(0, n + 3))
    values = []
    for N in n_values:
        ctx = FockContext(field_kind, N, r + n, 2 * n).validate()
        d = determinant_operator(n, offset=r, max_mode=ctx.M).dagger()
        values.append(norm_sq(d.apply(ctx, vacuum(ctx))))
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
    Returns (sector, weight, multiplicity, energy) entries.
    """
    energy_cutoff = Fraction(energy_cutoff)
    if spec is None:
        spec = canonical_hamiltonian(ctx)
    spec.validate(ctx)
    energies = [Fraction(e) for e in spec.energies[: ctx.M]]
    if energies and energy_cutoff >= 0:
        max_particles = int(energy_cutoff / min(energies))
        if max_particles > ctx.P:
            raise TruncationError(
                f"cutoff {energy_cutoff} can reach {max_particles} particles, cutoff P = {ctx.P}"
            )
    results = []
    for a_occ, b_occ in _profiles_below(ctx, energies, energy_cutoff):
        kernel = hw_kernel_in_profile(ctx, a_occ, b_occ)
        if not kernel:
            continue
        energy = sum(
            (energies[i] * (a_occ[i] + (b_occ[i] if b_occ else 0)) for i in range(ctx.M)),
            Fraction(0),
        )
        weight = weight_from_profile(ctx, a_occ, b_occ)
        sector = _profile_to_sector(ctx, a_occ, b_occ)
        results.append(
            {
                "sector": sector,
                "weight": weight,
                "multiplicity": len(kernel),
                "energy": energy,
                "kernel": kernel,
            }
        )
    results.sort(key=lambda e: (e["energy"], e["weight"].coords(ctx.M)))
    return results


def _profiles_below(ctx: FockContext, energies, cutoff):
    """All (a_occ, b_occ) occupation profiles with total energy <= cutoff
    and total particle number <= P."""

    def occ_vectors(budget, max_total):
        vecs = [((), budget, max_total)]
        for e in energies:
            vecs = [
                (v + (k,), rem - k * e, cap - k)
                for (v, rem, cap) in vecs
                for k in range(int(min(rem / e, cap)) + 1)
            ]
        return [(v, rem) for (v, rem, _) in vecs]

    for a_occ, rem in occ_vectors(cutoff, ctx.P):
        if ctx.field_kind == REAL:
            yield a_occ, None
        else:
            for b_occ, _ in occ_vectors(rem, ctx.P - sum(a_occ)):
                yield a_occ, b_occ


def _profile_to_sector(ctx: FockContext, a_occ, b_occ) -> Optional[SectorLabel]:
    """Sector label when the profile is a valid pair of diagrams, else None
    (a nonempty kernel never produces None; dominance is forced)."""
    try:
        yp = YoungDiagram(_strip_zeros(a_occ))
        if ctx.field_kind == COMPLEX:
            ym = YoungDiagram(_strip_zeros(b_occ or ()))
            s = complex_sector(yp, ym, ctx.N)
        else:
            s = real_sector(yp, ctx.N)
    except ValueError:
        return None
    return s if s.bound_violation() is None else None


def _strip_zeros(occ):
    out = list(occ)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)

"""Quadratic Casimir operators, their eigenvalues, and the gamma identity.

For the rank-n compact subalgebra (u(n)+u(n) complex, u(n) real) and the
full subalgebra (u(n,n) / sp(2n,R)):

    C_k = sum_ij E+(i,j)E+(j,i) + E-(i,j)E-(j,i)            (complex)
    C_g = C_k - sum_ij (Xstar(i,j)X(i,j) + X(i,j)Xstar(i,j))
    C_k = sum_ij E(i,j)E(j,i)                               (real)
    C_g = C_k - (1/2) sum_ij (Xstar(i,j)X(i,j) + X(i,j)Xstar(i,j))  (1/2 = 1/x_doubling)

C_k has eigenvalue (lam+rho, lam+rho) - (rho, rho) on a compact
highest-weight vector of weight lam.  The closed form for the C_g
eigenvalue is deliberately not hard-coded: ``resolve_cg_closed_form``
measures the action on explicit ground states and reports which
candidate expression matches (the shifted-norm form minus (delta,delta)
does; see the ledger for the resolution of the printed formula).

On a compact highest-weight vector |lam> inside the module over |h>:

    (2 / x_doubling) * sum_ij <lam| Xstar(i,j) X(i,j) |lam>
        = [ (lam+delta, lam+delta) - (h+delta, h+delta) ] <lam|lam>

and gamma := (lam+delta)^2 - (h+delta)^2 must be nonnegative, which at
the canonical lam forces the unitarity bound r+ + r- <= 2 h_inf.
"""

from __future__ import annotations

from itertools import pairwise, zip_longest
from numbers import Rational
from typing import NamedTuple

from . import linalg
from .algebra import (
    GeneratorLabel,
    OperatorExpr,
    X,
    Xstar,
    apply_generator,
)
from .fock import (
    COMPLEX,
    ContextViolation,
    FockContext,
    FockVector,
    field_kind_named,
    inner_product,
    norm_sq,
    occupation_profile,
)
from .sectors import (
    Weight,
    joint_kernel,
    raisable_ground_state,
    simple_raising_labels,
    weight_from_sector,
)
from .young import SectorLabel


class WeylData(NamedTuple):
    """Rank n with the half-sum of compact positive roots (rho) and its
    noncompact shift (delta), as coordinate tuples."""

    n: int
    rho: tuple
    delta: tuple


def weyl_data(field_kind: str, n: int) -> WeylData:
    field_kind_named(field_kind)  # ValueError for an unknown kind
    _check_rank(n)
    rho = tuple(linalg.quotient(n + 1 - 2 * i, 2) for i in range(1, n + 1))
    if field_kind == COMPLEX:
        rho = rho + rho
        delta = tuple(r - linalg.quotient(n, 2) for r in rho)
    else:
        delta = tuple(-i for i in range(1, n + 1))
    return WeylData(n, rho, delta)


def _check_rank(n: int):
    """The compact subalgebra has rank n >= 1; ValueError otherwise."""
    if n < 1:
        raise ValueError(f"rank {n} must be >= 1")


def _shifted_norm(x, shift=()) -> Rational:
    """(x + shift, x + shift) in the orthonormal e-basis; no shift is zero."""
    return sum((a + b) ** 2 for a, b in zip_longest(x, shift, fillvalue=0))


def _read_lambda(lam, field_kind: str, n: int, *, dominant: bool = False) -> tuple:
    """lam as canonical rationals (TypeError for a float): n >= 1 coordinates
    per species, 2n complex and n real, and, if ``dominant``, each species'
    block weakly decreasing; ValueError otherwise."""
    _check_rank(n)
    blocks = len(field_kind_named(field_kind).species)
    lam = tuple(map(linalg.rational, lam))
    if len(lam) != blocks * n:
        raise ValueError(f"weight length {len(lam)} != {blocks * n}")
    if dominant and any(b > a for k in range(blocks) for a, b in pairwise(lam[k * n:(k + 1) * n])):
        raise ValueError(f"{lam} is not dominant for the compact subalgebra")
    return lam


# ---------------------------------------------------------------------------
# operators


def casimir_k(n: int, field_kind: str = COMPLEX) -> OperatorExpr:
    """The words E(i,j)E(j,i) of every E kind, i and j in 1..n."""
    _check_rank(n)
    rng, e_kinds = range(1, n + 1), field_kind_named(field_kind).e_kinds
    return OperatorExpr({(GeneratorLabel(kind, i, j), GeneratorLabel(kind, j, i)): 1
                         for i in rng for j in rng for kind in e_kinds})


def casimir_g(n: int, field_kind: str = COMPLEX) -> OperatorExpr:
    """C_k's words, then Xstar(i,j)X(i,j) and X(i,j)Xstar(i,j) for i and j
    in 1..n, each with coefficient -1/x_doubling."""
    coupling = linalg.quotient(1, field_kind_named(field_kind).x_doubling)
    rng = range(1, n + 1)
    cross = {word: -coupling for i in rng for j in rng
             for word in ((Xstar(i, j), X(i, j)), (X(i, j), Xstar(i, j)))}
    return OperatorExpr({**casimir_k(n, field_kind).terms, **cross})


def casimir_k_eigenvalue(lam, n: int, field_kind: str = COMPLEX) -> Rational:
    """(lam+rho, lam+rho) - (rho, rho) in the orthonormal e-basis."""
    rho = weyl_data(field_kind, n).rho
    lam = _read_lambda(lam, field_kind, n)
    return linalg.rational(_shifted_norm(lam, rho) - _shifted_norm(rho))


def gamma_value(h: Weight, lam, n: int) -> Rational:
    """(lam+delta, lam+delta) - (h+delta, h+delta).  lam must be dominant,
    with 2n coordinates (complex) or n (real); ValueError otherwise."""
    delta = weyl_data(h.field_kind, n).delta
    lam = _read_lambda(lam, h.field_kind, n, dominant=True)
    return linalg.rational(_shifted_norm(lam, delta) - _shifted_norm(h.coords(n), delta))


def canonical_lambda(s: SectorLabel, n: int):
    """The first Pieri summand: h + e+_{r+ + 1} + e-_{r- + 1} (complex) or
    h + e_{r+1} + e_{s+1} (real); the second e is in the last species' block."""
    h = weight_from_sector(s)
    first, second = s.bound_heights()
    if max(first, second) + 1 > n:
        raise ValueError(f"need n >= {max(first, second) + 1}")
    coords = list(h.coords(n))
    coords[first] += 1
    coords[(len(h.heads) - 1) * n + second] += 1
    return tuple(coords)


def gamma_closed_form(s: SectorLabel) -> int:
    """2(2 h_inf - r+ - r-), with r, s the first two column heights in the
    real normalization (``SectorLabel.bound_heights``)."""
    return 2 * (s.N - sum(s.bound_heights()))


# ---------------------------------------------------------------------------
# compact modules and the gamma identity


def compact_module(ctx: FockContext, ground: FockVector, n: int, *, targets) -> dict:
    """Span closure of the ground state under the lowering E(i,j), j < i <= n,
    toward the occupation profiles ``targets``, organized as occupation
    profile (``fock.occupation_profile``) -> list of vectors.  Finite
    because E preserves particle number.

    The input must be annihilated by every simple raising E(i,i+1), i < n,
    hence by every raising E(i,j), i < j <= n (ValueError otherwise); then
    U(k)|ground> = U(n-)|ground> (PBW), so lowering alone reaches the whole
    module.  E(i,j) moves one particle of one species from mode j to mode
    i, so all monomials of a vector share one profile and the key is exact.
    The zero vector spans no module (ValueError).

    The closure keeps only vectors whose profile can still reach a
    target.  A lowering moves a particle to a higher mode, so a profile on
    a path to a target dominates it: per species, each prefix sum of its occupations over modes 1..m is at least
    the target's.  A vector failing that for every target is skipped, and
    so would be all its descendants; the blocks kept hold the same vectors,
    in the same order, as those of the full closure.  A lowering is not
    applied at all when the profile it would give is skipped, or when its
    source mode is empty (the image is zero)."""
    if ground.is_zero():
        raise ValueError("the zero vector spans no module")
    for g in simple_raising_labels(ctx, n):
        if not apply_generator(ctx, g, ground).is_zero():
            raise ValueError(f"{g} does not annihilate the input vector")
    species = ctx.kind.species
    lowering = [(GeneratorLabel(kind, i, j), species.index(sp), i - 1, j - 1)
                for kind, sp in ctx.kind.e_kinds.items()
                for i in range(1, n + 1) for j in range(1, i)]
    blocks, spans, queue = {}, {}, []
    bounds = [_prefix_sums(t) for t in targets]

    def add(v, key):
        if spans.setdefault(key, linalg.RowSpan()).add(v.terms):
            blocks.setdefault(key, []).append(v)
            queue.append((v, key))

    def kept(key):
        sums = _prefix_sums(key)
        return any(all(a >= b for a, b in zip(sums, t)) for t in bounds)

    key = occupation_profile(next(iter(ground.monomials())), ctx)
    if kept(key):
        add(ground, key)
    while queue:
        v, key = queue.pop()
        for g, sp, i, j in lowering:
            if not key[sp][j]:
                continue
            moved = list(key[sp])
            moved[i], moved[j] = moved[i] + 1, moved[j] - 1
            image_key = key[:sp] + (tuple(moved),) + key[sp + 1:]
            if kept(image_key):
                img = apply_generator(ctx, g, v)
                if not img.is_zero():
                    add(img, image_key)
    return blocks


def _prefix_sums(profile) -> tuple:
    """Occupations summed over modes 1..m, every m, species after species."""
    return tuple(sum(occ[:m]) for occ in profile for m in range(1, len(occ) + 1))


def hw_vectors_at_weight(ctx: FockContext, ground: FockVector, n: int, lam) -> list:
    """Compact highest-weight vectors of weight lam inside the level-one
    raised subspace Xstar * (compact module of the ground state).

    lam has n coordinates per species (2n complex, n real; ValueError
    otherwise, TypeError for a float) and h_i = occupation + N/2, so its
    occupation profile is lam_i - N/2 on the first n modes of each species
    and zero above.  Xstar(k,l) creates one particle at mode k of the
    i-leg species and one at mode l of the j-leg species, so it raises
    exactly the compact-module block whose profile lacks those two.  The
    module is closed only toward those n^2 profiles.  n > ctx.M raises
    ContextViolation."""
    if n > ctx.M:
        raise ContextViolation(f"rank {n} exceeds mode cutoff {ctx.M}")
    lam = _read_lambda(lam, ctx.field_kind, n)
    half_n, species = linalg.quotient(ctx.N, 2), ctx.kind.species
    target = [[0] * ctx.M, [0] * ctx.M]  # occupation_profile's (a, b) layout
    for i, x in enumerate(lam):
        target[i // n][i % n] = linalg.rational(x - half_n)
    needs = {}
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            need = [list(occ) for occ in target]
            for sp, mode in zip(ctx.kind.x_legs, (k, l)):
                need[species.index(sp)][mode - 1] -= 1
            needs[k, l] = tuple(map(tuple, need))
    blocks = compact_module(ctx, ground, n, targets=list(needs.values()))
    raised = []
    span = linalg.RowSpan()
    for (k, l), need in needs.items():
        for u in blocks.get(need, ()):
            v = apply_generator(ctx, Xstar(k, l), u)
            if span.add(v.terms):
                raised.append(v)
    # E preserves particle number, so the simple E(i,i+1) cut out the same
    # kernel as every raising E(i,j), i < j <= n
    return joint_kernel(ctx, simple_raising_labels(ctx, n), raised)


def verify_gamma_identity(ctx: FockContext, s: SectorLabel, n: int) -> dict:
    """Exact check of the Casimir-difference identity at the canonical lam.

    When no nonzero highest-weight vector of weight lam exists in the
    window, the identity degenerates: that happens exactly when the
    candidate vector is null, i.e. gamma = 0.
    """
    if n > ctx.M:
        raise ContextViolation(f"rank {n} exceeds mode cutoff {ctx.M}")
    ground = raisable_ground_state(ctx, s, 1)
    h = weight_from_sector(s)
    lam = canonical_lambda(s, n)
    gamma = gamma_value(h, lam, n)
    closed = gamma_closed_form(s)
    vectors = hw_vectors_at_weight(ctx, ground, n, lam)
    factor = linalg.quotient(2, ctx.kind.x_doubling)
    if not vectors:
        ok = gamma == 0 and closed == 0
        return {
            "ok": ok,
            "sector": str(s),
            "n": n,
            "gamma": gamma,
            "gamma_closed_form": closed,
            "case": "null_vector" if ok else "no_vector_found",
            "checked_vectors": 0,
        }
    failures, rng = [], range(1, n + 1)
    for v in vectors:
        lhs = factor * sum(norm_sq(apply_generator(ctx, X(i, j), v)) for i in rng for j in rng)
        rhs = gamma * norm_sq(v)
        if lhs != rhs:
            failures.append({"lhs": lhs, "rhs": rhs})
    if gamma != closed:
        failures.append({"gamma": gamma, "closed_form": closed})
    return {
        "ok": not failures,
        "sector": str(s),
        "n": n,
        "gamma": gamma,
        "gamma_closed_form": closed,
        "case": "identity",
        "checked_vectors": len(vectors),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# C_g eigenvalue: oracle resolution


def cg_eigenvalue_oracle(ctx: FockContext, s: SectorLabel, n: int):
    """Measured C_g eigenvalue on the sector's ground state (raises if the
    action is not an exact multiple of the state)."""
    ground = raisable_ground_state(ctx, s, 1)
    img = casimir_g(n, ctx.field_kind).apply(ctx, ground)
    value = linalg.quotient(inner_product(ground, img), norm_sq(ground))
    if img != ground * value:
        raise ArithmeticError(f"C_g does not act as a scalar on {s}")
    return value


def cg_candidate_shifted_delta(h: Weight, n: int) -> Rational:
    """(h+delta, h+delta) - (delta, delta)."""
    delta = weyl_data(h.field_kind, n).delta
    return linalg.rational(_shifted_norm(h.coords(n), delta) - _shifted_norm(delta))


def cg_candidate_printed(h: Weight, n: int) -> Rational:
    """(h+delta, h+delta) - (h, h): the formula with the ambiguous second
    term read as the plain weight norm."""
    delta = weyl_data(h.field_kind, n).delta
    return linalg.rational(_shifted_norm(h.coords(n), delta) - _shifted_norm(h.coords(n)))


# resolve_cg_closed_form's verdict by (shifted-delta matches, printed matches)
_CG_VERDICTS = {
    (True, False): "(h+delta,h+delta) - (delta,delta)",
    (False, True): "(h+delta,h+delta) - (h,h)",
    (True, True): "indistinguishable on these cases",
    (False, False): "neither candidate matches",
}


def resolve_cg_closed_form(cases) -> dict:
    """Compare both closed-form candidates against the measured eigenvalue
    on every supplied (ctx, sector, n) case and report the verdict."""
    rows = []
    delta_ok = printed_ok = True
    for ctx, s, n in cases:
        measured = cg_eigenvalue_oracle(ctx, s, n)
        h = weight_from_sector(s)
        cand_delta = cg_candidate_shifted_delta(h, n)
        cand_printed = cg_candidate_printed(h, n)
        delta_ok &= cand_delta == measured
        printed_ok &= cand_printed == measured
        rows.append(
            {
                "sector": str(s),
                "field_kind": ctx.field_kind,
                "n": n,
                "measured": measured,
                "shifted_minus_delta_sq": cand_delta,
                "shifted_minus_weight_sq": cand_printed,
            }
        )
    return {"ok": delta_ok, "verdict": _CG_VERDICTS[delta_ok, printed_ok], "cases": rows}


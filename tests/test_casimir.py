from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bilocal import casimir
from bilocal.algebra import (
    Eminus,
    Eplus,
    GeneratorLabel,
    OperatorExpr,
    X,
    Xstar,
    abstract_commutator,
    apply_generator,
)
from bilocal.casimir import (
    canonical_lambda,
    casimir_g,
    casimir_k,
    casimir_k_eigenvalue,
    cg_candidate_printed,
    cg_candidate_shifted_delta,
    cg_eigenvalue_oracle,
    gamma_closed_form,
    gamma_value,
    hw_vectors_at_weight,
    resolve_cg_closed_form,
    verify_gamma_identity,
    weyl_data,
)
from bilocal.fock import (
    COMPLEX,
    REAL,
    ContextViolation,
    FockContext,
    TruncationError,
    basis_monomials,
    field_kind_named,
    occupation_profile,
    unit,
    zero,
)
from bilocal.linalg import RowSpan
from bilocal.sectors import build_ground_state, joint_kernel, weight_from_sector
from bilocal.young import EMPTY, SectorLabel, complex_sector, enumerate_sectors, real_sector
from oracles import diagram, vacuum_sector


def test_casimir_k_n1_shape():
    ck = casimir_k(1, COMPLEX)
    want = OperatorExpr.of(Eplus(1, 1)) * OperatorExpr.of(Eplus(1, 1)) + OperatorExpr.of(
        Eminus(1, 1)
    ) * OperatorExpr.of(Eminus(1, 1))
    assert ck == want


def test_casimir_g_n1_shape():
    cg = casimir_g(1, COMPLEX)
    want = (
        casimir_k(1, COMPLEX)
        - OperatorExpr.of(Xstar(1, 1)) * OperatorExpr.of(X(1, 1))
        - OperatorExpr.of(X(1, 1)) * OperatorExpr.of(Xstar(1, 1))
    )
    assert cg == want


def test_difference_identity_operationally():
    # C_k - C_g applied = 2 sum X*X + n * sum(E+_ii + E-_ii) applied; at
    # n = 1 the Cartan sum carries no rank factor.
    for n, N in ((1, 1), (2, 2)):
        ctx = FockContext(COMPLEX, N, n, 4).validate()
        diff = casimir_k(n, COMPLEX) - casimir_g(n, COMPLEX)
        rhs = OperatorExpr()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                rhs = rhs + 2 * (OperatorExpr.of(Xstar(i, j)) * OperatorExpr.of(X(i, j)))
        cartan = OperatorExpr()
        for i in range(1, n + 1):
            cartan = cartan + OperatorExpr.of(Eplus(i, i)) + OperatorExpr.of(Eminus(i, i))
        rhs = rhs + n * cartan
        for m in basis_monomials(ctx, ctx.P - 2):
            v = unit(ctx, m)
            assert diff.apply(ctx, v) == rhs.apply(ctx, v), m


def test_weyl_data_values():
    data = weyl_data(COMPLEX, 2)
    assert data.rho == (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))
    assert data.delta == (Fraction(-1, 2), Fraction(-3, 2), Fraction(-1, 2), Fraction(-3, 2))
    rdata = weyl_data(REAL, 3)
    assert rdata.delta == (Fraction(-1), Fraction(-2), Fraction(-3))


def test_casimir_k_eigenvalue_zero_weight():
    assert casimir_k_eigenvalue((0, 0, 0, 0), 2, COMPLEX) == 0


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_casimir_k_matches_action_on_ground_states(kind):
    for N in (1, 2, 3):
        for s in enumerate_sectors(kind, N, 2):
            if s.total_boxes() > 2:
                continue
            rows = max(s.y_plus.num_rows, s.y_minus.num_rows)
            for n in range(max(rows, 1), 4):
                ctx = FockContext(kind, N, max(n, 2), s.total_boxes() + 2).validate()
                ground = build_ground_state(ctx, s)
                lam = weight_from_sector(s).coords(n)
                ev = casimir_k_eigenvalue(lam, n, kind)
                got = casimir_k(n, kind).apply(ctx, ground)
                assert got == ground * ev, (str(s), n)


def test_casimir_g_scalar_on_ground_state_and_oracle_resolution():
    cases = []
    for kind, N, rows_p, rows_m, n in [
        (COMPLEX, 1, (), (), 1),
        (COMPLEX, 2, (), (), 2),
        (COMPLEX, 2, (1,), (), 2),
        (COMPLEX, 3, (1, 1), (), 3),
        (REAL, 1, (), (), 1),
        (REAL, 2, (), (), 2),
        (REAL, 2, (1,), (), 2),
        (REAL, 3, (2, 1), (), 3),
    ]:
        s = (
            complex_sector(diagram(*rows_p), diagram(*rows_m), N)
            if kind == COMPLEX
            else real_sector(diagram(*rows_p), N)
        )
        ctx = FockContext(kind, N, max(n, 2), s.total_boxes() + 4).validate()
        cases.append((ctx, s, n))
    report = resolve_cg_closed_form(cases)
    # the shifted-norm-minus-(delta,delta) form matches the measured action;
    # the plain-weight-norm reading does not
    assert report["ok"]
    assert report["verdict"] == "(h+delta,h+delta) - (delta,delta)"
    mismatch = [
        r for r in report["cases"] if r["shifted_minus_weight_sq"] != r["measured"]
    ]
    assert mismatch, "the ambiguous reading should fail somewhere"


def test_cg_candidates_disagree_on_vacuum_n2():
    w = weight_from_sector(vacuum_sector(COMPLEX, 2))
    assert cg_candidate_shifted_delta(w, 2) == -4
    assert cg_candidate_printed(w, 2) == -3
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    assert cg_eigenvalue_oracle(ctx, vacuum_sector(COMPLEX, 2), 2) == -4


def test_gamma_values_and_closed_form():
    s = vacuum_sector(COMPLEX, 2)
    h = weight_from_sector(s)
    lam = canonical_lambda(s, 2)
    assert gamma_value(h, lam, 2) == 4 == gamma_closed_form(s)

    s = complex_sector(diagram(1), EMPTY, 2)
    assert gamma_value(weight_from_sector(s), canonical_lambda(s, 2), 2) == 2 == gamma_closed_form(s)

    # saturated sector: r+ + r- = N gives gamma = 0
    s = complex_sector(diagram(1), diagram(1), 2)
    assert gamma_closed_form(s) == 0
    assert gamma_value(weight_from_sector(s), canonical_lambda(s, 3), 3) == 0


def test_gamma_closed_form_all_small_sectors():
    for kind in (COMPLEX, REAL):
        for N in (1, 2, 3):
            for s in enumerate_sectors(kind, N, 3):
                rows = max(s.y_plus.num_rows, s.y_minus.num_rows)
                n = rows + 1
                h = weight_from_sector(s)
                assert gamma_value(h, canonical_lambda(s, n), n) == gamma_closed_form(s), str(s)
                assert gamma_closed_form(s) >= 0


def test_gamma_dominance_guard():
    h = weight_from_sector(vacuum_sector(COMPLEX, 2))
    with pytest.raises(ValueError):
        gamma_value(h, (1, 2, 1, 1), 2)


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_weight_length_guard(kind):
    """lam has 2n coordinates (complex) or n (real): a shorter one was
    truncated by zip, and a longer one filled the unused profile row or
    raised IndexError."""
    N = n = 2
    s = SectorLabel(kind, N, diagram(1))
    ctx = FockContext(kind, N, n, s.total_boxes() + 2).validate()
    h, lam, ground = weight_from_sector(s), canonical_lambda(s, n), build_ground_state(ctx, s)
    assert len(lam) == len(ctx.kind.species) * n
    gamma_value(h, lam, n)
    hw_vectors_at_weight(ctx, ground, n, lam)
    for bad in (lam[:-1], lam + (lam[-1],), lam + (lam[-1],) * n):
        with pytest.raises(ValueError, match="length"):
            gamma_value(h, bad, n)
        with pytest.raises(ValueError, match="length"):
            hw_vectors_at_weight(ctx, ground, n, bad)


@pytest.mark.parametrize(
    "kind,N,rows,n",
    [
        pytest.param(COMPLEX, 1, None, 2, id="complex-1-None"),
        pytest.param(COMPLEX, 2, None, 2, id="complex-2-None"),
        pytest.param(COMPLEX, 2, (1,), 2, id="complex-2-rows2"),
        pytest.param(REAL, 1, None, 2, id="real-1-None"),
        pytest.param(REAL, 2, None, 2, id="real-2-None"),
        pytest.param(REAL, 2, (1,), 2, id="real-2-rows5"),
        # rank below the mode cutoff: lambda's occupation profile is zero above mode n
        pytest.param(COMPLEX, 2, None, 1, id="complex-2-None-n1"),
    ],
)
def test_verify_gamma_identity(kind, N, rows, n):
    if kind == COMPLEX:
        s = vacuum_sector(COMPLEX, N) if rows is None else complex_sector(diagram(*rows), EMPTY, N)
    else:
        s = vacuum_sector(REAL, N) if rows is None else real_sector(diagram(*rows), N)
    ctx = FockContext(kind, N, 2, s.total_boxes() + 4).validate()
    report = verify_gamma_identity(ctx, s, n)
    assert report["ok"], report
    assert report["gamma"] == report["gamma_closed_form"]


def test_verify_gamma_identity_two_sided_and_rank_three():
    ctx = FockContext(COMPLEX, 3, 2, 8).validate()
    r = verify_gamma_identity(ctx, complex_sector(diagram(1), diagram(1), 3), 2)
    assert r["ok"] and r["gamma"] == 2 and r["case"] == "identity"
    ctx3 = FockContext(COMPLEX, 2, 3, 8).validate()
    r = verify_gamma_identity(ctx3, vacuum_sector(COMPLEX, 2), 3)
    assert r["ok"] and r["gamma"] == 4 and r["case"] == "identity"
    # second-column saturation: real [2] at N=2 has r = s = 1
    rctx = FockContext(REAL, 2, 2, 8).validate()
    r = verify_gamma_identity(rctx, real_sector(diagram(2), 2), 2)
    assert r["ok"] and r["gamma"] == 0 and r["case"] == "null_vector"


def test_verify_gamma_identity_null_boundary():
    # real one-box sector at N=1 saturates the bound: the canonical raised
    # vector is null, so it vanishes identically in Fock space
    ctx = FockContext(REAL, 1, 2, 6).validate()
    report = verify_gamma_identity(ctx, real_sector(diagram(1), 1), 2)
    assert report["ok"] and report["case"] == "null_vector" and report["gamma"] == 0


@pytest.mark.parametrize("kind, N, P",
                         [(COMPLEX, 2, 1), (COMPLEX, 2, 2), (REAL, 3, 1), (REAL, 3, 2)])
def test_gamma_identity_needs_room_for_one_xstar(kind, N, P):
    # Xstar creates two particles; past P they would be dropped and the
    # identity would report a false counterexample (no_vector_found)
    s = SectorLabel(kind, N, diagram(1))
    ctx = FockContext(kind, N, 2, P).validate()
    with pytest.raises(TruncationError, match="need P >= 3"):
        verify_gamma_identity(ctx, s, 2)
    with pytest.raises(TruncationError, match="need P >= 3"):
        cg_eigenvalue_oracle(ctx, s, 2)
    report = verify_gamma_identity(FockContext(kind, N, 2, 3).validate(), s, 2)
    assert report["ok"] and report["case"] == "identity"


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_zero_input_spans_no_module(kind):
    ctx = FockContext(kind, 2, 2, 4).validate()
    lam = canonical_lambda(vacuum_sector(kind, 2), 2)
    with pytest.raises(ValueError, match="zero vector"):
        casimir.compact_module(ctx, zero(ctx), 2, targets=_target_profiles(ctx, 2, lam))
    with pytest.raises(ValueError, match="zero vector"):
        hw_vectors_at_weight(ctx, zero(ctx), 2, lam)


def test_unitarity_bound():
    assert complex_sector(diagram(1), diagram(1), 2).bound_violation() is None
    assert complex_sector(diagram(1, 1), diagram(1), 2).bound_violation() == "r+ + r- = 2+1 > N = 2"
    assert real_sector(diagram(1, 1), 2).bound_violation() is None
    assert real_sector(diagram(2, 2), 3).bound_violation() == "r + s = 2+2 > N = 3"


def reference_vector_weight(ctx, v, n):
    """h_i = occupation + N/2 on the first n modes, one block per species."""
    m = next(iter(v.monomials()))
    return tuple(Fraction(ctx.N, 2) + sum(1 for s in m if s.species == sp and s.mode == i)
                 for sp in ctx.kind.species for i in range(1, n + 1))


def reference_compact_module(ctx, ground, n):
    """Span closure of the ground state under every E(i,j), i != j <= n,
    raising and lowering, keyed by Fraction weights on the first n modes."""
    labels = [GeneratorLabel(kind, i, j) for kind in ctx.kind.e_kinds
              for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    wt0 = reference_vector_weight(ctx, ground, n)
    blocks, spans, queue = {wt0: [ground]}, {wt0: RowSpan()}, [ground]
    spans[wt0].add(dict(ground.items()))
    while queue:
        v = queue.pop()
        for g in labels:
            img = apply_generator(ctx, g, v)
            if img.is_zero():
                continue
            wt = reference_vector_weight(ctx, img, n)
            if spans.setdefault(wt, RowSpan()).add(dict(img.items())):
                blocks.setdefault(wt, []).append(img)
                queue.append(img)
    return blocks


def reference_lowering_closure(ctx, ground, n):
    """compact_module as first written: every lowering E(i,j), j < i <= n,
    applied to every vector kept, blocks keyed by occupation profile."""
    lowering = [GeneratorLabel(kind, i, j) for kind in ctx.kind.e_kinds
                for i in range(1, n + 1) for j in range(1, i)]
    blocks, spans, queue = {}, {}, []

    def add(v):
        key = occupation_profile(next(iter(v.monomials())), ctx)
        if spans.setdefault(key, RowSpan()).add(dict(v.items())):
            blocks.setdefault(key, []).append(v)
            queue.append(v)

    add(ground)
    while queue:
        v = queue.pop()
        for g in lowering:
            img = apply_generator(ctx, g, v)
            if not img.is_zero():
                add(img)
    return blocks


def reference_raised_weight_candidates(ctx, n):
    """(k, l, weight shift) for Xstar(k,l): one unit at mode k of the i-leg
    species and one at mode l of the j-leg one."""
    species, out = ctx.kind.species, []
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            shift = [0] * (len(species) * n)
            for sp, mode in zip(ctx.kind.x_legs, (k, l)):
                shift[species.index(sp) * n + mode - 1] += 1
            out.append((k, l, tuple(shift)))
    return out


def reference_hw_vectors_at_weight(ctx, ground, n, lam):
    """hw_vectors_at_weight as first written: the all-E compact module keyed
    by weight, and the kernel of every raising E(i,j), i < j <= n, on the
    raised vectors."""
    lam = tuple(Fraction(x) for x in lam)
    blocks = reference_compact_module(ctx, ground, n)
    raised = []
    span = RowSpan()
    for k, l, shift in reference_raised_weight_candidates(ctx, n):
        need = tuple(a - b for a, b in zip(lam, shift))
        for u in blocks.get(need, ()):
            v = apply_generator(ctx, Xstar(k, l), u)
            if span.add(dict(v.items())):
                raised.append(v)
    raising = [GeneratorLabel(kind, i, j) for kind in ctx.kind.e_kinds
               for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return joint_kernel(ctx, raising, raised)


def test_hw_vectors_from_simple_raising_match_every_raising(hw_cases):
    assert hw_cases
    found = refused = 0
    for s, n, ctx in _on_both_hw_contexts(hw_cases):
        ground, lam = build_ground_state(ctx, s), canonical_lambda(s, n)
        if n > ctx.M:
            with pytest.raises(ContextViolation):
                hw_vectors_at_weight(ctx, ground, n, lam)
            refused += 1
            continue
        got = hw_vectors_at_weight(ctx, ground, n, lam)
        want = reference_hw_vectors_at_weight(ctx, ground, n, lam)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in want], (str(s), n, ctx)
        found += len(got)
    assert found and refused


def _spans_inside(vectors, others):
    span = RowSpan()
    for v in others:
        span.add(dict(v.items()))
    return all(not span.add(dict(v.items())) for v in vectors)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from([COMPLEX, REAL]), N=st.integers(0, 3))
def test_hw_vectors_span_all_e_closure_on_small_contexts(data, kind, N):
    # sectors of <= 3 boxes, n = rows + 1..3, M = n and n + 1
    def rows(s):
        return max(s.y_plus.num_rows, s.y_minus.num_rows)

    s = data.draw(st.sampled_from([s for s in enumerate_sectors(kind, N, 3)
                                   if s.total_boxes() <= 3 and rows(s) < 3]))
    n = data.draw(st.integers(rows(s) + 1, 3))
    ctx = FockContext(kind, N, data.draw(st.sampled_from([n, n + 1])), s.total_boxes() + 2).validate()
    ground, lam = build_ground_state(ctx, s), canonical_lambda(s, n)
    got = hw_vectors_at_weight(ctx, ground, n, lam)
    want = reference_hw_vectors_at_weight(ctx, ground, n, lam)
    assert len(got) == len(want)
    assert _spans_inside(got, want) and _spans_inside(want, got)


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_compact_module_refuses_vector_a_raising_e_moves(kind):
    s = SectorLabel(kind, 2, diagram(1))
    ctx = FockContext(kind, 2, 2, 4).validate()
    ground = build_ground_state(ctx, s)
    targets = _target_profiles(ctx, 2, canonical_lambda(s, 2))
    assert casimir.compact_module(ctx, ground, 2, targets=targets)
    # E+(2,1) (complex) or E(2,1) (real) moves the a-particle to mode 2
    lowered = apply_generator(ctx, GeneratorLabel(next(iter(ctx.kind.e_kinds)), 2, 1), ground)
    assert not lowered.is_zero()
    with pytest.raises(ValueError):
        casimir.compact_module(ctx, lowered, 2, targets=targets)


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_hw_vectors_refuse_a_rank_above_the_mode_cutoff(kind):
    # an IndexError once, from writing lam into a profile of M modes
    ctx = FockContext(kind, 2, 2, 6).validate()
    s = vacuum_sector(kind, 2)
    ground = build_ground_state(ctx, s)
    with pytest.raises(ContextViolation, match="rank 3 exceeds mode cutoff 2"):
        hw_vectors_at_weight(ctx, ground, 3, canonical_lambda(s, 3))


# ---------------------------------------------------------------------------
# the shared work of the hw cases: C_g's word table, the closure toward
# targets


def _on_both_hw_contexts(hw_cases):
    """(sector, rank, context) for the case context and the determinant
    context of every hw case."""
    for s, n, ctx, det_ctx in hw_cases:
        yield s, n, ctx
        yield s, n, det_ctx


def _casimir_products(n, kind):
    """C_k and C_g as products of one-letter expressions summed by ``plus``."""
    rng, field_kind = range(1, n + 1), field_kind_named(kind)
    ck = OperatorExpr().plus(
        (1, OperatorExpr.of(GeneratorLabel(e, i, j)) * OperatorExpr.of(GeneratorLabel(e, j, i)))
        for i in rng for j in rng for e in field_kind.e_kinds)
    cross = [(OperatorExpr.of(Xstar(i, j)), OperatorExpr.of(X(i, j))) for i in rng for j in rng]
    coupling = Fraction(1, field_kind.x_doubling)
    return ck, ck.plus((-coupling, word) for xs, x in cross for word in (xs * x, x * xs))


def test_memoized_casimir_g_equals_an_uncached_build():
    # the listed words equal the products they expand, key order and
    # coefficient type included
    for kind in (COMPLEX, REAL):
        for n in range(1, 6):
            for got, want in zip((casimir_k(n, kind), casimir_g(n, kind)), _casimir_products(n, kind)):
                assert [(w, c, type(c)) for w, c in got.items()] == [(w, c, type(c)) for w, c in want.items()]


def _target_profiles(ctx, n, lam):
    """The n^2 profiles lam - N/2 - legs(k,l) that hw_vectors_at_weight
    raises, in ``occupation_profile``'s (a, b) layout, from the reference's
    weight shifts."""
    out = []
    for _, _, shift in reference_raised_weight_candidates(ctx, n):
        occ = [int(x - Fraction(ctx.N, 2)) - d for x, d in zip(lam, shift)]
        rows = [tuple(occ[i * n:(i + 1) * n]) + (0,) * (ctx.M - n) for i in range(len(ctx.kind.species))]
        out.append((rows[0], rows[1] if len(rows) == 2 else (0,) * ctx.M))
    return out


def _profiles_reached(profile, n) -> set:
    """Every profile reached from ``profile`` by moving one particle of one
    species from a mode j to a mode i, j < i <= n, any number of times: the
    profile changes the lowering E(i,j) can make."""
    seen, stack = {profile}, [profile]
    while stack:
        p = stack.pop()
        for sp, occ in enumerate(p):
            for j in range(n):
                for i in range(j + 1, n if occ[j] else 0):
                    moved = list(occ)
                    moved[j], moved[i] = moved[j] - 1, moved[i] + 1
                    q = p[:sp] + (tuple(moved),) + p[sp + 1:]
                    if q not in seen:
                        seen.add(q)
                        stack.append(q)
    return seen


def _vectors(blocks):
    return {key: [list(v.items()) for v in vs] for key, vs in blocks.items()}


def _closure_mismatches(hw_cases):
    """The cases whose closure toward the target profiles differs from the
    full reference closure, which applies every lowering: on a target
    block, on a block it keeps, or in keeping a block from which no move
    sequence reaches a target (or dropping one from which one does); with
    the vectors each closure built."""
    mismatches, kept, full_size = [], 0, 0
    for s, n, ctx in _on_both_hw_contexts(hw_cases):
        if n > ctx.M:
            continue
        ground = build_ground_state(ctx, s)
        targets = _target_profiles(ctx, n, canonical_lambda(s, n))
        full = reference_lowering_closure(ctx, ground, n)
        restricted = casimir.compact_module(ctx, ground, n, targets=targets)
        kept += sum(map(len, restricted.values()))
        full_size += sum(map(len, full.values()))
        if set(restricted) != {key for key in full if _profiles_reached(key, n) & set(targets)}:
            mismatches.append((str(s), n, ctx, "blocks kept"))
        got, want = _vectors(restricted), _vectors(full)
        for key in set(targets) | set(restricted):
            if got.get(key) != want.get(key):
                mismatches.append((str(s), n, ctx, key))
    return mismatches, kept, full_size


def test_closure_toward_the_targets_keeps_the_full_modules_blocks(hw_cases):
    mismatches, kept, full_size = _closure_mismatches(hw_cases)
    assert mismatches == []
    assert 0 < kept < full_size


def test_reversed_dominance_fails_the_closure_comparison(hw_cases, monkeypatch):
    # negated prefix sums turn the comparison around: a profile is kept
    # when the target dominates it
    prefix_sums = casimir._prefix_sums
    monkeypatch.setattr(casimir, "_prefix_sums", lambda p: tuple(-x for x in prefix_sums(p)))
    mismatches, _, _ = _closure_mismatches(hw_cases)
    assert mismatches


UNKNOWN_KIND_CALLS = {
    "weyl_data": lambda: weyl_data("quaternion", 2),
    "casimir_k_eigenvalue": lambda: casimir_k_eigenvalue((1, 0), 2, "quaternion"),
    "casimir_k": lambda: casimir_k(2, "quaternion"),
    "casimir_g": lambda: casimir_g(2, "quaternion"),
    "abstract_commutator": lambda: abstract_commutator(X(1, 1), Xstar(1, 1), "quaternion"),
}


@pytest.mark.parametrize("entry", sorted(UNKNOWN_KIND_CALLS))
def test_an_unknown_field_kind_is_refused(entry):
    # weyl_data and casimir_k_eigenvalue used to answer as if the kind were
    # real; the others raised a raw KeyError
    with pytest.raises(ValueError, match="unknown field kind 'quaternion'"):
        UNKNOWN_KIND_CALLS[entry]()


def _rank_zero_oracle():
    ctx = FockContext(COMPLEX, 1, 1, 3).validate()
    return cg_eigenvalue_oracle(ctx, vacuum_sector(COMPLEX, 1), 0)


def _hw_vectors_at_rank(n):
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    return hw_vectors_at_weight(ctx, build_ground_state(ctx, vacuum_sector(COMPLEX, 2)), n, ())


RANK_BELOW_ONE_CALLS = {
    "weyl_data complex 0": lambda: weyl_data(COMPLEX, 0),
    "weyl_data real -1": lambda: weyl_data(REAL, -1),
    "casimir_k -1": lambda: casimir_k(-1),
    "casimir_k real 0": lambda: casimir_k(0, REAL),
    "casimir_g -1": lambda: casimir_g(-1),
    "casimir_g real 0": lambda: casimir_g(0, REAL),
    "casimir_k_eigenvalue 0": lambda: casimir_k_eigenvalue((), 0),
    "cg_candidate_shifted_delta 0": lambda: cg_candidate_shifted_delta(
        weight_from_sector(vacuum_sector(COMPLEX, 1)), 0),
    "cg_eigenvalue_oracle 0": _rank_zero_oracle,
    "hw_vectors_at_weight 0": lambda: _hw_vectors_at_rank(0),
    "hw_vectors_at_weight -1": lambda: _hw_vectors_at_rank(-1),
}


@pytest.mark.parametrize("entry", sorted(RANK_BELOW_ONE_CALLS))
def test_a_rank_below_one_is_refused(entry):
    # casimir_k(-1) and casimir_g(-1) were the zero operator, at n = 0 the
    # measured C_g eigenvalue 0 matched the candidate's 0, and
    # hw_vectors_at_weight found no vector at n = 0
    with pytest.raises(ValueError, match=r"rank -?\d+ must be >= 1"):
        RANK_BELOW_ONE_CALLS[entry]()


def test_a_refused_rank_is_not_stored_in_the_casimir_g_memo():
    # C_g is built on every call, so a refusal raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="rank"):
            casimir_g(0, COMPLEX)


def _lambda_readers(kind):
    """casimir_k_eigenvalue, gamma_value and hw_vectors_at_weight, each a
    function of lam alone, at n = 2 on the one-box sector."""
    N = n = 2
    s = SectorLabel(kind, N, diagram(1))
    ctx = FockContext(kind, N, n, s.total_boxes() + 2).validate()
    h, ground = weight_from_sector(s), build_ground_state(ctx, s)
    return canonical_lambda(s, n), {
        "casimir_k_eigenvalue": lambda lam: casimir_k_eigenvalue(lam, n, kind),
        "gamma_value": lambda lam: gamma_value(h, lam, n),
        "hw_vectors_at_weight": lambda lam: hw_vectors_at_weight(ctx, ground, n, lam),
    }


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
@pytest.mark.parametrize("shape", ["short", "long", "float"])
def test_one_bad_lambda_gets_one_refusal_from_every_reader(kind, shape):
    """The three functions that take a weight lam read it the same way: one
    message for a wrong length, TypeError for a float coordinate."""
    lam, readers = _lambda_readers(kind)
    bad = {"short": lam[:-1], "long": lam + (lam[-1],), "float": (float(lam[0]),) + lam[1:]}[shape]
    errors = []
    for read in readers.values():
        read(lam)
        with pytest.raises(TypeError if shape == "float" else ValueError) as info:
            read(bad)
        errors.append(str(info.value))
    assert len(set(errors)) == 1, errors
    if shape != "float":
        assert errors[0] == f"weight length {len(bad)} != {len(lam)}"

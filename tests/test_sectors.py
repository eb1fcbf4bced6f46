from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from bilocal.algebra import (
    GeneratorLabel,
    OperatorExpr,
    X,
    Xstar,
    abstract_commutator,
    apply_generator,
)
from bilocal.fock import (
    COMPLEX,
    FIELD_KINDS,
    REAL,
    X_KIND,
    XSTAR_KIND,
    ContextViolation,
    FockContext,
    TruncationError,
    a_slot,
    apply_creation,
    apply_normal_ordered,
    b_slot,
    basis_monomials,
    inner_product,
    norm_sq,
    unit,
    vacuum,
    zero,
)
from bilocal.linalg import det
from bilocal.modes import appendix_spectrum
from bilocal.sectors import (
    Weight,
    _perm_sign,
    _profiles_below,
    _slot_determinant,
    adjoint_determinant_terms,
    build_ground_state,
    classify_spectrum,
    determinant_operator,
    determinant_recursion_check,
    determinant_recursion_coefficient,
    ground_state_generators,
    hw_kernel_in_profile,
    joint_kernel,
    lowering_and_raising_labels,
    norm_recursion_oracle,
    null_vector_order,
    p_polynomial_check,
    profile_monomials,
    verify_hw_conditions,
    weight_from_sector,
)
from bilocal.young import (
    EMPTY,
    BoundViolation,
    complex_sector,
    diagram,
    enumerate_sectors,
    real_sector,
    sector_to_irrep_U,
    vacuum_sector,
    weyl_dimension_U,
)


def _ground_context(s, extra_particles=0, min_modes=0):
    rows = max(s.y_plus.num_rows, s.y_minus.num_rows if s.y_minus else 0)
    M = max(rows + 1, 2, min_modes)
    P = s.total_boxes() + extra_particles
    return FockContext(s.field_kind, s.N, M, P).validate()


# ---------------------------------------------------------------------------
# weights


def test_weight_from_sector_examples():
    w = weight_from_sector(complex_sector(EMPTY, EMPTY, 2))
    assert w.head_plus == () and w.tail == 1

    w = weight_from_sector(complex_sector(diagram(1), EMPTY, 2))
    assert w.head_plus == (Fraction(2),) and w.tail == 1

    w = weight_from_sector(real_sector(diagram(2, 1), 3))
    assert w.head_plus == (Fraction(7, 2), Fraction(5, 2)) and w.tail == Fraction(3, 2)


def test_weight_from_sector_bound_rejection():
    with pytest.raises(BoundViolation):
        weight_from_sector(complex_sector(diagram(1, 1), diagram(1), 2))


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(COMPLEX, (Fraction(1), Fraction(2)), (), Fraction(0))
    with pytest.raises(ValueError):
        Weight(REAL, (Fraction(1, 3),), None, Fraction(0))


# ---------------------------------------------------------------------------
# ground states


def test_ground_state_trivial_sector_is_vacuum():
    for kind, N in ((COMPLEX, 2), (REAL, 1)):
        s = vacuum_sector(kind, N)
        ctx = _ground_context(s)
        assert build_ground_state(ctx, s) == vacuum(ctx)


def test_ground_state_single_box():
    s = complex_sector(diagram(1), EMPTY, 2)
    ctx = _ground_context(s)
    assert build_ground_state(ctx, s) == unit(ctx, (a_slot(1, 1),))


def test_ground_state_column_of_two():
    s = complex_sector(diagram(1, 1), EMPTY, 2)
    ctx = _ground_context(s)
    got = build_ground_state(ctx, s)
    want = unit(ctx, (a_slot(1, 1), a_slot(2, 2))) - unit(ctx, (a_slot(1, 2), a_slot(2, 1)))
    assert got == want


def test_ground_state_b_determinant_flavors():
    # b columns occupy the top flavors N+1-r .. N
    s = complex_sector(EMPTY, diagram(1), 3)
    ctx = _ground_context(s)
    assert build_ground_state(ctx, s) == unit(ctx, (b_slot(1, 3),))


def test_real_ground_state_traceless_projection():
    # one row of two boxes at N=2: the traceless symmetric component
    s = real_sector(diagram(2), 2)
    ctx = _ground_context(s)
    got = build_ground_state(ctx, s)
    want = unit(ctx, (a_slot(1, 1), a_slot(1, 1))) - unit(ctx, (a_slot(1, 2), a_slot(1, 2)))
    assert got == want


def test_ground_state_truncation_errors():
    s = complex_sector(diagram(1, 1, 1), EMPTY, 3)
    with pytest.raises(TruncationError):
        build_ground_state(FockContext(COMPLEX, 3, 2, 8), s)
    with pytest.raises(TruncationError):
        build_ground_state(FockContext(COMPLEX, 3, 3, 2), s)


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_all_small_ground_states_are_highest_weight(kind):
    for N in (1, 2, 3):
        for s in enumerate_sectors(kind, N, 3):
            if s.total_boxes() > 3:
                continue
            ctx = _ground_context(s)
            ground = build_ground_state(ctx, s)
            report = verify_hw_conditions(ctx, ground, weight_from_sector(s))
            assert report["ok"], (str(s), report["failures"][:1])


def test_traceful_pair_fails_hw():
    ctx = FockContext(COMPLEX, 1, 2, 4).validate()
    v = apply_creation(ctx, b_slot(1, 1), apply_creation(ctx, a_slot(1, 1), vacuum(ctx)))
    w = Weight(COMPLEX, (Fraction(3, 2),), (Fraction(3, 2),), Fraction(1, 2))
    report = verify_hw_conditions(ctx, v, w)
    assert not report["ok"]
    assert any("X(1,1)" in f["condition"] for f in report["failures"])


# ---------------------------------------------------------------------------
# norm oracles against brute force


def test_norm_oracle_values():
    w = weight_from_sector(complex_sector(EMPTY, EMPTY, 2))
    assert norm_recursion_oracle(w, "recX", 1, 1) == 2  # N

    w = Weight(COMPLEX, (Fraction(2),), (), Fraction(1))
    assert norm_recursion_oracle(w, "recE", 1, 2, n=1, side="plus") == 1
    assert norm_recursion_oracle(w, "recE", 1, 2, n=2, side="plus") == 0


def test_null_vector_order():
    w = Weight(COMPLEX, (Fraction(2),), (), Fraction(1))
    assert null_vector_order(w, 1, 2, "plus") == 2
    assert null_vector_order(w, 1, 2, "minus") == 1
    # (2, 1) read 0 and (1, 1) read 1 before the order was checked
    for i, j in ((2, 1), (1, 1)):
        with pytest.raises(ValueError, match="needs i < j"):
            null_vector_order(w, i, j)


def test_weight_index_below_one_raises():
    # an index i <= 0 would read the head from its end
    w = Weight(COMPLEX, (3, 2), (2,), 1)
    assert [w.component(i) for i in (1, 2, 3)] == [3, 2, 1]
    for i in (0, -1):
        with pytest.raises(ValueError):
            w.component(i)
    with pytest.raises(ValueError):
        norm_recursion_oracle(w, "recX", 0, 1)
    with pytest.raises(ValueError):
        null_vector_order(w, 0, 2)


def _raise_e(ctx, side, j, i, n, v):
    kind = {"plus": "Eplus", "minus": "Eminus", "real": "E"}[side]
    for _ in range(n):
        v = apply_generator(ctx, GeneratorLabel(kind, j, i), v)
    return v


def _lower_e(ctx, side, i, j, n, v):
    kind = {"plus": "Eplus", "minus": "Eminus", "real": "E"}[side]
    for _ in range(n):
        v = apply_generator(ctx, GeneratorLabel(kind, i, j), v)
    return v


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_norms_match_brute_force(kind):
    for N in (1, 2):
        for s in enumerate_sectors(kind, N, 2):
            if s.total_boxes() > 2:
                continue
            ctx = _ground_context(s, extra_particles=2)
            ground = build_ground_state(ctx, s)
            w = weight_from_sector(s)
            g2 = norm_sq(ground)
            for i in range(1, ctx.M + 1):
                for j in range(1, ctx.M + 1):
                    raised = apply_generator(ctx, Xstar(i, j), ground)
                    assert norm_sq(raised) == norm_recursion_oracle(w, "recX", i, j) * g2
            sides = ("plus", "minus") if kind == COMPLEX else ("real",)
            for side in sides:
                oracle_side = side if side != "real" else "plus"
                for i in range(1, ctx.M + 1):
                    for j in range(i + 1, ctx.M + 1):
                        order = null_vector_order(w, i, j, oracle_side)
                        for n in range(1, order + 1):
                            lowered = _raise_e(ctx, side, j, i, n, ground)
                            val = inner_product(
                                ground, _lower_e(ctx, side, i, j, n, lowered)
                            )
                            assert val == norm_recursion_oracle(
                                w, "recE", i, j, n=n, side=oracle_side
                            ) * g2
                        # the null vector itself vanishes identically
                        assert _raise_e(ctx, side, j, i, order, ground).is_zero()


# ---------------------------------------------------------------------------
# determinants


def test_determinant_operator_small():
    d1 = determinant_operator(1)
    assert d1.terms == {(X(1, 1),): Fraction(1)}
    d2 = determinant_operator(2)
    assert d2.terms == {
        (X(1, 1), X(2, 2)): Fraction(1),
        (X(1, 2), X(2, 1)): Fraction(-1),
    }
    # D_3* needs modes 1..3
    ctx = FockContext(COMPLEX, 2, 2, 6).validate()
    with pytest.raises(ContextViolation):
        determinant_operator(3).dagger().apply(ctx, vacuum(ctx))


def _word_adjoint_determinant(ctx, n, offset, v):
    """D_n^(r)* v the slow way: the words of D_n with every mode moved up by
    r = offset, daggered and applied letter by letter."""
    words = OperatorExpr({tuple(GeneratorLabel(g.kind, g.i + offset, g.j + offset) for g in w): c
                          for w, c in determinant_operator(n).items()})
    return words.dagger().apply(ctx, v)


def _assert_adjoint_determinant_matches_words(ctx, vectors):
    for n in range(ctx.N + 2):
        for offset in range(ctx.M - n + 1):
            terms = adjoint_determinant_terms(ctx, n, offset)
            for v in vectors:
                got = apply_normal_ordered(ctx, terms, v)
                assert got == _word_adjoint_determinant(ctx, n, offset, v), (ctx, n, offset, v)
                if n > ctx.N:
                    assert got == zero(ctx)
        if n > ctx.M:
            with pytest.raises(ContextViolation):
                _word_adjoint_determinant(ctx, n, 0, vacuum(ctx))
            with pytest.raises(ContextViolation):
                adjoint_determinant_terms(ctx, n)


def _hw_determinant_vectors(hw_cases):
    """{determinant context: its vacuum and the ground states built in it}
    over the hw cases, both kinds present."""
    contexts = {}
    for s, _, _, det_ctx in hw_cases:
        contexts.setdefault(det_ctx, [vacuum(det_ctx)]).append(build_ground_state(det_ctx, s))
    assert {ctx.field_kind for ctx in contexts} == {COMPLEX, REAL}
    return contexts


def test_adjoint_determinant_matches_words_on_hw_cases(hw_cases):
    for ctx, vectors in _hw_determinant_vectors(hw_cases).items():
        _assert_adjoint_determinant_matches_words(ctx, vectors)


def _unmerged_adjoint_determinant_terms(ctx, n, offset=0):
    """D_n* by Cauchy-Binet, one term per pair of slot-determinant terms,
    with equal slot multisets left as separate terms."""
    modes = range(offset + 1, offset + n + 1)
    terms = []
    for flavors in combinations(range(1, ctx.N + 1), n):
        c_det, d_det = (_slot_determinant(leg, modes, flavors) for leg in ctx.kind.x_legs)
        terms += [(f * g, (), c + d) for f, _, c in c_det for g, _, d in d_det]
    return terms


def test_merged_adjoint_determinant_acts_like_the_unmerged_expansion(hw_cases):
    for ctx, vectors in _hw_determinant_vectors(hw_cases).items():
        for n in range(min(ctx.N, ctx.M) + 1):
            for offset in range(ctx.M - n + 1):
                merged = adjoint_determinant_terms(ctx, n, offset)
                unmerged = _unmerged_adjoint_determinant_terms(ctx, n, offset)
                assert len(merged) == len({tuple(sorted(ins)) for _, _, ins in unmerged})
                for v in vectors:
                    assert apply_normal_ordered(ctx, merged, v) == apply_normal_ordered(ctx, unmerged, v)


def test_real_adjoint_determinant_merges_equal_slot_multisets():
    # det(A_S)^2 gives the permutation pairs (s, t) and (t, s) one slot
    # multiset, so the real expansion has fewer distinct terms than products
    for kind, N, n, merged, products in ((REAL, 3, 3, 21, 36), (REAL, 4, 3, 84, 144), (COMPLEX, 3, 3, 36, 36)):
        ctx = FockContext(kind, N, n, 2 * n).validate()
        assert len(_unmerged_adjoint_determinant_terms(ctx, n)) == products
        terms = adjoint_determinant_terms(ctx, n)
        assert len(terms) == merged
        assert len({ins for _, _, ins in terms}) == merged and all(f for f, _, _ in terms)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from([COMPLEX, REAL]), N=st.integers(0, 3), M=st.integers(1, 3),
       P=st.integers(0, 6))
def test_adjoint_determinant_matches_words_on_drawn_contexts(kind, N, M, P):
    ctx = FockContext(kind, N, M, P).validate()
    units = [unit(ctx, m) for m in basis_monomials(ctx, 2)]
    _assert_adjoint_determinant_matches_words(ctx, units + [zero(ctx).plus((1, u) for u in units)])


def test_adjoint_determinant_modes_must_fit():
    ctx = FockContext(COMPLEX, 2, 3, 6).validate()
    assert len(adjoint_determinant_terms(ctx, 2, 1)) == 4
    for n, offset in ((4, 0), (2, 2), (1, 3), (0, 4), (1, -1)):
        with pytest.raises(ContextViolation, match="outside 1..3"):
            adjoint_determinant_terms(ctx, n, offset)
    with pytest.raises(ValueError, match="order -1"):
        adjoint_determinant_terms(ctx, -1)


def test_perm_sign_is_the_permutation_matrix_determinant():
    for k in range(6):
        for perm in permutations(range(k)):
            matrix = [[int(perm[i] == j) for j in range(k)] for i in range(k)]
            assert _perm_sign(perm) == det(matrix), perm


def test_determinant_recursion_examples():
    ctx = FockContext(COMPLEX, 2, 3, 6).validate()
    assert determinant_recursion_check(ctx, vacuum_sector(ctx), 2)["coefficient"] == 2
    assert determinant_recursion_check(ctx, vacuum_sector(ctx), 2)["ok"]
    r3 = determinant_recursion_check(ctx, vacuum_sector(ctx), 3)
    assert r3["coefficient"] == 0 and r3["ok"]
    rctx = FockContext(REAL, 1, 2, 4).validate()
    rr = determinant_recursion_check(rctx, vacuum_sector(rctx), 2)
    assert rr["coefficient"] == 0 and rr["ok"]


def test_determinant_recursion_nontrivial_sectors():
    ctx = FockContext(COMPLEX, 2, 3, 8).validate()
    r = determinant_recursion_check(ctx, complex_sector(diagram(1), EMPTY, 2), 2)
    assert r["ok"] and r["coefficient"] == 3
    r = determinant_recursion_check(ctx, complex_sector(diagram(1), diagram(1), 2), 2)
    assert r["ok"] and r["coefficient"] == 4
    rctx = FockContext(REAL, 2, 3, 8).validate()
    r = determinant_recursion_check(rctx, real_sector(diagram(1), 2), 2)
    assert r["ok"] and r["coefficient"] == 16


def test_p_polynomial_small():
    r1 = p_polynomial_check(1)
    assert r1["ok"] and r1["norms"] == [0, 1, 2, 3]
    r2 = p_polynomial_check(2)
    assert r2["ok"] and r2["norms"][:2] == [0, 0] and r2["norms"][2] > 0


def test_p_polynomial_offset_matches():
    # the window of modes is immaterial: same polynomial at offset 1
    assert p_polynomial_check(2, r=1)["norms"] == p_polynomial_check(2, r=0)["norms"]


def test_negative_determinant_order_raises():
    # permutations(range(-1)) yields the empty permutation, which read as
    # the empty determinant 1
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    s = complex_sector(EMPTY, EMPTY, 2)
    w = weight_from_sector(s)
    for call in (lambda: determinant_operator(-1),
                 lambda: determinant_recursion_coefficient(w, -1),
                 lambda: determinant_recursion_check(ctx, s, -1),
                 lambda: p_polynomial_check(-1)):
        with pytest.raises(ValueError, match="order -1"):
            call()
    # n = 0, the empty determinant, is the scalar 1
    assert determinant_operator(0) == OperatorExpr.scalar(1)
    assert determinant_recursion_coefficient(w, 0) == 1
    assert determinant_recursion_check(ctx, s, 0)["ok"]
    assert p_polynomial_check(0, r=1)["norms"] == [1, 1, 1]
    # at r = 0 the context had M = r + n = 0 modes and raised ContextViolation
    for kind in (COMPLEX, REAL):
        r = p_polynomial_check(0, field_kind=kind)
        assert r["ok"] and r["norms"] == [1, 1, 1]


# ---------------------------------------------------------------------------
# classification


def test_classify_complex_n1_in_bound_only():
    ctx = FockContext(COMPLEX, 1, 3, 6).validate()
    results = classify_spectrum(ctx, 2)
    sectors = {str(e["sector"]) for e in results}
    assert sectors == {
        "([],[],N=1)",
        "([1],[],N=1)",
        "([],[1],N=1)",
        "([2],[],N=1)",
        "([],[2],N=1)",
    }
    assert all(e["multiplicity"] == 1 for e in results)
    # the mixed one-box pair violates r+ + r- <= N at N=1 and must not appear
    assert "([1],[1],N=1)" not in sectors


def test_classify_complex_n2_cutoff1():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    results = classify_spectrum(ctx, 1)
    got = {(str(e["sector"]), e["multiplicity"]) for e in results}
    assert got == {
        ("([],[],N=2)", 1),
        ("([1],[],N=2)", 2),
        ("([],[1],N=2)", 2),
    }


def test_classify_matches_independent_enumeration():
    # oracle: in-bound sectors with energy sum m_i * eps_i below cutoff
    ctx = FockContext(COMPLEX, 2, 3, 6).validate()
    cutoff = 2
    expected = set()
    for s in enumerate_sectors(COMPLEX, 2, cutoff):
        energy = sum(i * r for i, r in enumerate(s.y_plus.rows, 1)) + sum(
            i * r for i, r in enumerate(s.y_minus.rows, 1)
        )
        if energy <= cutoff:
            expected.add(str(s))
    got = {str(e["sector"]) for e in classify_spectrum(ctx, cutoff)}
    assert got == expected


def test_classify_multiplicity_equals_gauge_dimension():
    ctx = FockContext(COMPLEX, 2, 3, 6).validate()
    for e in classify_spectrum(ctx, 2):
        dim = weyl_dimension_U(sector_to_irrep_U(e["sector"]), 2)
        assert e["multiplicity"] == dim, str(e["sector"])


def test_classify_real_bound_never_violated():
    ctx = FockContext(REAL, 2, 3, 6).validate()
    results = classify_spectrum(ctx, 3)
    for e in results:
        s = e["sector"]
        assert s is not None
        assert s.y_plus.column(1) + s.y_plus.column(2) <= 2
    assert {str(e["sector"]) for e in results} == {
        "([],N=2)",
        "([1],N=2)",
        "([2],N=2)",
        "([1,1],N=2)",
        "([3],N=2)",
    }


def test_classify_real_excludes_bound_violators_reachable_by_energy():
    # at N=1 the two-box row has energy 2 but r+s = 2 > 1
    ctx = FockContext(REAL, 1, 2, 4).validate()
    got = {str(e["sector"]) for e in classify_spectrum(ctx, 2)}
    assert got == {"([],N=1)", "([1],N=1)"}


def test_classify_vacuum_unique_at_energy_zero():
    for kind, N in ((COMPLEX, 2), (REAL, 2), (COMPLEX, 0)):
        ctx = FockContext(kind, N, 2, 4).validate()
        results = classify_spectrum(ctx, 0)
        assert len(results) == 1
        assert results[0]["multiplicity"] == 1
        assert results[0]["sector"] == vacuum_sector(ctx)


def test_classify_negative_cutoff_lists_nothing():
    # every profile has energy >= 0; the particle count bound is a floor
    # division, so a cutoff in (-min energy, 0) no longer admits the vacuum
    for kind in (COMPLEX, REAL):
        ctx = FockContext(kind, 1, 2, 4).validate()
        for cutoff in (Fraction(-1, 2), -1):
            assert classify_spectrum(ctx, cutoff) == []


def test_classify_infeasible_cutoff():
    ctx = FockContext(COMPLEX, 1, 2, 2).validate()
    with pytest.raises(TruncationError):
        classify_spectrum(ctx, 5)


def test_classify_never_reports_bound_violations():
    for kind in (COMPLEX, REAL):
        for N in (0, 1, 2, 3):
            ctx = FockContext(kind, N, 3, 4).validate()
            for e in classify_spectrum(ctx, 3):
                s = e["sector"]
                assert s is not None and s.bound_violation() is None, (kind, N, e["weight"])


def test_classify_with_degenerate_spectrum():
    # conformal energies at D=4: modes (1, 2, 2, 2, 2); the one-box sector
    # then sits below a cutoff of 1 while two-box sectors need energy >= 2
    from bilocal.modes import appendix_spectrum

    ctx = FockContext(REAL, 2, 5, 4).validate()
    spec = appendix_spectrum(ctx, 4)
    results = classify_spectrum(ctx, 1, spec)
    assert {str(e["sector"]) for e in results} == {"([],N=2)", "([1],N=2)"}


# ---------------------------------------------------------------------------
# ground-state conditions from their generating set


def _symmetric_label(g, kind):
    """Real X(i,j) and X(j,i) are one operator: spell it with i <= j."""
    if g.kind in (X_KIND, XSTAR_KIND) and FIELD_KINDS[kind].x_symmetric and g.i > g.j:
        return GeneratorLabel(g.kind, g.j, g.i)
    return g


def _multiple_of(expr, kind):
    """The label a degree-one expression is a nonzero multiple of, else None."""
    merged = {}
    for word, c in expr.items():
        (g,) = word
        g = _symmetric_label(g, kind)
        merged[g] = merged.get(g, 0) + c
    labels = [g for g, c in merged.items() if c]
    return labels[0] if len(labels) == 1 else None


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
@pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
def test_ground_state_generators_bracket_to_every_condition(kind, M):
    # closure from the structure relations alone: brackets of what is
    # reached, kept when they are a nonzero multiple of a single label
    ctx = FockContext(kind, 1, M, 1).validate()
    gens = ground_state_generators(ctx)
    assert len(gens) == (2 * M - 1 if kind == COMPLEX else M)
    reached = set(gens)
    while True:
        new = {g for a in reached for b in reached
               if (g := _multiple_of(abstract_commutator(a, b, kind), kind)) is not None}
        if new <= reached:
            break
        reached |= new
    assert reached == {_symmetric_label(g, kind) for g in lowering_and_raising_labels(ctx)}


def _full_kernel(ctx, a_occ, b_occ):
    basis = [unit(ctx, m) for m in profile_monomials(ctx, a_occ, b_occ)]
    return joint_kernel(ctx, lowering_and_raising_labels(ctx), basis)


def _terms(vectors):
    return [list(v.items()) for v in vectors]


def _profiles(ctx, cutoff, spec=None):
    energies = (spec.energies if spec else range(1, ctx.M + 1))[: ctx.M]
    return list(_profiles_below(ctx, [Fraction(e) for e in energies], Fraction(cutoff)))


def _gate_contexts():
    """The contexts and profiles of the two classify benchmark gates."""
    cplx = FockContext(COMPLEX, 3, 4, 6).validate()
    real = FockContext(REAL, 3, 4, 6).validate()
    return [(cplx, _profiles(cplx, 5)), (real, _profiles(real, 6, appendix_spectrum(real, 4)))]


def test_generating_set_kernel_equals_full_kernel_on_gate_contexts():
    for ctx, profiles in _gate_contexts():
        assert profiles
        for a_occ, b_occ in profiles:
            assert _terms(hw_kernel_in_profile(ctx, a_occ, b_occ)) == _terms(
                _full_kernel(ctx, a_occ, b_occ)), (ctx, a_occ, b_occ)


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from([COMPLEX, REAL]), N=st.integers(0, 3), M=st.integers(1, 3),
       cutoff=st.integers(0, 4))
def test_generating_set_kernel_equals_full_kernel_on_small_contexts(kind, N, M, cutoff):
    ctx = FockContext(kind, N, M, max(cutoff, 1)).validate()
    for a_occ, b_occ in _profiles(ctx, cutoff):
        assert _terms(hw_kernel_in_profile(ctx, a_occ, b_occ)) == _terms(
            _full_kernel(ctx, a_occ, b_occ)), (a_occ, b_occ)


def test_every_generator_is_needed():
    # negative control: without X(1,1), or without any one simple E(i,i+1),
    # the kernel is strictly larger on some profile of the gate contexts
    for ctx, profiles in _gate_contexts():
        sizes = {}

        def kernel_size(a_occ, b_occ):
            key = (a_occ, b_occ)
            if key not in sizes:
                sizes[key] = len(hw_kernel_in_profile(ctx, a_occ, b_occ))
            return sizes[key]

        gens = ground_state_generators(ctx)
        for dropped in gens:
            rest = [g for g in gens if g != dropped]
            assert any(
                len(joint_kernel(ctx, rest, [unit(ctx, m) for m in profile_monomials(ctx, a, b)]))
                > kernel_size(a, b)
                for a, b in profiles), (ctx, dropped)

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from bilocal import algebra, casimir, sectors
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
    SPECIES_A,
    FockContext,
    ModeSlot,
    TruncationError,
    Operator,
    apply_creation,
    basis_monomials,
    inner_product,
    norm_sq,
    occupation_profile,
    unit,
    vacuum,
    zero,
)
from bilocal.linalg import det
from bilocal.modes import appendix_spectrum
from bilocal.sectors import (
    Weight,
    _perm_sign,
    _profile_to_sector,
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
    sector_profile,
    verify_hw_conditions,
    weight_from_profile,
    weight_from_sector,
)
from bilocal.young import (
    EMPTY,
    BoundViolation,
    SectorLabel,
    complex_sector,
    enumerate_sectors,
    real_sector,
    sector_to_irrep_U,
    weyl_dimension_U,
    young_diagrams,
)
from oracles import a_slot, b_slot, diagram, vacuum_sector


def _ground_context(s, extra_particles=0, min_modes=0):
    rows = max(s.y_plus.num_rows, s.y_minus.num_rows)
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
        Weight(REAL, (Fraction(1, 3),), (), Fraction(0))


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


def test_hw_failures_are_listed_up_to_five():
    # a weight one off in every entry fails all 2M = 6 Cartan conditions of
    # a complex ground state at M = 3; every condition is still checked
    s = complex_sector(diagram(1), diagram(1), 2)
    ctx = _ground_context(s, min_modes=3)
    assert ctx.M == 3
    w = weight_from_sector(s)
    wrong = Weight(COMPLEX, tuple(x + 1 for x in w.head_plus), tuple(x + 1 for x in w.head_minus), w.tail + 1)
    report = verify_hw_conditions(ctx, build_ground_state(ctx, s), wrong)
    assert not report["ok"]
    assert report["conditions_checked"] == len(lowering_and_raising_labels(ctx)) + 6
    assert [f["condition"] for f in report["failures"]] == [
        f"{g} v = h*v" for g in ("Eplus(1,1)", "Eplus(2,2)", "Eplus(3,3)", "Eminus(1,1)", "Eminus(2,2)")]


@pytest.mark.parametrize("kind, other", [(COMPLEX, REAL), (REAL, COMPLEX)])
def test_hw_conditions_refuse_a_weight_of_the_other_kind(kind, other):
    """On the vacuum the other kind's vacuum weight meets every condition
    checked, so only the kind check can refuse it."""
    ctx = FockContext(kind, 2, 2, 4).validate()
    assert verify_hw_conditions(ctx, vacuum(ctx), weight_from_sector(vacuum_sector(kind, 2)))["ok"]
    with pytest.raises(ContextViolation, match=f"a {other} weight"):
        verify_hw_conditions(ctx, vacuum(ctx), weight_from_sector(vacuum_sector(other, 2)))


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


def test_a_weight_side_other_than_plus_or_minus_is_refused():
    # "mnus" and "Minus" read the plus head: 7/2 and a recE norm of 2;
    # recX, whose sides X's legs fix, took any side unread
    w = weight_from_sector(complex_sector(diagram(2), diagram(1), 3))
    assert (w.component(1, "plus"), w.component(1, "minus")) == (Fraction(7, 2), Fraction(5, 2))
    calls = [lambda side: w.component(1, side),
             lambda side: norm_recursion_oracle(w, "recE", 1, 2, 1, side=side),
             lambda side: norm_recursion_oracle(w, "recX", 1, 2, side=side),
             lambda side: null_vector_order(w, 1, 2, side)]
    for call in calls:
        for side in ("mnus", "Minus", "real", None):
            with pytest.raises(ValueError, match="neither 'plus' nor 'minus'"):
                call(side)
    assert norm_recursion_oracle(w, "recE", 1, 2, 1, side="minus") == 1


def test_rec_e_refuses_a_negative_power():
    w = Weight(COMPLEX, (Fraction(2),), (), Fraction(1))
    assert norm_recursion_oracle(w, "recE", 1, 2, n=0) == 1
    with pytest.raises(ValueError, match="recE needs n >= 0, got -1"):
        norm_recursion_oracle(w, "recE", 1, 2, n=-1)


def test_rec_x_refuses_a_power_other_than_one():
    # recX read 2 on the N = 2 vacuum at every n
    w = weight_from_sector(complex_sector(EMPTY, EMPTY, 2))
    assert norm_recursion_oracle(w, "recX", 1, 1, n=1) == 2
    for n in (0, 2, 3, -2):
        with pytest.raises(ValueError, match=f"recX raises by one Xstar, got n = {n}"):
            norm_recursion_oracle(w, "recX", 1, 1, n=n)


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
            op = adjoint_determinant_terms(ctx, n, offset)
            for v in vectors:
                got = op.apply(v)
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
    """The merged D_n* against the sum of its unmerged products, each
    applied on its own."""
    for ctx, vectors in _hw_determinant_vectors(hw_cases).items():
        for n in range(min(ctx.N, ctx.M) + 1):
            for offset in range(ctx.M - n + 1):
                merged = adjoint_determinant_terms(ctx, n, offset)
                products = _unmerged_adjoint_determinant_terms(ctx, n, offset)
                assert len(merged) == len({tuple(sorted(ins)) for _, _, ins in products})
                unmerged = [Operator(ctx, [t]) for t in products]
                for v in vectors:
                    assert merged.apply(v) == zero(ctx).plus((1, op.apply(v)) for op in unmerged)


def test_real_adjoint_determinant_merges_equal_slot_multisets():
    # det(A_S)^2 gives the permutation pairs (s, t) and (t, s) one slot
    # multiset, so the real expansion has fewer distinct terms than products
    for kind, N, n, merged, products in ((REAL, 3, 3, 21, 36), (REAL, 4, 3, 84, 144), (COMPLEX, 3, 3, 36, 36)):
        ctx = FockContext(kind, N, n, 2 * n).validate()
        assert len(_unmerged_adjoint_determinant_terms(ctx, n)) == products
        assert len(adjoint_determinant_terms(ctx, n)) == merged


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


def test_adjoint_determinant_is_built_once_and_a_refusal_is_not_stored():
    # D_n* is built on every call, so a refusal raises on every call
    ctx = FockContext(REAL, 3, 3, 6).validate()
    op = adjoint_determinant_terms(ctx, 2, 1)
    for n, offset in ((-1, 0), (4, 0), (2, 2)):
        for _ in range(2):
            with pytest.raises((ValueError, ContextViolation)):
                adjoint_determinant_terms(ctx, n, offset)
    assert adjoint_determinant_terms(ctx, 2, 1) == op


def test_perm_sign_is_the_permutation_matrix_determinant():
    for k in range(6):
        for perm in permutations(range(k)):
            matrix = [[int(perm[i] == j) for j in range(k)] for i in range(k)]
            assert _perm_sign(perm) == det(matrix), perm


def test_determinant_recursion_examples():
    ctx = FockContext(COMPLEX, 2, 3, 6).validate()
    vac = vacuum_sector(COMPLEX, 2)
    assert determinant_recursion_check(ctx, vac, 2)["coefficient"] == 2
    assert determinant_recursion_check(ctx, vac, 2)["ok"]
    r3 = determinant_recursion_check(ctx, vac, 3)
    assert r3["coefficient"] == 0 and r3["ok"]
    rctx = FockContext(REAL, 1, 2, 4).validate()
    rr = determinant_recursion_check(rctx, vacuum_sector(REAL, 1), 2)
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
    assert determinant_operator(0) == OperatorExpr({(): 1})
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
        assert results[0]["sector"] == vacuum_sector(kind, N)


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


# ---------------------------------------------------------------------------
# one occupation profile (a, b)


def test_ground_states_lie_on_their_sector_profile(hw_cases):
    """Every monomial of a ground state has the sector's profile, on the
    benchmark's hw cases, in their context and their determinant context."""
    assert hw_cases
    for s, _, ctx, det_ctx in hw_cases:
        for c in (ctx, det_ctx):
            ground = build_ground_state(c, s)
            assert {occupation_profile(m, c) for m in ground.monomials()} == {sector_profile(c, s)}, (c, s)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from([COMPLEX, REAL]), N=st.integers(0, 4), M=st.integers(1, 4),
       P=st.integers(0, 6))
def test_sector_profile_gives_back_the_sector_and_its_weight(kind, N, M, P):
    ctx = FockContext(kind, N, M, P).validate()
    fitting = [s for s in enumerate_sectors(kind, N, P)
               if max(s.y_plus.num_rows, s.y_minus.num_rows) <= M and s.total_boxes() <= P]
    assert fitting
    for s in fitting:
        profile = sector_profile(ctx, s)
        assert _profile_to_sector(ctx, profile) == s
        w = weight_from_profile(kind, N, profile)
        assert w == weight_from_sector(s)
        if kind == REAL:
            assert s.y_minus == EMPTY and w.head_minus == ()


# ---------------------------------------------------------------------------
# the real case as the one-species pair, against the per-kind formulas


def _per_kind_sectors(kind, N, cap):
    """enumerate_sectors written per kind: a double loop (complex) and a
    single loop (real), with the bounds spelled out."""
    diagrams = list(young_diagrams(cap))
    if kind == COMPLEX:
        return [complex_sector(yp, ym, N) for yp in diagrams for ym in diagrams
                if yp.column(1) + ym.column(1) <= N]
    return [real_sector(y, N) for y in diagrams if y.column(1) + y.column(2) <= N]


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_enumerate_sectors_matches_the_per_kind_loops(kind):
    for N in range(5):
        for cap in range(5):
            assert list(enumerate_sectors(kind, N, cap)) == _per_kind_sectors(kind, N, cap), (N, cap)


def _per_kind_violation(s):
    if s.field_kind == COMPLEX:
        rp, rm = s.y_plus.column(1), s.y_minus.column(1)
        return f"r+ + r- = {rp}+{rm} > N = {s.N}" if rp + rm > s.N else None
    r, t = s.y_plus.column(1), s.y_plus.column(2)
    return f"r + s = {r}+{t} > N = {s.N}" if r + t > s.N else None


def _per_kind_coords(s, n):
    """h_i = row length + N/2, n per diagram: 2n complex, n real."""
    diagrams = (s.y_plus, s.y_minus) if s.field_kind == COMPLEX else (s.y_plus,)
    return tuple(y.row(i) + Fraction(s.N, 2) for y in diagrams for i in range(1, n + 1))


def _per_kind_gamma(s):
    if s.field_kind == COMPLEX:
        return 2 * (s.N - s.y_plus.column(1) - s.y_minus.column(1))
    return 2 * (s.N - s.y_plus.column(1) - s.y_plus.column(2))


def _per_kind_lambda(s, n):
    coords = list(_per_kind_coords(s, n))
    if s.field_kind == COMPLEX:
        rp, rm = s.y_plus.column(1), s.y_minus.column(1)
        if max(rp, rm) + 1 > n:
            return None
        coords[rp] += 1
        coords[n + rm] += 1
    else:
        r, t = s.y_plus.column(1), s.y_plus.column(2)
        if r + 1 > n:
            return None
        coords[r] += 1
        coords[t] += 1
    return tuple(coords)


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_bound_weight_gamma_and_lambda_match_the_per_kind_formulas(kind):
    """Every label with at most 4 boxes at N <= 4, in bound or not: the
    violation text; in bound, coords(n), gamma and the canonical lambda at
    n <= 4."""
    minus = list(young_diagrams(4)) if kind == COMPLEX else [EMPTY]
    checked = 0
    for N in range(5):
        for yp in young_diagrams(4):
            for ym in minus:
                if yp.size + ym.size > 4:
                    continue
                s = SectorLabel(kind, N, yp, ym)
                assert s.bound_violation() == _per_kind_violation(s), s
                if s.bound_violation() is not None:
                    continue
                checked += 1
                assert casimir.gamma_closed_form(s) == _per_kind_gamma(s), s
                w = weight_from_sector(s)
                for n in range(1, 5):
                    assert w.coords(n) == _per_kind_coords(s, n), (s, n)
                    want = _per_kind_lambda(s, n)
                    if want is None:
                        with pytest.raises(ValueError, match="need n >="):
                            casimir.canonical_lambda(s, n)
                    else:
                        assert casimir.canonical_lambda(s, n) == want, (s, n)
    assert checked == {COMPLEX: 104, REAL: 30}[kind]


def test_a_profile_has_both_species():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    assert len(profile_monomials(ctx, ((1, 0), (0, 1)))) == 4
    with pytest.raises(ValueError):
        profile_monomials(ctx, ((1, 0),))


def _full_kernel(ctx, profile):
    basis = [unit(ctx, m) for m in profile_monomials(ctx, profile)]
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
        for profile in profiles:
            assert _terms(hw_kernel_in_profile(ctx, profile)) == _terms(
                _full_kernel(ctx, profile)), (ctx, profile)


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from([COMPLEX, REAL]), N=st.integers(0, 3), M=st.integers(1, 3),
       cutoff=st.integers(0, 4))
def test_generating_set_kernel_equals_full_kernel_on_small_contexts(kind, N, M, cutoff):
    ctx = FockContext(kind, N, M, max(cutoff, 1)).validate()
    for profile in _profiles(ctx, cutoff):
        assert _terms(hw_kernel_in_profile(ctx, profile)) == _terms(
            _full_kernel(ctx, profile)), profile


def test_every_generator_is_needed():
    # negative control: without X(1,1), or without any one simple E(i,i+1),
    # the kernel is strictly larger on some profile of the gate contexts
    for ctx, profiles in _gate_contexts():
        sizes = {}

        def kernel_size(profile):
            if profile not in sizes:
                sizes[profile] = len(hw_kernel_in_profile(ctx, profile))
            return sizes[profile]

        gens = ground_state_generators(ctx)
        for dropped in gens:
            rest = [g for g in gens if g != dropped]
            assert any(
                len(joint_kernel(ctx, rest, [unit(ctx, m) for m in profile_monomials(ctx, profile)]))
                > kernel_size(profile)
                for profile in profiles), (ctx, dropped)


# ---------------------------------------------------------------------------
# diagonal gauge shards and flavor orbits


def _gate_classify():
    """(context, cutoff, spec) of the two classify benchmark gates."""
    cplx = FockContext(COMPLEX, 3, 4, 6).validate()
    real = FockContext(REAL, 3, 4, 6).validate()
    return [(cplx, 5, None), (real, 6, appendix_spectrum(real, 4))]


def _unsharded_multiplicity(ctx, profile):
    basis = [unit(ctx, m) for m in profile_monomials(ctx, profile)]
    return len(joint_kernel(ctx, ground_state_generators(ctx), basis))


def _checks(ctx):
    """The labels and the two verdicts classify solves under: sharded, and
    one shard per flavor orbit."""
    labels = ground_state_generators(ctx)
    sharded = sectors._keeps_charge(ctx, labels)
    return labels, sharded, sharded and sectors._flavor_symmetric(ctx, labels)


def _classify_matches_the_unsharded_kernels(ctx, cutoff, spec=None):
    """classify's multiplicity of every profile below the cutoff is the
    dimension of the kernel solved over all of the profile's monomials."""
    want = {}
    for profile in _profiles(ctx, cutoff, spec):
        multiplicity = _unsharded_multiplicity(ctx, profile)
        if multiplicity:
            want[weight_from_profile(ctx.field_kind, ctx.N, profile)] = multiplicity
    got = {e["weight"]: e["multiplicity"] for e in classify_spectrum(ctx, cutoff, spec)}
    return got == want


def _orbit_multiplicities_match(ctx, profiles):
    labels, sharded, orbits = _checks(ctx)
    assert sharded and orbits
    for profile in profiles:
        multiplicity = sectors._profile_multiplicity(ctx, profile, labels, sharded, orbits)
        assert multiplicity == len(hw_kernel_in_profile(ctx, profile)) == _unsharded_multiplicity(
            ctx, profile), (ctx, profile)


def test_orbit_multiplicity_equals_the_kernel_and_the_unsharded_kernel_on_gate_contexts():
    for ctx, cutoff, spec in _gate_classify():
        _orbit_multiplicities_match(ctx, _profiles(ctx, cutoff, spec))
        assert _classify_matches_the_unsharded_kernels(ctx, cutoff, spec)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from([COMPLEX, REAL]), N=st.integers(0, 4), M=st.integers(1, 3),
       cutoff=st.integers(0, 4))
def test_orbit_multiplicity_equals_the_kernel_and_the_unsharded_kernel_on_small_contexts(
        kind, N, M, cutoff):
    ctx = FockContext(kind, N, M, max(cutoff, 1)).validate()
    _orbit_multiplicities_match(ctx, _profiles(ctx, cutoff))
    assert _classify_matches_the_unsharded_kernels(ctx, cutoff)


def test_orbit_size_counts_each_orbit_at_its_decreasing_charge():
    sizes = {(1, 0, 0): 3, (0, 1, 0): 0, (2, 2, -1): 3, (1, 1, 1): 1, (2, 1, 0): 6, (): 1,
             (1, 1, 0, 0): 6, (0, 0, 1, 1): 0, (0, 0, 0, 0): 1, (1, 0, 0, 0): 4}
    assert {charge: sectors._orbit_size(charge) for charge in sizes} == sizes


def test_charges_are_the_u1_weights_complex_and_the_flavor_parities_real():
    cplx = FockContext(COMPLEX, 3, 2, 6).validate()
    m = (a_slot(1, 1), a_slot(2, 1), a_slot(1, 3), b_slot(1, 1), b_slot(2, 2))
    assert sectors._gauge_charges(cplx, [m, ()]) == [(1, -1, 1), (0, 0, 0)]
    real = FockContext(REAL, 3, 2, 6).validate()
    assert sectors._gauge_charges(real, [(a_slot(1, 1), a_slot(2, 1), a_slot(1, 3))]) == [(0, 0, 1)]


def _planted(alter):
    """generator_terms with ``alter`` applied to the terms of every label it
    returns a list for."""
    honest = algebra.generator_terms

    def planted(ctx, g):
        terms = honest(ctx, g)
        changed = alter(ctx, g, [(f, *key) for key, f in terms.items()])
        return terms if changed is None else Operator(ctx, changed)
    return planted


def _drop_flavor_n_from_e12(ctx, g, terms):
    if g.kind in ctx.kind.e_kinds and (g.i, g.j) == (1, 2):
        return [t for t in terms if all(s.flavor != ctx.N for s in t[1] + t[2])]
    return None


def _mix_flavors_in_e12(ctx, g, terms):
    # E(1,2) also moves a particle of flavor 2 at mode 2 to flavor 1 at mode 1
    if g.kind in ctx.kind.e_kinds and (g.i, g.j) == (1, 2):
        species = ctx.kind.e_kinds[g.kind]
        return terms + [(1, (ModeSlot(species, 2, 2),), (ModeSlot(species, 1, 1),))]
    return None


def _multiplicities_match_the_unsharded_kernels(ctx, profiles):
    """Under the checks' own verdicts, every profile's multiplicity is the
    dimension of the kernel solved over all of its monomials."""
    checks = _checks(ctx)
    return all(sectors._profile_multiplicity(ctx, profile, *checks) == _unsharded_multiplicity(ctx, profile)
               for profile in profiles)


def test_a_flavor_asymmetric_fault_refuses_the_orbit_reduction(monkeypatch):
    # E(1,2) loses its p = N term: the charge is kept, the flavor symmetry
    # is broken, and one shard per orbit would miscount.  Some profile
    # below the cutoff that is not dominant then has a kernel, so classify
    # itself raises on its weight, as it did before the shards.
    monkeypatch.setattr(algebra, "generator_terms", _planted(_drop_flavor_n_from_e12))
    for ctx, cutoff, spec in _gate_classify():
        labels, sharded, orbits = _checks(ctx)
        assert sharded and not orbits and not sectors._flavor_symmetric(ctx, labels)
        profiles = _profiles(ctx, cutoff, spec)
        assert _multiplicities_match_the_unsharded_kernels(ctx, profiles)
        assert any(sectors._profile_multiplicity(ctx, profile, labels, True, True)
                   != _unsharded_multiplicity(ctx, profile) for profile in profiles)
        with pytest.raises(ValueError, match="head not weakly decreasing"):
            classify_spectrum(ctx, cutoff, spec)


def test_a_flavor_mixing_fault_refuses_the_shards(monkeypatch):
    # E(1,2) gains a term that moves a particle between flavors: the charge
    # is not kept, and kernels solved shard by shard would miscount
    monkeypatch.setattr(algebra, "generator_terms", _planted(_mix_flavors_in_e12))
    for ctx, cutoff, spec in _gate_classify():
        labels, sharded, _ = _checks(ctx)
        assert not sharded
        profiles = _profiles(ctx, cutoff, spec)
        assert _multiplicities_match_the_unsharded_kernels(ctx, profiles)
        assert _classify_matches_the_unsharded_kernels(ctx, cutoff, spec)
        assert any(sectors._profile_multiplicity(ctx, profile, labels, True, False)
                   != _unsharded_multiplicity(ctx, profile) for profile in profiles)
        assert all(_terms(hw_kernel_in_profile(ctx, profile)) == _terms(joint_kernel(
            ctx, labels, [unit(ctx, m) for m in profile_monomials(ctx, profile)]))
            for profile in profiles)


def _union_path_ground_state(ctx, s):
    """The real ground state projected onto the kernel of its whole
    profile, every shard solved."""
    v = vacuum(ctx)
    for h in s.y_plus.column_heights():
        modes = range(1, h + 1)
        v = Operator(ctx, _slot_determinant(SPECIES_A, modes, modes)).apply(v)
    proj = sectors._project_onto(hw_kernel_in_profile(ctx, sector_profile(ctx, s)), v)
    return sectors._canonical_integer_scale(proj)


def test_real_ground_state_from_its_own_shard_equals_the_union_path(hw_cases):
    keys = [(c, s) for c, s in _hw_keys(hw_cases) if c.field_kind == REAL]
    ctx, cutoff, spec = _gate_classify()[1]
    gate = [(ctx, e["sector"]) for e in classify_spectrum(ctx, cutoff, spec)]
    assert keys and gate
    keys += gate
    for ctx, s in keys:
        got = sectors._ground_state.__wrapped__(ctx, s)
        want = _union_path_ground_state(ctx, s)
        assert list(got.items()) == list(want.items()), (ctx, str(s))


# ---------------------------------------------------------------------------
# memoized ground states


def _hw_operations(s, n, ctx, det_ctx):
    """The six operations the benchmark's hw job runs on one case: the
    ground state, its conditions at the right and at a wrong weight, the
    gamma identity, the C_g oracle and the determinant recursion."""
    w = weight_from_sector(s)
    wrong = Weight(w.field_kind, tuple(x + 1 for x in w.head_plus),
                   tuple(x + 1 for x in w.head_minus), w.tail + 1)
    v = build_ground_state(ctx, s)
    assert verify_hw_conditions(ctx, v, w)["ok"]
    assert not verify_hw_conditions(ctx, v, wrong)["ok"]
    casimir.verify_gamma_identity(ctx, s, n)
    casimir.cg_eigenvalue_oracle(ctx, s, n)
    assert determinant_recursion_check(det_ctx, s, 2)["ok"]


def _hw_keys(hw_cases):
    """Every (context, sector) the hw cases build a ground state for: the
    case context and the determinant context of each."""
    return list(dict.fromkeys((c, s) for s, _, ctx, det_ctx in hw_cases for c in (ctx, det_ctx)))


def test_memoized_ground_state_equals_an_uncached_build(hw_cases):
    keys = _hw_keys(hw_cases)
    assert {ctx.field_kind for ctx, _ in keys} == {COMPLEX, REAL}
    for ctx, s in keys:
        got = build_ground_state(ctx, s)
        want = sectors._ground_state.__wrapped__(ctx, s)
        assert (got.ctx, list(got.items())) == (want.ctx, list(want.items())), (ctx, str(s))
        assert build_ground_state(ctx, s) is got


def test_hw_operations_leave_the_shared_ground_states_unchanged(hw_cases):
    before = {key: list(build_ground_state(*key).items()) for key in _hw_keys(hw_cases)}
    for case in hw_cases:
        _hw_operations(*case)
    for key, items in before.items():
        assert list(build_ground_state(*key).items()) == items, key
        assert list(sectors._ground_state.__wrapped__(*key).items()) == items, key


@pytest.fixture(scope="module")
def clean_column_of_two():
    """A ground state built, and memoized, before any fixture of function
    scope runs."""
    s = complex_sector(diagram(1, 1), EMPTY, 2)
    ctx = _ground_context(s)
    return ctx, s, build_ground_state(ctx, s)


def test_a_fault_planted_beneath_the_ground_state_is_not_served_from_the_memo(
        clean_column_of_two, monkeypatch):
    ctx, s, clean = clean_column_of_two
    # every slot determinant becomes a permanent: the column of two turns
    # symmetric in its flavors
    monkeypatch.setattr(sectors, "_slot_determinant", lambda *args: [
        (1, rem, ins) for _, rem, ins in _slot_determinant(*args)])
    faulty = build_ground_state(ctx, s)
    assert faulty == unit(ctx, (a_slot(1, 1), a_slot(2, 2))) + unit(ctx, (a_slot(1, 2), a_slot(2, 1)))
    assert faulty != clean


@pytest.fixture(scope="module")
def clean_d2_star():
    """D_2* at complex (2, 2, 4), built, and memoized, before any fixture
    of function scope runs."""
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    return ctx, adjoint_determinant_terms(ctx, 2)


def test_a_fault_planted_beneath_the_adjoint_determinant_reaches_it(clean_d2_star, monkeypatch):
    ctx, clean = clean_d2_star
    # every slot determinant becomes a permanent, so D_2* becomes the
    # product of two permanents
    monkeypatch.setattr(sectors, "_slot_determinant", lambda *args: [
        (1, rem, ins) for _, rem, ins in _slot_determinant(*args)])
    faulty = adjoint_determinant_terms(ctx, 2)
    assert faulty != clean
    assert {f for _, f in faulty.items()} == {1} and len(faulty) == len(clean)
    words = _word_adjoint_determinant(ctx, 2, 0, vacuum(ctx))
    assert clean.apply(vacuum(ctx)) == words != faulty.apply(vacuum(ctx))

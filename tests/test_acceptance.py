"""Acceptance suite: one test per criterion, exact arithmetic throughout
(zero tolerance).  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion pass/fail lines."""

import json
from fractions import Fraction

from bilocal.algebra import (
    GeneratorLabel,
    Xstar,
    apply_generator,
    charge_terms,
    generator_images,
    generators,
    verify_structure_constants,
)
from bilocal.casimir import (
    canonical_lambda,
    casimir_k,
    casimir_k_eigenvalue,
    gamma_closed_form,
    gamma_value,
    resolve_cg_closed_form,
    verify_gamma_identity,
)
from bilocal.cli import main as cli_main
from bilocal.fock import (
    COMPLEX,
    REAL,
    FockContext,
    basis_monomials,
    inner_product,
    norm_sq,
    unit,
    vacuum,
)
from bilocal.modes import (
    conformal_spectrum_check,
    harmonic_count,
    mode_ccr_coefficient,
    oscillator_normalization,
)
from bilocal.sectors import (
    build_ground_state,
    classify_spectrum,
    determinant_operator,
    determinant_recursion_check,
    norm_recursion_oracle,
    null_vector_order,
    p_polynomial_check,
    verify_hw_conditions,
    weight_from_sector,
)
from bilocal.young import (
    EMPTY,
    SectorLabel,
    bijection_roundtrip_check,
    complex_sector,
    enumerate_sectors,
    gauge_terms,
    real_sector,
    sector_to_irrep_U,
    weyl_dimension_U,
)
from oracles import diagram, vacuum_sector


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {number}: {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _ground_ctx(s, extra=2):
    rows = max(s.y_plus.num_rows, s.y_minus.num_rows)
    return FockContext(s.field_kind, s.N, max(rows + 1, 2), s.total_boxes() + extra).validate()


def test_criterion_1_structure_constants():
    checked = 0
    ok = True
    for kind in (COMPLEX, REAL):
        for N in (1, 2, 3):
            for M in (2, 3):
                ctx = FockContext(kind, N, M, 4).validate()
                report = verify_structure_constants(ctx, generator_images(ctx, shift=True))
                checked += report["pairs_checked"]
                ok = ok and report["ok"]
    _report(1, "structure constants, both kinds, N<=3, M<=3, P=4, <= 2 particles",
            ok, f"{checked} generator pairs")


def test_criterion_2_vacuum_cartan_eigenvalues():
    ok = True
    half = {}
    for kind in (COMPLEX, REAL):
        for N in (0, 1, 2, 3):
            ctx = FockContext(kind, N, 3, 4).validate()
            vac = vacuum(ctx)
            for g in generators(ctx):
                if g.kind in ("Eplus", "Eminus", "E"):
                    want = vac * (Fraction(N, 2) if g.i == g.j else 0)
                    ok = ok and apply_generator(ctx, g, vac) == want
            if kind == COMPLEX:
                ok = ok and charge_terms(ctx).apply(vac).is_zero()
    _report(2, "E(i,j)|0> = (N/2) delta_ij |0> and Q|0> = 0", ok)


def test_criterion_3_norm_oracles():
    checked = 0
    ok = True
    for kind in (COMPLEX, REAL):
        for N in (1, 2, 3):
            for s in enumerate_sectors(kind, N, 3):
                if s.total_boxes() > 3:
                    continue
                ctx = _ground_ctx(s)
                ground = build_ground_state(ctx, s)
                w = weight_from_sector(s)
                g2 = norm_sq(ground)
                ok = ok and verify_hw_conditions(ctx, ground, w)["ok"]
                for i in range(1, ctx.M + 1):
                    for j in range(1, ctx.M + 1):
                        raised = apply_generator(ctx, Xstar(i, j), ground)
                        ok = ok and norm_sq(raised) == norm_recursion_oracle(w, "recX", i, j) * g2
                        checked += 1
                sides = (("Eplus", "plus"), ("Eminus", "minus")) if kind == COMPLEX else (("E", "plus"),)
                for gen_kind, side in sides:
                    for i in range(1, ctx.M + 1):
                        for j in range(i + 1, ctx.M + 1):
                            order = null_vector_order(w, i, j, side)
                            v = ground
                            for n in range(1, order + 1):
                                v = apply_generator(ctx, GeneratorLabel(gen_kind, j, i), v)
                                up = v
                                for _ in range(n):
                                    up = apply_generator(ctx, GeneratorLabel(gen_kind, i, j), up)
                                want = norm_recursion_oracle(w, "recE", i, j, n=n, side=side) * g2
                                ok = ok and inner_product(ground, up) == want
                                checked += 1
                            ok = ok and v.is_zero()  # the null vector of order h_i - h_j + 1
    _report(3, "norm recursions and null vectors match brute force, |Y| <= 3, N <= 3",
            ok, f"{checked} values")


def test_criterion_4_determinant_relations():
    ok = True
    for kind in (COMPLEX, REAL):
        for N in (1, 2):
            ctx = FockContext(kind, N, N + 1, 2 * (N + 1)).validate()
            d_n = determinant_operator(N).dagger().apply(ctx, vacuum(ctx))
            d_n1 = determinant_operator(N + 1).dagger().apply(ctx, vacuum(ctx))
            ok = ok and norm_sq(d_n) > 0 and norm_sq(d_n1) == 0
    for kind, s, n, ctx in (
        (COMPLEX, vacuum_sector(COMPLEX, 2), 2, FockContext(COMPLEX, 2, 3, 6)),
        (COMPLEX, vacuum_sector(COMPLEX, 2), 3, FockContext(COMPLEX, 2, 3, 6)),
        (COMPLEX, complex_sector(diagram(1), EMPTY, 2), 2, FockContext(COMPLEX, 2, 3, 8)),
        (REAL, vacuum_sector(REAL, 2), 2, FockContext(REAL, 2, 3, 6)),
        (REAL, real_sector(diagram(1), 2), 2, FockContext(REAL, 2, 3, 8)),
    ):
        ok = ok and determinant_recursion_check(ctx.validate(), s, n)["ok"]
    for n in (1, 2, 3):
        ok = ok and p_polynomial_check(n)["ok"]
    _report(4, "determinant norms, diagonal recursion, p_n(N) factorial zeros", ok)


def test_criterion_5_casimir_and_gamma():
    ok = True
    # C_k eigenvalue vs operator action
    for kind in (COMPLEX, REAL):
        for N in (1, 2, 3):
            for s in enumerate_sectors(kind, N, 3):
                if s.total_boxes() > 3:
                    continue
                rows = max(s.y_plus.num_rows, s.y_minus.num_rows)
                for n in range(max(rows, 1), 4):
                    ctx = FockContext(kind, N, max(n, 2), s.total_boxes() + 2).validate()
                    ground = build_ground_state(ctx, s)
                    ev = casimir_k_eigenvalue(weight_from_sector(s).coords(n), n, kind)
                    ok = ok and casimir_k(n, kind).apply(ctx, ground) == ground * ev
    # gamma identity on the stated sectors
    gamma_cases = []
    for N in (1, 2):
        gamma_cases.append(vacuum_sector(COMPLEX, N))
        gamma_cases.append(vacuum_sector(REAL, N))
        gamma_cases.append(real_sector(diagram(1), N))
        if N >= 1:
            sc = complex_sector(diagram(1), EMPTY, N)
            sm = complex_sector(EMPTY, diagram(1), N)
            gamma_cases.extend([sc, sm])
    for s in gamma_cases:
        ctx = FockContext(s.field_kind, s.N, 2, s.total_boxes() + 4).validate()
        report = verify_gamma_identity(ctx, s, 2)
        ok = ok and report["ok"] and report["gamma"] == report["gamma_closed_form"]
    # closed form at the canonical lambda for every small sector
    for kind in (COMPLEX, REAL):
        for N in (1, 2, 3):
            for s in enumerate_sectors(kind, N, 3):
                rows = max(s.y_plus.num_rows, s.y_minus.num_rows)
                n = rows + 1
                ok = ok and gamma_value(weight_from_sector(s), canonical_lambda(s, n), n) == gamma_closed_form(s)
    # C_g closed-form ambiguity: resolved against the operator oracle
    cases = []
    for kind, N, rows, n in (
        (COMPLEX, 2, (), 2), (COMPLEX, 2, (1,), 2), (COMPLEX, 3, (1, 1), 3),
        (REAL, 2, (), 2), (REAL, 2, (1,), 2), (REAL, 3, (2, 1), 3),
    ):
        s = SectorLabel(kind, N, diagram(*rows))
        cases.append((FockContext(kind, N, max(n, 2), s.total_boxes() + 4).validate(), s, n))
    resolution = resolve_cg_closed_form(cases)
    ok = ok and resolution["ok"]
    _report(5, "Casimir eigenvalues, gamma identity, closed form 2(2h_inf - r+ - r-)",
            ok, f"C_g eigenvalue = {resolution['verdict']}")


def test_criterion_6_classification_completeness():
    ctx = FockContext(COMPLEX, 2, 3, 6).validate()
    results = classify_spectrum(ctx, 2)
    expected = set()
    for s in enumerate_sectors(COMPLEX, 2, 2):
        energy = sum(i * r for i, r in enumerate(s.y_plus.rows, 1)) + sum(
            i * r for i, r in enumerate(s.y_minus.rows, 1)
        )
        if energy <= 2:
            expected.add(s)
    got = {e["sector"] for e in results}
    ok = got == expected
    for e in results:
        s = e["sector"]
        ok = ok and s is not None and s.bound_violation() is None
        ok = ok and e["multiplicity"] == weyl_dimension_U(sector_to_irrep_U(s), 2)
    vec = [e for e in results if e["sector"] == complex_sector(diagram(1), EMPTY, 2)]
    ok = ok and vec and vec[0]["multiplicity"] == 2
    rctx = FockContext(REAL, 2, 3, 6).validate()
    for e in classify_spectrum(rctx, 2):
        s = e["sector"]
        ok = ok and s is not None and s.y_plus.column(1) + s.y_plus.column(2) <= 2
    _report(6, "classification complete with gauge-dimension multiplicities", ok,
            f"{len(results)} complex sectors at cutoff 2")


def test_criterion_7_gauge_dictionary():
    ok = True
    for N in (1, 2, 3):
        ok = ok and bijection_roundtrip_check("U", N, 4)["ok"]
    for N in (2, 3, 4):
        report = bijection_roundtrip_check("O", N, 4)
        ok = ok and report["ok"]
        for entry in report["entries"]:
            rows = len(entry["sector"]["Y"])
            ok = ok and entry["equivalent_pair"] == (N % 2 == 0 and rows == N // 2)
    _report(7, "U and O sector <-> irrep bijections round-trip, |Y| <= 4", ok)


def test_criterion_8_gauge_commutant():
    ok = True
    checked = 0
    for N in (1, 2, 3):
        ctx = FockContext(COMPLEX, N, 2, 4).validate()
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                gauge = gauge_terms(ctx, p, q)
                for g in generators(ctx):
                    for m in basis_monomials(ctx, 2):
                        v = unit(ctx, m)
                        lhs = gauge.apply(apply_generator(ctx, g, v))
                        rhs = apply_generator(ctx, g, gauge.apply(v))
                        ok = ok and lhs == rhs
                        checked += 1
        for s in enumerate_sectors(COMPLEX, N, 3):
            if s.total_boxes() > 3:
                continue
            ctx_s = _ground_ctx(s, extra=0)
            ground = build_ground_state(ctx_s, s)
            for p in range(1, N + 1):
                for q in range(p + 1, N + 1):
                    ok = ok and gauge_terms(ctx_s, p, q).apply(ground).is_zero()
    _report(8, "gauge generators commute with bilocals and annihilate ground states (p<q)",
            ok, f"{checked} commutants")


def test_criterion_9_mode_spectrum():
    ok = all(harmonic_count(4, ell) == (ell + 1) ** 2 for ell in range(11))
    for D in (4, 6, 8):
        for ell in range(11):
            ok = ok and oscillator_normalization(ell, D) * mode_ccr_coefficient(ell, D) == 1
    for kind, N in ((COMPLEX, 1), (COMPLEX, 2), (REAL, 1)):
        ctx = FockContext(kind, N, 5, 2).validate()
        report = conformal_spectrum_check(ctx, 4)
        ok = ok and report["ok"]
        for lvl in report["levels"]:
            ok = ok and all(x == N * lvl["h"] for x in lvl["per_species"])
    _report(9, "harmonic counts, oscillator normalization, conformal degeneracies", ok)


def test_criterion_10_cli_determinism(capsys):
    ok = True
    commands = [
        ["verify", "--kind", "complex", "--N", "1", "--M", "2", "--P", "4"],
        ["verify", "--kind", "real", "--N", "2", "--M", "2", "--P", "4"],
        ["classify", "--kind", "complex", "--N", "2", "--M", "3", "--P", "6", "--cutoff", "2"],
        ["gram", "--kind", "complex", "--N", "2", "--M", "1", "--P", "4", "--level", "1"],
        ["map-irreps", "--group", "U", "--N", "2", "--cap", "3"],
        ["map-irreps", "--group", "O", "--N", "3", "--cap", "3"],
        ["spectrum", "--D", "4", "--count", "14"],
    ]
    for argv in commands:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        ok = ok and code1 == code2 == 0 and out1 == out2
        line = out1.strip()
        ok = ok and json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line
    # exit-code contract: negative control exits 1, usage error exits 2
    code = cli_main(["verify", "--kind", "complex", "--N", "1", "--M", "2", "--P", "4",
                     "--inject-fault", "drop-e-shift"])
    capsys.readouterr()
    ok = ok and code == 1
    code = cli_main(["verify", "--N", "-1", "--M", "2", "--P", "4"])
    capsys.readouterr()
    ok = ok and code == 2
    with capsys.disabled():
        _report(10, "CLI byte-identical JSON and exit-code contract", ok)

"""Differential tests of the closed forms that read the symmetric-X rule
off ``FieldKind.x_doubling``, and of the one harmonic-level walk in
``modes``, against in-test copies of the per-kind formulas and the
per-function level walks they replaced."""

from fractions import Fraction

import pytest

from bilocal import modes
from bilocal.algebra import OperatorExpr, X, Xstar, apply_generator
from bilocal.casimir import (
    canonical_lambda,
    casimir_g,
    casimir_k,
    gamma_value,
    hw_vectors_at_weight,
    verify_gamma_identity,
)
from bilocal.fock import COMPLEX, REAL, FieldKind, FockContext, norm_sq
from bilocal.linalg import quotient
from bilocal.modes import ModeLabel, conformal_spectrum_check, enumerate_modes, spectrum_table
from bilocal.sectors import (
    build_ground_state,
    determinant_recursion_coefficient,
    norm_recursion_oracle,
    weight_from_sector,
)
from bilocal.young import EMPTY, SectorLabel, complex_sector, real_sector, young_diagrams
from oracles import diagram

# ---------------------------------------------------------------------------
# the per-kind formulas


def _per_kind_rec_x(w, i, j):
    if w.field_kind == COMPLEX:
        return w.component(j, "plus") + w.component(i, "minus")
    base = w.component(i) + w.component(j)
    return base * 2 if i == j else base


def _per_kind_determinant_coefficient(w, n):
    out = 1
    for m in range(1, n + 1):
        if w.field_kind == COMPLEX:
            out *= w.component(m, "plus") + w.component(m, "minus") - m + 1
        else:
            out *= 2 * (2 * w.component(m) - m + 1)
    return out


def _per_kind_casimir_g(n, kind):
    half = Fraction(1, 2) if kind == REAL else 1
    out = casimir_k(n, kind)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xs, x = OperatorExpr.of(Xstar(i, j)), OperatorExpr.of(X(i, j))
            out = out - half * (xs * x) - half * (x * xs)
    return out


def _per_kind_gamma_factor(kind):
    return 2 if kind == COMPLEX else 1


def _in_bound_sectors(kind):
    """Every in-bound label with at most 4 boxes at N <= 4."""
    minus = list(young_diagrams(4)) if kind == COMPLEX else [EMPTY]
    for N in range(5):
        for yp in young_diagrams(4):
            for ym in minus:
                if yp.size + ym.size <= 4:
                    s = SectorLabel(kind, N, yp, ym)
                    if s.bound_violation() is None:
                        yield s


def _closed_form_mismatches(kind):
    """The cases where recX, the determinant recursion coefficient or C_g
    differ from the per-kind formulas: every in-bound sector with at most
    4 boxes and N <= 4, i, j <= 3 and n <= 3."""
    out = []
    for s in _in_bound_sectors(kind):
        w = weight_from_sector(s)
        for i in range(1, 4):
            for j in range(1, 4):
                if norm_recursion_oracle(w, "recX", i, j) != _per_kind_rec_x(w, i, j):
                    out.append(("recX", str(s), i, j))
        for n in range(4):
            if determinant_recursion_coefficient(w, n) != _per_kind_determinant_coefficient(w, n):
                out.append(("det", str(s), n))
    for n in range(1, 4):
        if casimir_g(n, kind) != _per_kind_casimir_g(n, kind):
            out.append(("C_g", n))
    return out


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_closed_forms_equal_the_per_kind_formulas(kind):
    assert list(_in_bound_sectors(kind)), kind
    assert _closed_form_mismatches(kind) == []


def test_a_planted_real_doubling_of_one_fails_the_closed_form_comparison(monkeypatch):
    monkeypatch.setattr(FieldKind, "x_doubling", property(lambda self: 1))
    assert _closed_form_mismatches(COMPLEX) == []
    kinds = {m[0] for m in _closed_form_mismatches(REAL)}
    assert kinds == {"recX", "det", "C_g"}


GAMMA_CASES = [
    (COMPLEX, complex_sector(EMPTY, EMPTY, 2), 2),
    (COMPLEX, complex_sector(diagram(1), EMPTY, 2), 2),
    (REAL, real_sector(EMPTY, 2), 2),
    (REAL, real_sector(diagram(1), 2), 2),
]


@pytest.mark.parametrize("kind,s,n", GAMMA_CASES, ids=[f"{k}-{s}-{n}" for k, s, n in GAMMA_CASES])
def test_gamma_identity_holds_with_the_per_kind_factor(kind, s, n):
    """The per-kind factor makes the identity hold on every hw vector at
    the canonical lambda, and the library's report agrees."""
    ctx = FockContext(kind, s.N, n, s.total_boxes() + 2).validate()
    lam = canonical_lambda(s, n)
    gamma = gamma_value(weight_from_sector(s), lam, n)
    vectors = hw_vectors_at_weight(ctx, build_ground_state(ctx, s), n, lam)
    assert vectors
    rng = range(1, n + 1)
    for v in vectors:
        lhs = sum(norm_sq(apply_generator(ctx, X(i, j), v)) for i in rng for j in rng)
        assert _per_kind_gamma_factor(kind) * lhs == gamma * norm_sq(v)
    report = verify_gamma_identity(ctx, s, n)
    assert report["ok"] and report["checked_vectors"] == len(vectors)


def test_a_planted_real_doubling_of_one_fails_the_gamma_identity(monkeypatch):
    monkeypatch.setattr(FieldKind, "x_doubling", property(lambda self: 1))
    s = real_sector(diagram(1), 2)
    ctx = FockContext(REAL, 2, 2, s.total_boxes() + 2).validate()
    assert not verify_gamma_identity(ctx, s, 2)["ok"]


# ---------------------------------------------------------------------------
# the per-function level walks


def _walk_enumerate_modes(D, count):
    out = []
    ell = 0
    while len(out) < count:
        for mu in range(1, modes.harmonic_count(D, ell) + 1):
            label = ModeLabel(D, ell, mu)
            out.append((label, label.energy))
            if len(out) == count:
                return out
        ell += 1
    return out


def _walk_spectrum_table(D, count):
    rows = []
    cumulative = 0
    ell = 0
    while cumulative < count:
        h = modes.harmonic_count(D, ell)
        cumulative = min(cumulative + h, count)
        rows.append({"ell": ell, "h": h, "energy": ell + quotient(D - 2, 2), "cumulative": cumulative})
        ell += 1
    return rows


def _walk_complete_levels(D, M):
    """(ell, h, energy) of the complete harmonic levels among M modes."""
    levels = []
    cumulative = 0
    ell = 0
    while True:
        h = modes.harmonic_count(D, ell)
        if cumulative + h > M:
            break
        cumulative += h
        levels.append((ell, h, ell + quotient(D - 2, 2)))
        ell += 1
    return levels


def _counting_harmonic_count(monkeypatch):
    calls = []
    real = modes.harmonic_count

    def counted(D, ell):
        calls.append((D, ell))
        return real(D, ell)

    monkeypatch.setattr(modes, "harmonic_count", counted)
    return calls


@pytest.mark.parametrize("D", [4, 6, 8])
def test_level_walk_gives_the_per_function_walks_rows_and_calls(D, monkeypatch):
    """enumerate_modes and spectrum_table give the rows of the walks they
    replaced, count for count, with the same harmonic_count calls (rows
    compared by repr, so an integral energy stays an int)."""
    calls = _counting_harmonic_count(monkeypatch)
    for count in range(41):
        if count:
            want = _walk_enumerate_modes(D, count)
            want_calls = calls[:]
            del calls[:]
            assert repr(enumerate_modes(D, count)) == repr(want), count
            assert calls == want_calls, count
            del calls[:]
        want = _walk_spectrum_table(D, count)
        want_calls = calls[:]
        del calls[:]
        assert repr(spectrum_table(D, count)) == repr(want), count
        assert calls == want_calls, count
        del calls[:]


@pytest.mark.parametrize("D", [4, 6, 8])
def test_spectrum_check_levels_are_the_per_function_walks(D, monkeypatch):
    """The complete levels that conformal_spectrum_check reports at every
    mode cutoff M <= 40, with the harmonic_count calls of the walks it
    replaced (its modes' and its levels')."""
    calls = _counting_harmonic_count(monkeypatch)
    for M in range(1, 41):
        ctx = FockContext(REAL, 1, M, 2).validate()
        _walk_enumerate_modes(D, M)
        want = _walk_complete_levels(D, M)
        want_calls = calls[:]
        del calls[:]
        report = conformal_spectrum_check(ctx, D)
        assert report["ok"], (D, M)
        got = [(row["ell"], row["h"], row["energy"]) for row in report["levels"]]
        assert repr(got) == repr(want), (D, M)
        assert calls == want_calls, (D, M)
        del calls[:]

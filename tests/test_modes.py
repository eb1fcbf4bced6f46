import pytest

from bilocal import algebra
from bilocal.fock import COMPLEX, REAL, FockContext, Operator, basis_monomials, monomial_str
from bilocal.modes import (
    ModeError,
    conformal_spectrum_check,
    enumerate_modes,
    harmonic_count,
    mode_ccr_coefficient,
    oscillator_normalization,
    spectrum_table,
)
from oracles import a_slot


def test_harmonic_count_examples():
    assert harmonic_count(4, 0) == 1
    assert harmonic_count(4, 2) == 9
    assert harmonic_count(6, 1) == 6


def test_harmonic_count_d4_squares():
    for ell in range(11):
        assert harmonic_count(4, ell) == (ell + 1) ** 2


def test_harmonic_count_positive_integers():
    for D in (4, 6, 8, 10):
        for ell in range(21):
            assert harmonic_count(D, ell) >= 1


def test_dimension_validation():
    for D in (2, 3, 5):
        with pytest.raises(ModeError):
            harmonic_count(D, 0)


def test_enumerate_modes_d4():
    modes = enumerate_modes(4, 5)
    assert [e for _, e in modes] == [1, 2, 2, 2, 2]
    assert [m.ell for m, _ in modes] == [0, 1, 1, 1, 1]
    assert [m.mu for m, _ in modes] == [1, 1, 2, 3, 4]


def test_enumerate_modes_single_and_d6():
    (label, energy), = enumerate_modes(4, 1)
    assert energy == 1 == (label.D - 2) // 2
    modes = enumerate_modes(6, 2)
    assert [e for _, e in modes] == [2, 3]


def test_enumerate_modes_deterministic():
    assert enumerate_modes(4, 14) == enumerate_modes(4, 14)


def test_oscillator_normalization():
    assert oscillator_normalization(0, 4) == 1
    assert oscillator_normalization(1, 4) == 2
    assert oscillator_normalization(3, 8) == 2
    for D in (4, 6, 8):
        for ell in range(11):
            assert oscillator_normalization(ell, D) * mode_ccr_coefficient(ell, D) == 1


@pytest.mark.parametrize("ell", [-1, -2, -3])
def test_mode_coefficients_refuse_a_negative_ell(ell):
    # ell = -1 at D = 4 used to divide by zero, and ell = -3 gave -1/2
    for coefficient in (oscillator_normalization, mode_ccr_coefficient):
        with pytest.raises(ModeError, match="ell must be >= 0"):
            coefficient(ell, 4)


def test_conformal_spectrum_check_complex():
    ctx = FockContext(COMPLEX, 1, 5, 2).validate()
    report = conformal_spectrum_check(ctx, 4)
    assert report["ok"]
    by_ell = {lvl["ell"]: lvl for lvl in report["levels"]}
    assert by_ell[0]["per_species"] == [1, 1]  # one a and one b at energy 1
    assert by_ell[1]["per_species"] == [4, 4]


def test_conformal_spectrum_check_flavor_doubling():
    ctx = FockContext(COMPLEX, 2, 5, 2).validate()
    report = conformal_spectrum_check(ctx, 4)
    assert report["ok"]
    assert report["levels"][0]["per_species"] == [2, 2]


def test_conformal_spectrum_check_fails_on_a_term_on_the_wrong_mode(monkeypatch):
    # the oscillator action is compared with the closed form, so a term of
    # the Hamiltonian planted on the wrong mode fails the diagonal check
    terms = algebra.hamiltonian_terms

    def misplaced(ctx, spec):
        out = [(f, rem, ins) for (rem, ins), f in terms(ctx, spec).items()]
        assert out[0][1] == (a_slot(1, 1),)
        out[0] = (out[0][0], (a_slot(2, 1),), (a_slot(2, 1),))
        return Operator(ctx, out)

    monkeypatch.setattr(algebra, "hamiltonian_terms", misplaced)
    ctx = FockContext(COMPLEX, 1, 5, 2).validate()
    report = conformal_spectrum_check(ctx, 4)
    assert not report["ok"]
    failing = {f["monomial"] for f in report["failures"]}
    assert {"{a[1,1]}", "{a[2,1]}"} <= failing
    assert failing <= {monomial_str(m) for m in basis_monomials(ctx, 2)}
    assert all("vacuum_energy" not in f for f in report["failures"])


def test_conformal_spectrum_check_real_single_species():
    ctx = FockContext(REAL, 1, 5, 2).validate()
    report = conformal_spectrum_check(ctx, 4)
    assert report["ok"]
    assert report["levels"][0]["per_species"] == [1]


def test_spectrum_table():
    rows = spectrum_table(4, 14)
    assert [(r["ell"], r["h"], r["cumulative"]) for r in rows] == [
        (0, 1, 1),
        (1, 4, 5),
        (2, 9, 14),
    ]
    assert [r["energy"] for r in rows] == [1, 2, 3]

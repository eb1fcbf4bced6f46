"""Every check's failure branch can fire.  Each test plants one fault with
monkeypatch, so conftest's autouse fixture empties every memo around it
(as clear_memos does), and asserts the failure entry, the refusal or the
exit code that the fault must produce."""

import json

import pytest

from bilocal import algebra, casimir, cli, fock, modes, sectors, young
from bilocal.algebra import Xstar, apply_generator, canonical_hamiltonian
from bilocal.fock import COMPLEX, FockContext, Operator
from bilocal.young import EMPTY, GaugeIrrepU, YoungDiagram, complex_sector
from oracles import diagram, vacuum_sector


# ---------------------------------------------------------------------------
# sectors.p_polynomial_check


@pytest.mark.parametrize("plant,expected", [
    (lambda norm, v: norm + 1, "zero below n"),
    (lambda norm, v: -norm, "positive at N >= n"),
    (lambda norm, v: norm + v.ctx.N ** 3, "order-3 differences vanish"),
], ids=["zero-below-n", "positive-from-n", "finite-differences"])
def test_p_polynomial_check_fails_on_a_wrong_norm(monkeypatch, plant, expected):
    norm_sq = sectors.norm_sq
    monkeypatch.setattr(sectors, "norm_sq", lambda v: plant(norm_sq(v), v))
    report = sectors.p_polynomial_check(2)
    assert not report["ok"]
    assert expected in [f["expected"] for f in report["failures"]]


# ---------------------------------------------------------------------------
# cli._check_vacuum_cartan


def _creation_on_first_slot(ctx, *_):
    """An operator that is nonzero on the vacuum: a*(s) on the first slot."""
    return fock.creation_terms(ctx, ctx.slots()[0])


def test_vacuum_cartan_fails_on_a_wrong_e_image(monkeypatch):
    monkeypatch.setattr(cli, "apply_generator", lambda ctx, g, v: v * 7)
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    report = cli._check_vacuum_cartan(ctx)
    assert not report["ok"]
    assert [f["generator"] for f in report["failures"]] == [
        str(g) for g in algebra.generators(ctx) if g.kind in ctx.kind.e_kinds]


@pytest.mark.parametrize("owner,name,entry", [
    (algebra, "charge_terms", {"charge_on_vacuum": "nonzero", "got": "FockVector(1*{a[1,1]})"}),
    (algebra, "hamiltonian_terms",
     {"canonical_energy_on_vacuum": "nonzero", "got": "FockVector(1*{a[1,1]})"}),
], ids=["charge", "hamiltonian"])
def test_vacuum_cartan_fails_on_an_operator_nonzero_on_the_vacuum(monkeypatch, owner, name, entry):
    monkeypatch.setattr(owner, name, _creation_on_first_slot)
    report = cli._check_vacuum_cartan(FockContext(COMPLEX, 2, 2, 4).validate())
    assert report == {"ok": False, "failures": [entry]}


def test_verify_exits_1_on_a_charge_nonzero_on_the_vacuum(monkeypatch, capsys):
    monkeypatch.setattr(algebra, "charge_terms", _creation_on_first_slot)
    assert cli.main("verify --kind complex --N 1 --M 2 --P 4".split()) == 1
    assert '"charge_on_vacuum":"nonzero"' in capsys.readouterr().out


# ---------------------------------------------------------------------------
# modes.conformal_spectrum_check


def test_conformal_spectrum_check_fails_on_a_wrong_degeneracy(monkeypatch):
    # the first mode moved one level up: the Hamiltonian and the closed
    # form agree on it, but level ell = 0 no longer holds N * h_0 modes
    def shifted(ctx, D):
        energies = [e for _, e in modes.enumerate_modes(D, ctx.M)]
        return canonical_hamiltonian(ctx, [energies[0] + 1] + energies[1:])

    monkeypatch.setattr(modes, "appendix_spectrum", shifted)
    report = modes.conformal_spectrum_check(FockContext(COMPLEX, 1, 5, 2).validate(), 4)
    assert not report["ok"]
    assert {"ell": 0, "per_species": [0, 0], "expected": 1} in report["failures"]


def test_conformal_spectrum_check_fails_on_a_zero_point_energy(monkeypatch):
    terms = algebra.hamiltonian_terms

    def with_zero_point(ctx, spec):
        return Operator(ctx, [(f, rem, ins) for (rem, ins), f in terms(ctx, spec).items()] + [(1, (), ())])

    monkeypatch.setattr(algebra, "hamiltonian_terms", with_zero_point)
    report = modes.conformal_spectrum_check(FockContext(COMPLEX, 1, 5, 2).validate(), 4)
    assert not report["ok"]
    assert [f for f in report["failures"] if "vacuum_energy" in f] == [
        {"vacuum_energy": "FockVector(1*|0>)", "expected": "0"}]


# ---------------------------------------------------------------------------
# casimir


def test_gamma_identity_fails_on_a_wrong_closed_form(monkeypatch):
    closed_form = casimir.gamma_closed_form
    monkeypatch.setattr(casimir, "gamma_closed_form", lambda s: closed_form(s) + 1)
    ctx = FockContext(COMPLEX, 3, 2, 8).validate()
    report = casimir.verify_gamma_identity(ctx, complex_sector(diagram(1), diagram(1), 3), 2)
    assert not report["ok"] and report["case"] == "identity"
    assert report["failures"] == [{"gamma": 2, "closed_form": 3}]


def test_cg_oracle_refuses_an_action_that_is_not_a_scalar(monkeypatch):
    class RaisingX:
        def apply(self, ctx, v):
            return apply_generator(ctx, Xstar(1, 1), v)

    monkeypatch.setattr(casimir, "casimir_g", lambda n, kind: RaisingX())
    ctx = FockContext(COMPLEX, 2, 2, 6).validate()
    with pytest.raises(ArithmeticError, match="does not act as a scalar"):
        casimir.cg_eigenvalue_oracle(ctx, vacuum_sector(COMPLEX, 2), 2)


# ---------------------------------------------------------------------------
# young.bijection_roundtrip_check


def _kinds(report):
    assert not report["ok"]
    return {f["kind"] for f in report["failures"]}


def test_roundtrip_finds_a_collision_of_u_labels(monkeypatch):
    monkeypatch.setattr(young, "sector_to_irrep_U", lambda s: GaugeIrrepU(EMPTY, 0))
    assert "collision" in _kinds(young.bijection_roundtrip_check("U", 2, 2))


def test_roundtrip_finds_a_collision_of_o_labels(monkeypatch):
    vacuum_entry = young.sector_to_irrep_O(EMPTY, 3)
    monkeypatch.setattr(young, "sector_to_irrep_O", lambda y, N: vacuum_entry)
    assert "collision" in _kinds(young.bijection_roundtrip_check("O", 3, 2))


def test_roundtrip_finds_a_wrong_equivalence_flag(monkeypatch):
    to_irrep = young.sector_to_irrep_O
    monkeypatch.setattr(young, "sector_to_irrep_O", lambda y, N: to_irrep(y, N)._replace(
        equivalent_pair=not to_irrep(y, N).equivalent_pair))
    assert "equivalence" in _kinds(young.bijection_roundtrip_check("O", 2, 2))


def test_roundtrip_finds_a_label_mapped_out_of_bound(monkeypatch):
    monkeypatch.setattr(young, "irrep_O_to_sector", lambda irr, N: YoungDiagram((1,) * (N + 1)))
    assert "out_of_bound_back" in _kinds(young.bijection_roundtrip_check("O", 3, 2))


# ---------------------------------------------------------------------------
# cmd_classify


def test_classify_exits_1_on_an_out_of_bound_row(monkeypatch, capsys):
    # a bound that refuses every nonempty diagram: the kernels still find
    # those sectors, and each such row is reported out of bound
    monkeypatch.setattr(young.SectorLabel, "bound_violation",
                        lambda self: "planted" if self.total_boxes() else None)
    assert cli.main("classify --kind complex --N 2 --M 2 --P 4 --cutoff 1".split()) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"] and "failures" not in payload
    assert [r["in_bound"] for r in payload["sectors"]][:2] == [True, False]
    assert all("gauge_irrep" not in r for r in payload["sectors"] if not r["in_bound"])

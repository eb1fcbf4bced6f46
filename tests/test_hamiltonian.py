"""The Hamiltonian summed from the realized Cartan generators.

``algebra.hamiltonian_terms`` builds H = sum_i eps_i (sum over E kinds of
E(i,i) - g_i) from ``generator_terms``, so its c-number is the realized
vacuum Cartan value less the spec's subtractions.  These tests hold it to
the formula written out slot by slot, with the closed form n0 in the
c-number, and plant faults on either side of that comparison: a wrong
closed form (``FieldKind.n0``, which ``canonical_hamiltonian`` reads for
g_i) and a wrong realization (the E(i,i) shift).  Both vacuum-energy
checks, verify's ``vacuum_cartan`` and ``modes.conformal_spectrum_check``,
must fail on each."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bilocal import algebra, cli
from bilocal.algebra import HamiltonianSpec, canonical_hamiltonian, hamiltonian_terms
from bilocal.fock import COMPLEX, REAL, FieldKind, FockContext, Operator, vacuum
from bilocal.linalg import quotient
from bilocal.modes import conformal_spectrum_check


def slotwise_hamiltonian(ctx, spec):
    """H written out over the slots: eps of the slot's mode times a*a on
    every slot, plus sum_i eps_i (n0 - g_i) as the identity term."""
    n0 = ctx.kind.n0(ctx.N)
    terms = [(spec.energies[s.mode - 1], (s,), (s,)) for s in ctx.slots()]
    constant = sum(spec.energies[i] * (n0 - spec.subtractions[i]) for i in range(ctx.M))
    return Operator(ctx, terms + [(constant, (), ())])


CONTEXTS = [(kind, N, M) for kind in (COMPLEX, REAL) for N in range(5) for M in range(1, 5)]


@pytest.mark.parametrize("kind,N,M", CONTEXTS)
def test_canonical_hamiltonian_is_the_slotwise_sum(kind, N, M):
    ctx = FockContext(kind, N, M, 2).validate()
    spec = canonical_hamiltonian(ctx)
    assert hamiltonian_terms(ctx, spec) == slotwise_hamiltonian(ctx, spec)
    assert hamiltonian_terms(ctx, spec).scalar == 0


RATIONALS = st.fractions(min_value=-10, max_value=10, max_denominator=6)


@st.composite
def contexts_and_specs(draw):
    kind, N, M = draw(st.sampled_from(CONTEXTS))
    energies = draw(st.lists(st.fractions(min_value=Fraction(1, 6), max_value=10, max_denominator=6),
                             min_size=M, max_size=M))
    subtractions = draw(st.lists(RATIONALS, min_size=M, max_size=M))
    return FockContext(kind, N, M, 2).validate(), HamiltonianSpec(tuple(sorted(energies)), tuple(subtractions))


@settings(max_examples=200, deadline=None)
@given(contexts_and_specs())
def test_hamiltonian_is_the_slotwise_sum(case):
    ctx, spec = case
    assert hamiltonian_terms(ctx, spec) == slotwise_hamiltonian(ctx, spec)


def _verify(capsys, kind):
    code = cli.main(f"verify --kind {kind} --N 2 --M 2 --P 4".split())
    return code, json.loads(capsys.readouterr().out)


def _failing(payload) -> list:
    return [name for name, check in payload["checks"].items() if not check["ok"]]


def _vacuum_energy(ctx, realized_per_kind, subtraction):
    """c * |0>, c = sum_i eps_i (the E kinds' realized vacuum value - g_i),
    at the canonical energies 1, 2, ..., M (the conformal ones at D = 4,
    M = 2)."""
    realized = realized_per_kind * len(ctx.kind.e_kinds)
    return vacuum(ctx) * sum(i * (realized - subtraction) for i in range(1, ctx.M + 1))


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_vacuum_checks_pass_without_a_plant(capsys, kind):
    code, payload = _verify(capsys, kind)
    assert code == 0 and _failing(payload) == []
    assert conformal_spectrum_check(FockContext(kind, 2, 2, 4).validate(), 4)["ok"]


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_a_wrong_closed_form_n0_fails_both_vacuum_checks(monkeypatch, capsys, kind):
    # n0 planted at N per species, against the N/2 the generators realize
    monkeypatch.setattr(FieldKind, "n0", lambda self, N: len(self.species) * N)
    ctx = FockContext(kind, 2, 2, 4).validate()
    code, payload = _verify(capsys, kind)
    assert code == 1 and _failing(payload) == ["vacuum_cartan"]
    energy = _vacuum_energy(ctx, quotient(ctx.N, 2), ctx.kind.n0(ctx.N))
    assert not energy.is_zero()
    assert payload["checks"]["vacuum_cartan"]["failures"] == [
        {"canonical_energy_on_vacuum": "nonzero", "got": repr(energy)}]
    report = conformal_spectrum_check(ctx, 4)
    assert not report["ok"]
    assert {"vacuum_energy": repr(energy), "expected": "0"} in report["failures"]


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_a_wrong_e_shift_fails_the_vacuum_energy_too(monkeypatch, capsys, kind):
    # each diagonal E shifted by N, not N/2: the tables' scalars move with it
    generator_terms = algebra.generator_terms

    def shifted(ctx, g):
        op = generator_terms(ctx, g)
        if g.kind in ctx.kind.e_kinds and g.i == g.j:
            return op + Operator(ctx, [(quotient(ctx.N, 2), (), ())])
        return op

    monkeypatch.setattr(algebra, "generator_terms", shifted)
    ctx = FockContext(kind, 2, 2, 4).validate()
    code, payload = _verify(capsys, kind)
    assert code == 1 and {"vacuum_cartan", "structure_constants"} <= set(_failing(payload))
    failures = payload["checks"]["vacuum_cartan"]["failures"]
    assert [f["generator"] for f in failures if "generator" in f] == [
        str(g) for g in algebra.generators(ctx) if g.kind in ctx.kind.e_kinds and g.i == g.j]
    energy = _vacuum_energy(ctx, ctx.N, ctx.kind.n0(ctx.N))
    assert {"canonical_energy_on_vacuum": "nonzero", "got": repr(energy)} in failures
    assert not conformal_spectrum_check(ctx, 4)["ok"]

"""Value semantics of the four record types (FieldKind, Weight,
YoungDiagram, SectorLabel), one test per property over all four, and the
start-up weight of the CLI import."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bilocal.fock import COMPLEX, FIELD_KINDS, REAL, FieldKind
from bilocal.sectors import Weight
from bilocal.young import (
    EMPTY,
    SectorLabel,
    YoungDiagram,
    complex_sector,
    enumerate_sectors,
    real_sector,
    young_diagrams,
)
from oracles import diagram

SRC = Path(__file__).resolve().parent.parent / "src"

# name: (class, constructor arguments, field tuple, repr text)
RECORDS = {
    "FieldKind": (FieldKind, (("a",), ("a", "a"), {"E": "a"}, ("",)), (("a",), ("a", "a"), {"E": "a"}, ("",)),
                  "FieldKind(species=('a',), x_legs=('a', 'a'), e_kinds={'E': 'a'}, sides=('',))"),
    "Weight": (Weight, (REAL, [Fraction(5, 2), 3 / Fraction(2)], [], Fraction(1, 2)),
               (REAL, (Fraction(5, 2), Fraction(3, 2)), (), Fraction(1, 2)),
               "Weight(field_kind='real', head_plus=(Fraction(5, 2), Fraction(3, 2)), "
               "head_minus=(), tail=Fraction(1, 2))"),
    "YoungDiagram": (YoungDiagram, ([2, Fraction(1)],), ((2, 1),), "YoungDiagram(rows=(2, 1))"),
    "SectorLabel": (SectorLabel, (COMPLEX, 2, diagram(1)), (COMPLEX, 2, diagram(1), EMPTY),
                    "SectorLabel(field_kind='complex', N=2, y_plus=YoungDiagram(rows=(1,)), "
                    "y_minus=YoungDiagram(rows=()))"),
}
ORDERED = {"YoungDiagram", "SectorLabel"}


def build(name):
    cls, args, _, _ = RECORDS[name]
    return cls(*args)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_are_equal_and_hash_equal(name):
    a, b = build(name), build(name)
    fields = RECORDS[name][2]
    if name == "FieldKind":
        # one record per kind, compared and hashed by identity
        assert a == a and a != b and hash(a) != hash(b)
        assert FIELD_KINDS[REAL] == FIELD_KINDS[REAL] != FIELD_KINDS[COMPLEX]
        return
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_unequal_to_another_class_with_the_same_fields(name):
    cls, args, fields, _ = RECORDS[name]
    twin = type("Twin", (cls,), {})(*args)
    a = build(name)
    assert a != twin and twin != a
    assert a != fields


@pytest.mark.parametrize("name", RECORDS)
def test_order_is_the_field_tuple_order_or_none(name):
    a, b = build(name), build(name)
    if name not in ORDERED:
        for compare in ((lambda: a < b), (lambda: a <= b), (lambda: a > b), (lambda: a >= b)):
            with pytest.raises(TypeError):
                compare()
        return
    assert a <= b and a >= b and not a < b and not a > b
    with pytest.raises(TypeError):
        a < RECORDS[name][2]
    if name == "YoungDiagram":
        diagrams = list(young_diagrams(5))
        assert [str(y) for y in diagrams[:12]] == [
            "[]", "[1]", "[2]", "[1,1]", "[3]", "[2,1]", "[1,1,1]", "[4]", "[3,1]", "[2,2]", "[2,1,1]",
            "[1,1,1,1]"]
        assert sorted(diagrams) == sorted(diagrams, key=lambda y: y.rows)
        assert sorted(diagrams)[:6] == [EMPTY, diagram(1), diagram(1, 1), diagram(1, 1, 1), diagram(1, 1, 1, 1),
                                        diagram(1, 1, 1, 1, 1)]
    else:
        assert [str(s) for s in sorted(enumerate_sectors(COMPLEX, 2, 2))] == [
            "([],[],N=2)", "([],[1],N=2)", "([],[1,1],N=2)", "([],[2],N=2)", "([1],[],N=2)", "([1],[1],N=2)",
            "([1],[2],N=2)", "([1,1],[],N=2)", "([2],[],N=2)", "([2],[1],N=2)", "([2],[2],N=2)"]
        assert [str(s) for s in sorted(enumerate_sectors(REAL, 3, 3))] == [
            "([],N=3)", "([1],N=3)", "([1,1],N=3)", "([1,1,1],N=3)", "([2],N=3)", "([2,1],N=3)", "([3],N=3)"]
        assert complex_sector(EMPTY, EMPTY, 5) < real_sector(EMPTY, 0)
        assert complex_sector(EMPTY, diagram(2), 1) < complex_sector(diagram(1), EMPTY, 1)


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_raises_attribute_error(name):
    a = build(name)
    for field in ("species", "tail", "rows", "N", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, field, 1)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert repr(a) == RECORDS[name][3]


@pytest.mark.parametrize("name", RECORDS)
def test_repr_text(name):
    assert repr(build(name)) == RECORDS[name][3]


REFUSALS = [
    (lambda: YoungDiagram((1, 2)), ValueError, "not weakly decreasing"),
    (lambda: YoungDiagram((2, 0)), ValueError, "must be positive"),
    (lambda: YoungDiagram(("a",)), TypeError, "got str 'a'"),
    (lambda: YoungDiagram(("3", True)), TypeError, "got str '3'"),
    (lambda: YoungDiagram((2, True)), TypeError, "got bool True"),
    (lambda: YoungDiagram((2.7, 1)), TypeError, "got float 2.7"),
    (lambda: YoungDiagram((Fraction(3, 2),)), ValueError, "row length 3/2 is not an integer"),
    (lambda: YoungDiagram(rows=(1,), extra=2), TypeError, "unexpected keyword"),
    (lambda: SectorLabel("x", 1, EMPTY), ValueError, "unknown field kind 'x'"),
    (lambda: SectorLabel(REAL, 1, EMPTY, diagram(1)), ValueError, "single diagram"),
    (lambda: SectorLabel(REAL, -1, EMPTY), ValueError, "N must be an int >= 0, got -1"),
    (lambda: SectorLabel(COMPLEX, 2.5, EMPTY), ValueError, "N must be an int >= 0, got 2.5"),
    (lambda: Weight(REAL, (1.5,), (), 0), TypeError, "got float 1.5"),
    (lambda: Weight(COMPLEX, (3,), (0.5,), 0), TypeError, "got float 0.5"),
    (lambda: Weight(REAL, (3,), (), "x"), TypeError, "got str 'x'"),
    (lambda: Weight(REAL, (1,), (), -1), ValueError, "tail h_inf must be nonnegative"),
    (lambda: Weight(REAL, (1, 2), (), 0), ValueError, "head not weakly decreasing"),
    (lambda: Weight(COMPLEX, (2,), (1,), 1), ValueError, "strictly above the tail"),
    (lambda: Weight(REAL, (2,), (2,), 1), ValueError, "real weights carry a single head"),
    (lambda: Weight("quaternionic", (1,), (), 0), ValueError, "unknown field kind 'quaternionic'"),
    (lambda: Weight(REAL, (5,), (), Fraction(1, 2)), ValueError, "nonnegative integers"),
    (lambda: Weight(REAL, (1,)), TypeError, "missing 2 required positional arguments"),
    (lambda: FieldKind(("a",), ("a", "a"), {"E": "a"}), TypeError, "missing 1 required positional argument"),
]


@pytest.mark.parametrize("make, error, match", REFUSALS)
def test_constructors_refuse_bad_fields(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_keyword_construction_and_defaults():
    assert YoungDiagram() == YoungDiagram(rows=()) == EMPTY
    assert SectorLabel(field_kind=COMPLEX, N=1, y_plus=EMPTY).y_minus is EMPTY
    assert SectorLabel(REAL, 1, EMPTY).y_minus == EMPTY
    w = Weight(field_kind=COMPLEX, head_plus=[2], head_minus=[], tail=Fraction(2, 2))
    assert (w.head_plus, w.head_minus, w.tail) == ((2,), (), 1) and type(w.tail) is int


def test_from_columns_fills_the_column_cache():
    y = YoungDiagram.from_columns((1, 0, 3, 2))
    assert y.__dict__["_columns"] == (3, 2, 1)
    assert y.column_heights() is y.__dict__["_columns"]
    # the cache is outside the fields: eq, hash, order and repr ignore it
    fresh = diagram(3, 2, 1)
    assert "_columns" not in fresh.__dict__
    assert y == fresh and hash(y) == hash(fresh) and not y < fresh and repr(y) == repr(fresh)
    assert fresh.column_heights() == (3, 2, 1)


# Modules a CLI process must not load: dataclasses and inspect cost more
# to import than most checks take; argparse (and gettext, which it loads)
# reads only the argvs cli._read_exact declines; sectors, casimir and
# modes load only in the commands that use them.
NOT_LOADED_BY_THE_CLI = ["argparse", "bilocal.casimir", "bilocal.modes", "bilocal.sectors",
                         "dataclasses", "gettext", "inspect"]
NOT_LOADED_BY_A_RUN = ["argparse", "dataclasses", "gettext", "inspect"]


def _loaded_in_a_child(statements, modules) -> list:
    """Which of ``modules`` a ``python -S`` child has loaded after running
    ``statements`` (-S keeps the host's .pth files from importing any of
    them first)."""
    code = "\n".join([f"import sys; sys.path.insert(0, {str(SRC)!r})", *statements,
                      f"print(*sorted(set({modules!r}) & set(sys.modules)))"])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_importing_the_cli_loads_none_of_the_modules_it_does_not_need():
    assert _loaded_in_a_child(["import bilocal.cli"], NOT_LOADED_BY_THE_CLI) == []
    # a full run of one gate command per subcommand, each with its exit code
    gates = json.loads((SRC.parent / "bench" / "gates.json").read_text())
    runs = {}
    for command in sorted(gates):
        runs.setdefault(command.split()[0], command)
    assert sorted(runs) == ["classify", "gram", "map-irreps", "verify"]
    codes = {command: gates[command]["exit"] for command in runs.values()}
    assert _loaded_in_a_child(["from bilocal import cli", *(
        f"assert cli.main({command.split()!r}) == {code}" for command, code in codes.items())],
        NOT_LOADED_BY_A_RUN) == []
    # help is argparse's: the fallback is live
    assert _loaded_in_a_child(["from bilocal import cli", "assert cli.main(['--help']) == 0"],
                              NOT_LOADED_BY_A_RUN) == ["argparse", "gettext"]


# Every name the package exports, by the module that defines it.
EXPORTS = {
    "algebra": ["E", "Eminus", "Eplus", "GeneratorLabel", "HamiltonianSpec", "OperatorExpr", "X",
                "Xstar", "abstract_commutator", "apply_generator", "canonical_hamiltonian",
                "charge_terms", "generator_images", "hamiltonian_terms", "verify_structure_constants"],
    "fock": ["COMPLEX", "REAL", "FockContext", "FockVector", "ModeSlot", "Operator",
             "apply_annihilation", "apply_creation", "basis_monomials", "inner_product", "norm_sq",
             "vacuum"],
    "sectors": ["Weight", "build_ground_state", "classify_spectrum", "determinant_operator",
                "determinant_recursion_check", "norm_recursion_oracle", "p_polynomial_check",
                "verify_hw_conditions", "weight_from_sector"],
    "young": ["GaugeIrrepO", "GaugeIrrepU", "SectorLabel", "YoungDiagram", "bijection_roundtrip_check",
              "complex_sector", "conjugate_relative", "irrep_U_to_sector", "real_sector",
              "sector_to_irrep_O", "sector_to_irrep_U", "weyl_dimension_U"],
    "casimir": ["casimir_g", "casimir_k", "casimir_k_eigenvalue", "gamma_closed_form", "gamma_value",
                "resolve_cg_closed_form", "verify_gamma_identity"],
    "modes": ["ModeLabel", "conformal_spectrum_check", "enumerate_modes", "harmonic_count",
              "oscillator_normalization"],
}


def test_every_exported_name_resolves_to_its_modules_object():
    """In a fresh process, where no module of the package is loaded yet,
    ``dir(bilocal)`` and ``bilocal.__all__`` list every exported name,
    ``bilocal.<name>`` is ``bilocal.<module>.<name>``, and a submodule is
    an attribute after a bare ``import bilocal``, as when the package
    imported every module."""
    code = f"""
import importlib, sys
sys.path.insert(0, {str(SRC)!r})
import bilocal
assert "bilocal.modes" not in sys.modules and bilocal.modes is sys.modules["bilocal.modes"]
exports = {EXPORTS!r}
names = {{name for names in exports.values() for name in names}}
assert set(bilocal.__all__) == names and names <= set(dir(bilocal))
for module, names in exports.items():
    for name in names:
        assert getattr(bilocal, name) is getattr(importlib.import_module("bilocal." + module), name), name
assert not hasattr(bilocal, "no_such_name")
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

import importlib
import io
import json
import pkgutil
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bilocal
from bilocal import algebra, cli, fock, young
from bilocal.cli import main
from bilocal.fock import COMPLEX, FockContext, Operator, a_slot, basis_monomials, monomial_str
from bilocal.serialize import dumps, jsonable, parse_rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--kind", "complex", "--N", "2", "--M", "2", "--P", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checks"]["structure_constants"]["ok"] is True


def test_verify_real_passes(capsys):
    code, out = run_cli(capsys, "verify", "--kind", "real", "--N", "1", "--M", "2", "--P", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_fault_injection_exits_1(capsys):
    code, out = run_cli(
        capsys, "verify", "--kind", "complex", "--N", "1", "--M", "2", "--P", "4",
        "--inject-fault", "drop-e-shift",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["checks"]["structure_constants"]["failures"]


def test_verify_margin_reaches_every_check(capsys, monkeypatch):
    seen = []

    def spy(ctx, max_particles=None):
        seen.append(max_particles)
        return fock.basis_monomials(ctx, max_particles)

    # MonomialIndex.basis is the one place a verify scan enumerates its basis
    monkeypatch.setattr(algebra, "basis_monomials", spy)
    code, out = run_cli(capsys, "verify", "--N", "1", "--M", "2", "--P", "4", "--margin", "3")
    assert code == 0
    assert json.loads(out)["checks"]["structure_constants"]["basis_size"] == 5
    # ccr, adjointness, charge, gauge and structure constants each scan the
    # monomials with <= P - 3 particles
    assert seen == [1, 1, 1, 1, 1]


# a(1,1) as an (f, rem, ins) term: an operator that commutes with no X*
ANNIHILATE_A11 = ((1, (a_slot(1, 1),), ()),)

# Each verify check must fail when its identity is broken.  A fault is planted
# by replacing one name the check reads, an operator's builder or the dagger:
# (owner, attribute, faulty stand-in).  The fault reaches that check only.
# A failing identity is reported once, and at most five are reported.
NEGATIVE_CONTROLS = [
    pytest.param("ccr", (fock, "creation_terms", lambda ctx, slot: Operator(ctx, ((2, (), (slot,)),))),
                 {"slots", "monomial"}, 5, id="ccr-doubled-creation"),
    pytest.param("adjointness", (cli, "dagger_label", lambda g: g),
                 {"generator"}, 5, id="adjointness-identity-dagger"),
    pytest.param("charge_commutes", (algebra, "charge_terms", lambda ctx: Operator(ctx, ANNIHILATE_A11)),
                 {"generator", "monomial"}, 4, id="charge-noncommuting"),
    pytest.param("gauge_commutant", (young, "gauge_terms", lambda ctx, p, q: Operator(ctx, ANNIHILATE_A11)),
                 {"gauge", "generator", "monomial"}, 5, id="gauge-noncommuting"),
]


@pytest.mark.parametrize("check,fault,keys,count", NEGATIVE_CONTROLS)
def test_verify_check_fails_on_planted_fault(capsys, monkeypatch, check, fault, keys, count):
    monkeypatch.setattr(*fault)
    code, out = run_cli(capsys, "verify", "--kind", "complex", "--N", "2", "--M", "2", "--P", "4")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [name for name, c in checks.items() if not c["ok"]] == [check]
    report = checks[check]
    assert len(report["failures"]) == count
    assert all(set(f) == keys for f in report["failures"])
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    monomials = {monomial_str(m) for m in basis_monomials(ctx, 2)}
    assert all(f["monomial"] in monomials for f in report["failures"] if "monomial" in f)
    identities = [str(sorted((k, str(v)) for k, v in f.items() if k != "monomial"))
                  for f in report["failures"]]
    assert len(set(identities)) == len(identities)


def test_real_gauge_commutant_fails_on_planted_fault(capsys, monkeypatch):
    """The real check runs over the basis M^{pq}, p < q, of o(N) and still
    fails when each M^{pq} loses its second term (a u(N) generator, which
    commutes with no real X)."""
    terms = young.gauge_terms
    monkeypatch.setattr(young, "gauge_terms", lambda ctx, p, q: Operator(
        ctx, [(f, *key) for key, f in terms(ctx, p, q).items() if f > 0]))
    code, out = run_cli(capsys, "verify", "--kind", "real", "--N", "3", "--M", "2", "--P", "4")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [name for name, c in checks.items() if not c["ok"]] == ["gauge_commutant"]
    failures = checks["gauge_commutant"]["failures"]
    assert len(failures) == 5 and all(p < q for p, q in (f["gauge"] for f in failures))


def test_adjointness_decides_each_pair_of_tables_once(capsys, monkeypatch):
    """The real X(i,j) and X(j,i) share one table, and so do Xstar(i,j) and
    Xstar(j,i).  At M = 3 that leaves 6 X/Xstar table pairs and 3 pairs
    E(i,j)/E(j,i), i < j, each read both ways, and 3 self-adjoint E(i,i)
    read once: 21 evaluations where the 15 label pairs made 27."""
    calls = []
    mismatch = cli._adjoint_mismatch
    monkeypatch.setattr(cli, "_adjoint_mismatch", lambda *args: calls.append(args[:2]) or mismatch(*args))
    code, out = run_cli(capsys, "verify", "--kind", "real", "--N", "2", "--M", "3", "--P", "4")
    assert code == 0 and json.loads(out)["checks"]["adjointness"] == {"ok": True, "failures": []}
    assert len(calls) == 21
    assert len({(id(g), id(h)) for g, h in calls}) == 21
    assert len({frozenset((id(g), id(h))) for g, h in calls}) == 12


USAGE_ERRORS = [
    ["verify", "--N", "-1", "--M", "2", "--P", "4"],
    ["classify", "--N", "1", "--cutoff", "1.5"],
    ["classify", "--N", "1", "--cutoff", "abc"],
    ["classify", "--N", "1", "--cutoff", "1/0"],
    ["classify", "--N", "1", "--cutoff", "1", "--D", "5"],
    # a context too small for the request
    ["classify", "--N", "1", "--P", "2", "--cutoff", "5"],
    ["gram", "--N", "2", "--M", "2", "--P", "2", "--yplus", "2,1"],
    ["gram", "--kind", "complex", "--N", "2", "--M", "2", "--P", "3", "--level", "2"],
    # a diagram flag of the other field kind
    ["gram", "--kind", "real", "--N", "2", "--M", "2", "--P", "6", "--level", "2", "--yplus", "1"],
    ["gram", "--kind", "complex", "--N", "2", "--M", "2", "--P", "6", "--level", "2", "--y", "2"],
    # negative sizes
    ["gram", "--N", "1", "--level", "-1"],
    ["map-irreps", "--group", "U", "--N", "2", "--cap", "-1"],
    ["spectrum", "--D", "4", "--count", "-1"],
]


def test_usage_error_exit_2(capsys):
    for argv in USAGE_ERRORS:
        code, out = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv


MALFORMED = ["1/2", "1.5", "abc", ""]


@st.composite
def _values(draw, good, *bad):
    """An option value: mostly one of ``good``, else a fractional or
    malformed one or one of ``bad``."""
    if draw(st.integers(0, 4)):
        return str(draw(st.sampled_from(good)))
    return draw(st.sampled_from(MALFORMED + list(bad)))


DIAGRAMS = _values(["", "1", "2", "1,1", "2,1"], "1,2", "0", "-1")

# (flag, values) per subcommand: mostly valid, else negative, zero,
# fractional or malformed.  Sizes are bounded (N <= 2, M <= 2, P <= 4,
# cap <= 3, count <= 5) so that every run is fast with the size guard on.
CONTEXT_OPTIONS = [("--kind", _values(["complex", "real"])), ("--N", _values(range(3), "-1")),
                   ("--M", _values([1, 2], "0", "-1")), ("--P", _values(range(5), "-1"))]
SUBCOMMAND_OPTIONS = {
    "verify": CONTEXT_OPTIONS + [("--margin", _values(range(2, 5), "0", "-1"))],
    "classify": CONTEXT_OPTIONS + [
        ("--cutoff", _values([0, 1, 2, 3, 4, "1/2", "5/2"], "-1", "-1/2", "1/0")),
        ("--D", _values([4, 6], "0", "-2", "3"))],
    "gram": CONTEXT_OPTIONS + [("--level", _values(range(3), "-1")), ("--yplus", DIAGRAMS),
                               ("--yminus", DIAGRAMS), ("--y", DIAGRAMS)],
    "map-irreps": [("--group", _values(["U", "O"])), ("--N", _values(range(3), "-1")),
                   ("--cap", _values(range(4), "-1"))],
    "spectrum": [("--D", _values([4, 6], "0", "-2", "3")), ("--count", _values(range(6), "-1"))],
}


@st.composite
def small_argv(draw):
    """A subcommand with each of its options present or not (a required one
    missing is a usage error too)."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_OPTIONS)))
    argv = [command]
    for flag, values in SUBCOMMAND_OPTIONS[command]:
        if draw(st.integers(0, 5)):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=80, deadline=None)
@given(small_argv())
def test_exit_code_contract_holds_on_small_argv(argv):
    """0 = pass, 1 = a counterexample in the JSON payload, 2 = usage error
    with nothing on stdout; never a traceback."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
    else:
        assert json.loads(out.getvalue()), argv


def _readme_examples():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bilocal ")]


def test_readme_examples_keep_their_exit_codes(capsys):
    examples = _readme_examples()
    assert len(examples) == 8
    for argv in examples:
        code, out = run_cli(capsys, *argv)
        assert code == (1 if "--inject-fault" in argv else 0), argv
        assert json.loads(out), argv


def test_readme_names_resolve():
    """Every backticked ``module.name`` in README.md, with or without the
    ``bilocal.`` prefix, is an attribute of that ``bilocal`` module; the
    name is read up to its first character that is not one, so
    ``fill_for(left, right, basis)`` counts, and ``linalg.py`` (a file)
    does not."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    modules = "|".join(m.name for m in pkgutil.iter_modules(bilocal.__path__))
    names = set(re.findall(rf"`(?:bilocal\.)?((?:{modules})(?:\.(?!py\b)\w+)+)", text))
    assert len(names) >= 30
    for name in sorted(names):
        owner, *path = name.split(".")
        value = importlib.import_module(f"bilocal.{owner}")
        for attr in path:
            assert hasattr(value, attr), name
            value = getattr(value, attr)


def test_guard_requires_unsafe_large(capsys):
    code, _ = run_cli(capsys, "verify", "--kind", "complex", "--N", "9", "--M", "2", "--P", "4")
    assert code == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_classify_n2(capsys):
    code, out = run_cli(
        capsys, "classify", "--kind", "complex", "--N", "2", "--M", "3", "--P", "6",
        "--cutoff", "2", "--unsafe-large",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    mult = {(tuple(r["Y_plus"]), tuple(r["Y_minus"])): r["multiplicity"] for r in payload["sectors"]}
    assert mult[((1,), ())] == 2
    assert all(r["multiplicity"] == r["gauge_dimension"] for r in payload["sectors"])


def test_classify_fails_when_a_multiplicity_is_not_the_gauge_dimension(capsys, monkeypatch):
    """The duality check of complex classify: a Weyl dimension planted off
    by one for one irrep makes the run exit 1 and names that row alone."""
    argv = ["classify", "--kind", "complex", "--N", "2", "--M", "2", "--P", "4", "--cutoff", "3"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    passing = json.loads(out)
    assert "failures" not in passing
    target = young.sector_to_irrep_U(young.complex_sector(young.YoungDiagram((1,)),
                                                          young.YoungDiagram(()), 2))
    dimension = young.weyl_dimension_U
    monkeypatch.setattr(young, "weyl_dimension_U",
                        lambda irr, N: dimension(irr, N) + (irr == target))
    code, out = run_cli(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    (row,) = [k for k, r in enumerate(passing["sectors"])
              if (r["Y_plus"], r["Y_minus"]) == ([1], [])]
    assert payload["failures"] == [{"row": row, "sector": {"Y_plus": [1], "Y_minus": [], "N": 2},
                                    "multiplicity": 2, "gauge_dimension": 3}]
    assert payload["sectors"][row]["gauge_dimension"] == 3
    del payload["sectors"][row]["gauge_dimension"], passing["sectors"][row]["gauge_dimension"]
    assert payload["sectors"] == passing["sectors"]


def test_classify_n0_vacuum_only(capsys):
    code, out = run_cli(
        capsys, "classify", "--kind", "complex", "--N", "0", "--M", "2", "--P", "4", "--cutoff", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["sectors"][0]["Y_plus"] == []


def test_gram_vacuum_levels(capsys):
    code, out = run_cli(
        capsys, "gram", "--kind", "complex", "--N", "1", "--M", "1", "--P", "4", "--level", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gram"] == [[1]]
    code, out = run_cli(
        capsys, "gram", "--kind", "complex", "--N", "2", "--M", "1", "--P", "4", "--level", "1"
    )
    assert json.loads(out)["gram"] == [[2]]


def test_gram_rejects_out_of_bound_sector(capsys):
    code, out = run_cli(
        capsys, "gram", "--kind", "complex", "--N", "2", "--M", "2", "--P", "6",
        "--yplus", "1,1", "--yminus", "1",
    )
    assert code == 1
    assert "r+ + r-" in json.loads(out)["error"]


def test_map_irreps_u(capsys):
    code, out = run_cli(capsys, "map-irreps", "--group", "U", "--N", "2", "--cap", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {"sector": {"Y_plus": [1], "Y_minus": [], "N": 2}, "irrep": {"Y": [1], "q": 1}} in payload["entries"]


def test_map_irreps_o_signs(capsys):
    code, out = run_cli(capsys, "map-irreps", "--group", "O", "--N", "3", "--cap", "2")
    assert code == 0
    payload = json.loads(out)
    signs = {tuple(e["sector"]["Y"]): e["irrep"]["sign"] for e in payload["entries"]}
    assert signs[(1,)] == "+"
    assert signs[(1, 1)] == "-"


def test_spectrum_levels(capsys):
    code, out = run_cli(capsys, "spectrum", "--D", "4", "--count", "14")
    assert code == 0
    payload = json.loads(out)
    assert [lvl["h"] for lvl in payload["levels"]] == [1, 4, 9]


def test_spectrum_rejects_odd_dimension(capsys):
    assert main(["spectrum", "--D", "5", "--count", "3"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--kind", "real", "--N", "1", "--M", "2", "--P", "4"],
        ["classify", "--kind", "complex", "--N", "1", "--M", "2", "--P", "4", "--cutoff", "2"],
        ["gram", "--kind", "complex", "--N", "1", "--M", "1", "--P", "4", "--level", "2"],
        ["map-irreps", "--group", "O", "--N", "2", "--cap", "2"],
        ["spectrum", "--D", "6", "--count", "7"],
    ],
)
def test_byte_identical_reruns_and_roundtrip(capsys, argv):
    _, out1 = run_cli(capsys, *argv)
    _, out2 = run_cli(capsys, *argv)
    assert out1 == out2
    # parsing and reserializing the emitted JSON is byte-identical
    line = out1.strip()
    assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line


def test_table_format_runs(capsys):
    code, out = run_cli(capsys, "spectrum", "--D", "4", "--count", "5", "--format", "table")
    assert code == 0
    assert "ell" in out


def test_seed_free_flag_accepted(capsys):
    code, _ = run_cli(capsys, "spectrum", "--D", "4", "--count", "1", "--seed-free")
    assert code == 0


def test_rational_serialization():
    from fractions import Fraction

    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(Fraction(4, 2)) == 2
    assert dumps({"x": Fraction(1, 3)}) == '{"x":"1/3"}'
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("7") == 7
    with pytest.raises(ValueError):
        parse_rational("1.5")

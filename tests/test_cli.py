import argparse
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import bilocal
from bilocal import algebra, cli, fock, young
from bilocal.cli import main
from bilocal.fock import COMPLEX, REAL, FockContext, Operator, a_slot, basis_monomials, monomial_str
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


# ---------------------------------------------------------------------------
# the option parser against argparse


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that cli.build_parser replaced: the reference
    for every argv the CLI accepts or refuses."""
    parser = argparse.ArgumentParser(
        prog="bilocal",
        description="Exact verification harness for bilocal field algebras on truncated Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_ctx=True):
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--seed-free", action="store_true",
                       help="accepted for interface stability; computations are always deterministic")
        if with_ctx:
            p.add_argument("--kind", choices=[COMPLEX, REAL], default=COMPLEX)
            p.add_argument("--N", type=int, required=True)
            p.add_argument("--M", type=int, default=2)
            p.add_argument("--P", type=int, default=4)
            p.add_argument("--unsafe-large", action="store_true",
                           help="lift the default N/M/P guards")

    p = sub.add_parser("verify", help="run the algebraic invariant suite")
    add_common(p)
    p.add_argument("--margin", type=int, default=2)
    p.add_argument("--inject-fault", choices=["none", "drop-e-shift"], default="none",
                   help="negative control: drop the N/2 shift of the E generators and expect failure")
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("classify", help="enumerate sectors below an energy cutoff")
    add_common(p)
    p.add_argument("--cutoff", required=True, help="energy cutoff, integer or p/q")
    p.add_argument("--D", type=int, default=0,
                   help="use the conformal mode energies for this spacetime dimension")
    p.set_defaults(func=cli.cmd_classify)

    p = sub.add_parser("gram", help="Gram matrix of level-raised vectors over a ground state")
    add_common(p)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--yplus", default="", help="comma-separated row lengths, e.g. 2,1")
    p.add_argument("--yminus", default="")
    p.add_argument("--y", default="", help="diagram for real sectors")
    p.set_defaults(func=cli.cmd_gram)

    p = sub.add_parser("map-irreps", help="sector <-> gauge irrep dictionary")
    add_common(p, with_ctx=False)
    p.add_argument("--group", choices=["U", "O"], required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--cap", type=int, default=3)
    p.set_defaults(func=cli.cmd_map_irreps)

    p = sub.add_parser("spectrum", help="conformal one-particle spectrum table")
    add_common(p, with_ctx=False)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cli.cmd_spectrum)

    return parser


def _parsed(parser, argv):
    """(namespace as a dict with func by name, or the exit code; stdout;
    stderr) of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            values = dict(vars(parser.parse_args(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    values["func"] = values["func"].__name__
    return values, out.getvalue(), err.getvalue()


# Tokens that are not what their place asks for: a value starting with "-"
# or "--", an option of no command, a flag of another command, "--=" (a
# prefix of every flag: the one ambiguous prefix of this table), a bare
# "--", and -h in its spellings.
VALUES_WITH_DASHES = ["-1", "-0", "-2", "-.5", "-1.5", "-1/2", "-x", "-", "--x", "--N", "--", "-h"]
UNKNOWN_FLAGS = ["--bogus", "--bogus=1", "-x", "-N", "--Nn", "--group", "--level=1", "--=1", "--="]
HELP_SPELLINGS = ["-h", "--help", "--he", "--h", "-hh", "-hx", "--help=1", "-h=h"]


def _flag_indices(argv):
    """Indices of the ``--flag value`` pairs in a small_argv."""
    return [k for k in range(1, len(argv) - 1) if argv[k].startswith("--")
            and not argv[k + 1].startswith("--")]


@st.composite
def mutated_argv(draw):
    """A small_argv with up to three mutations, each kept as drawn even
    where it makes the argv malformed."""
    argv = draw(small_argv())
    flags = [flag for flag, _ in SUBCOMMAND_OPTIONS[argv[0]]] + ["--format", "--seed-free"]
    for _ in range(draw(st.integers(0, 3))):
        pairs = _flag_indices(argv)
        how = draw(st.sampled_from(["join", "prefix", "repeat", "trailing", "unknown", "dash_value",
                                    "bare", "help"]))
        where = draw(st.integers(0, len(argv)))
        if how == "join" and pairs:
            k = draw(st.sampled_from(pairs))
            argv[k:k + 2] = [f"{argv[k]}={argv[k + 1]}"]
        elif how == "prefix" and pairs:
            k = draw(st.sampled_from(pairs))
            argv[k] = argv[k][:draw(st.integers(2, len(argv[k])))]
        elif how == "repeat" and pairs:
            k = draw(st.sampled_from(pairs))
            argv += argv[k:k + 2]
            argv[-1] = draw(st.sampled_from([argv[-1], "0", "1", "2", "x"]))
        elif how == "trailing":
            argv.append(draw(st.sampled_from(flags)))
        elif how == "unknown":
            argv.insert(where, draw(st.sampled_from(UNKNOWN_FLAGS)))
        elif how == "dash_value" and pairs:
            argv[draw(st.sampled_from(pairs)) + 1] = draw(st.sampled_from(VALUES_WITH_DASHES))
        elif how == "bare":
            argv.insert(where, "--")
        elif how == "help":
            argv.insert(where, draw(st.sampled_from(HELP_SPELLINGS)))
    return argv


# argvs where argparse's reading is easy to get wrong
PARSER_EDGES = [
    [], ["--"], ["-h"], ["-hh"], ["-hx"], ["--he"], ["--help=x"], ["frobnicate"], ["-h", "frobnicate"],
    ["--x", "verify", "--N", "1"], ["--x", "verify", "-h"], ["--N", "1", "verify"], ["--", "verify"],
    ["verify"], ["verify", "--N=1", "--uns", "--ma", "3", "--inj=drop-e-shift"],
    ["verify", "--N", "1", "--N", "-2"], ["verify", "--N", "1", "--N=x", "-h"],
    ["verify", "--N", "-h"], ["verify", "-h", "--N", "x"], ["verify", "--N", "1", "--", "-h"],
    ["verify", "--N", "--", "1"], ["verify", "--N", "1", "--seed-free="], ["verify", "--N", "1", "--="],
    ["verify", "--N", "1", "-h=h"], ["verify", "--N", "1", "-h="], ["verify", "--N", "1", "-hhx", "-h"],
    ["verify", "--N", " 1", "--M", "-1", "--P", "+4"], ["verify", "--N", "1", "--kind", "Real"],
    ["gram", "--N", "1", "--y", "-1", "--yp", "-1,2"], ["gram", "--N", "1", "--y=", "--yminus=-x"],
    ["classify", "--N", "1", "--cutoff", "-1/2"], ["classify", "--N", "1", "--cutoff", "-.5", "--D=-4"],
    ["map-irreps", "--group", "U", "--N", "1", "extra"], ["spectrum", "--D", "4", "--count"],
]


def _assert_read_as_argparse_did(argv):
    """The same namespace (func by name), or the same exit code; help goes
    to stdout, an error to stderr with nothing on stdout."""
    got, out, err = _parsed(cli.build_parser(), argv)
    want, _, _ = _parsed(reference_parser(), argv)
    assert got == want, argv
    if got == 0:
        assert out.startswith("usage: bilocal") and not err, argv
    elif got == 2:
        assert not out and err.startswith("usage: bilocal") and ": error: " in err, argv


@settings(max_examples=300, deadline=None)
@given(mutated_argv())
def test_parser_reads_argv_as_argparse_did(argv):
    _assert_read_as_argparse_did(argv)


@pytest.mark.parametrize("argv", PARSER_EDGES, ids=" ".join)
def test_parser_reads_edge_argv_as_argparse_did(argv):
    _assert_read_as_argparse_did(argv)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_names_every_flag(capsys, command):
    """``bilocal CMD --help`` exits 0 and names every flag argparse gave CMD."""
    parser = reference_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = subparsers.choices[command]._option_string_actions
    code, out = run_cli(capsys, command, "--help")
    assert code == 0
    assert all(re.search(rf"(^|[\s\[,]){re.escape(f)}\b", out) for f in flags), out
    # each flag that takes a value is followed, before the next flag or a
    # bracket of the usage line, by its default or "required"
    text = " ".join(out.split())
    for flag, action in flags.items():
        if action.nargs != 0:
            said = "required" if action.required else f"default: {action.default!r}"
            assert re.search(rf"(^|\s){re.escape(flag)}\s((?!\s-)[^\[\]])*\({re.escape(said)}\)", text), (
                flag, out)
    assert run_cli(capsys, "--help")[0] == 0


def _assert_read_exactly(argv):
    """cli._read_exact itself returns the namespace argparse reads from
    ``argv`` (func by name), without falling back on argparse."""
    want, _, _ = _parsed(reference_parser(), argv)
    got = cli._read_exact(argv)
    assert got is not None and dict(vars(got), func=got.func.__name__) == want, argv


def test_exact_reader_reads_every_gate_and_readme_command():
    gates = json.loads((Path(__file__).resolve().parent.parent / "bench" / "gates.json").read_text())
    argvs = [command.split() for command in gates] + _readme_examples()
    assert len(argvs) == 14 + 8
    for argv in argvs:
        _assert_read_exactly(argv)


@settings(max_examples=300, deadline=None)
@given(small_argv())
def test_exact_reader_reads_every_small_argv_argparse_accepts(argv):
    """Every small_argv that argparse accepts, with no value starting with
    "-", is read without argparse: a reader that declined it would cost
    each such run the import."""
    assume(isinstance(_parsed(reference_parser(), argv)[0], dict))
    assume(not any(value.startswith("-") for value in argv[2::2]))
    _assert_read_exactly(argv)


def test_python_m_cli_runs_as_documented():
    """``python -m bilocal.cli``, as README documents it: the negative
    control exits 1 with its gate's pinned bytes, and --help exits 0."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    command = "verify --kind complex --N 1 --M 2 --P 4 --inject-fault drop-e-shift"
    gate = json.loads((root / "bench" / "gates.json").read_text())[command]
    proc = subprocess.run([sys.executable, "-m", "bilocal.cli", *command.split()],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == gate["exit"] == 1, proc.stderr
    assert (len(proc.stdout), hashlib.sha256(proc.stdout).hexdigest()) == (gate["bytes"], gate["sha256"])
    proc = subprocess.run([sys.executable, "-m", "bilocal.cli", "--help"], capture_output=True,
                          env=env, timeout=300)
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: bilocal"), proc.stderr


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

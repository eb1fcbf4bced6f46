"""Every top-level library name is reached: used by a command, by another
library function or by ``bench/``, or named in the README's library-only
list with its reason.

A name counts as reached where a module of ``src/bilocal/`` (other than
the one statement that defines it) or of ``bench/`` names it: as a name,
an attribute, an import, or a piece of a dotted string constant, such as
the attributes the benchmark's tracer wraps.  An undotted string constant
of a library module reaches only a name of its own module, as the
``cmd_*`` names of ``cli.COMMANDS`` do (an equal string in another module,
such as fock's kind "E", is data, not a use); one in ``bench/`` reaches
any name.  The export table of ``bilocal/__init__.py`` reaches nothing:
exporting a name is not using it.  A listed name that is reached, or no
longer defined, is a stale entry."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bilocal"
BENCH = ROOT / "bench"
README = ROOT / "README.md"

# module.name: the library-only names, as README's "Library-only names" lists them
LIBRARY_ONLY = {
    # the label constructors beside X and Xstar
    "algebra.E", "algebra.Eplus", "algebra.Eminus",
    # the paper's closed forms, checked by tests against brute force
    "casimir.casimir_k_eigenvalue", "casimir.resolve_cg_closed_form",
    "sectors.norm_recursion_oracle", "sectors.null_vector_order", "sectors.p_polynomial_check",
    "modes.oscillator_normalization", "modes.mode_ccr_coefficient",
    "modes.conformal_spectrum_check",
    # the word-by-word reference for sectors.adjoint_determinant_terms
    "sectors.determinant_operator",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _named(tree) -> tuple:
    """The identifiers that a tree names, and its undotted string constants."""
    names, strings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.match(node.value):
            (names if "." in node.value else strings).update(node.value.split("."))
    return names, strings


def reached(src: Path, others) -> dict:
    """``module.name`` of every top-level def and class of the package
    ``src``, in file and line order, with whether another statement of it
    or a module in the directories ``others`` names it; an undotted string
    of ``src`` counts only in its own module."""
    defined, named, own = [], set(), set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names, strings = _named(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
                names.discard(node.name)
                strings.discard(node.name)
            named |= names
            own |= {(path.stem, s) for s in strings}
    for path in sorted(p for d in others for p in d.glob("*.py")):
        named |= set().union(*_named(ast.parse(path.read_text())))
    return {f"{module}.{name}": name in named or (module, name) in own for module, name in defined}


def stray_and_stale(names: dict, listed: set) -> tuple:
    """The unreached names ``listed`` leaves out, and the listed names that
    are reached or not defined, each sorted."""
    stray = sorted(name for name, hit in names.items() if not hit and name not in listed)
    return stray, sorted(name for name in listed if names.get(name, True))


def readme_library_only() -> list:
    """The names of README's ``## Library-only names`` list: the
    backquoted names before the colon of each item."""
    section = README.read_text().split("\n## Library-only names\n", 1)[1].split("\n## ", 1)[0]
    items = [item.split(": ", 1)[0] for item in re.split(r"\n- ", section)[1:]]
    return [name for item in items for name in re.findall(r"`([\w.]+)`", item)]


def test_every_library_name_is_reached():
    stray, stale = stray_and_stale(reached(SRC, [BENCH]), LIBRARY_ONLY)
    assert not stray, f"top-level names nothing in src/ or bench/ uses: {stray}"
    assert not stale, f"library-only entries that are reached or not defined: {stale}"


def test_library_only_names_match_the_readme():
    listed = readme_library_only()
    assert len(listed) == len(set(listed))
    assert set(listed) == LIBRARY_ONLY


def test_reachability_guard_sees_planted_sites(tmp_path):
    src, bench = tmp_path / "pkg", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text('_EXPORTS = {"m": ("exported",)}\n')
    (src / "m.py").write_text(
        "import os\n"
        "def exported(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Alone:\n    def method(self): return Alone()\n"
        "def called(): pass\n"
        "def caller(): return called()\n"
        "def attribute(): pass\n"
        "def imported(): pass\n"
        "def by_string(): pass\n"
        "def by_dotted_string(): pass\n"
        "def by_bench_string(): pass\n"
        "def by_foreign_string(): pass\n"
        "TABLE = {'x': 'by_string'}\n")
    (src / "n.py").write_text("KINDS = ('by_foreign_string',)\n")
    (bench / "job.py").write_text(
        "from pkg import m\nfrom pkg.m import imported\n"
        "m.attribute()\nTARGETS = ['m.by_dotted_string', 'by_bench_string']\n")
    names = reached(src, [bench])
    assert [name for name, hit in names.items() if not hit] == [
        "m.exported", "m.recursive", "m.Alone", "m.caller", "m.by_foreign_string"]
    listed = {"m.exported", "m.recursive", "m.Alone", "m.by_foreign_string", "m.called", "m.gone"}
    assert stray_and_stale(names, listed) == (["m.caller"], ["m.called", "m.gone"])

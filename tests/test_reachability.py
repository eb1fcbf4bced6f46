"""Every top-level library name and every class member is reached: used
by a command, by another library function or by ``bench/``, or named in
the README's library-only list with its reason.

A name counts as reached where a module of ``src/bilocal/`` (other than
the one statement that defines it) or of ``bench/`` names it: as a name,
an attribute, an import, or a piece of a dotted string constant, such as
the attributes the benchmark's tracer wraps.  An undotted string constant
of a library module reaches only a name of its own module, as the
``cmd_*`` names of ``cli.COMMANDS`` do (an equal string in another module,
such as fock's kind "E", is data, not a use); one in ``bench/`` reaches
any name.  The export table of ``bilocal/__init__.py`` reaches nothing:
exporting a name is not using it.

A method or property of a class (a dunder method is exempt) counts as
reached where another statement of ``src/bilocal/`` or ``bench/`` names
it as an attribute or a piece of a dotted string, where any string of
``bench/`` holds it, or where a statement of its own class body outside
a def names it (as ``_ZeroImage`` aliases ``_read_only``).  A bare name
elsewhere is a variable, not a use of a member.  A listed name that is
reached, or no longer defined, is a stale entry."""

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
    "sectors.determinant_operator", "algebra.OperatorExpr.dagger",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _named(tree) -> tuple:
    """The identifiers that a tree names as names or imports, those it names
    as attributes or pieces of dotted string constants, and its undotted
    string constants."""
    names, attributes, strings = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.match(node.value):
            (attributes if "." in node.value else strings).update(node.value.split("."))
    return names, attributes, strings


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _members(node) -> list:
    """The method and property defs of a top-level class, dunders exempt."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [stmt for stmt in node.body if isinstance(stmt, DEFS[:2])
            and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]


def _statements(node) -> list:
    """A top-level statement in the parts whose uses count apart: a class is
    split into its header and its body statements, so that a member's own
    def does not reach it."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.bases, *node.keywords, *node.decorator_list, *node.body]


def reached(src: Path, others) -> dict:
    """``module.name`` of every top-level def and class of the package
    ``src``, each followed by ``module.Class.member`` of its members, in
    file and line order, with whether it is reached (the module docstring's
    rules) by another statement of ``src`` or a module in the directories
    ``others``."""
    defined, named, attributes, own = [], set(), set(), set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            members = _members(node)
            for stmt in _statements(node):
                names, attrs, strings = _named(stmt)
                if isinstance(node, DEFS):
                    for found in (names, attrs, strings):
                        found.discard(node.name)
                if stmt in members:
                    attrs.discard(stmt.name)
                named |= names | attrs
                attributes |= attrs
                own |= {(path.stem, s) for s in strings}
            if isinstance(node, DEFS):
                defined.append((path.stem, node.name, node.name, None))
            # a member is also reached by a name in its class body outside a def
            class_body = [stmt for stmt in node.body if not isinstance(stmt, DEFS)] if members else []
            body = set().union(*(_named(stmt)[0] for stmt in class_body))
            defined += [(path.stem, f"{node.name}.{member.name}", member.name, member.name in body)
                        for member in members]
    for path in sorted(p for d in others for p in d.glob("*.py")):
        names, attrs, strings = _named(ast.parse(path.read_text()))
        named |= names | attrs | strings
        attributes |= attrs | strings
    return {f"{module}.{qualname}": (name in named or (module, name) in own) if in_body is None
            else in_body or name in attributes
            for module, qualname, name, in_body in defined}


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
        "class Reader:\n"
        "    def read(self): pass\n"
        "    def unread(self): return self.unread()\n"
        "    def named_only(self): pass\n"
        "    @property\n    def by_bench_string_member(self): pass\n"
        "    def aliased(self): pass\n"
        "    alias = aliased\n"
        "    def __repr__(self): return ''\n"
        "def called(): pass\n"
        "def caller(): return called()\n"
        "def attribute(): pass\n"
        "def imported(): pass\n"
        "def by_string(): pass\n"
        "def by_dotted_string(): pass\n"
        "def by_bench_string(): pass\n"
        "def by_foreign_string(): pass\n"
        "TABLE = {'x': 'by_string'}\n")
    (src / "n.py").write_text("KINDS = ('by_foreign_string',)\nREAD = Reader().read()\nnamed_only = 1\n")
    (bench / "job.py").write_text(
        "from pkg import m\nfrom pkg.m import imported\n"
        "m.attribute()\nTARGETS = ['m.by_dotted_string', 'by_bench_string', 'by_bench_string_member']\n")
    names = reached(src, [bench])
    assert [name for name, hit in names.items() if not hit] == [
        "m.exported", "m.recursive", "m.Alone", "m.Alone.method", "m.Reader.unread", "m.Reader.named_only",
        "m.caller", "m.by_foreign_string"]
    listed = {"m.exported", "m.recursive", "m.Alone", "m.Alone.method", "m.Reader.unread", "m.by_foreign_string",
              "m.called", "m.gone", "m.Reader.read", "m.Reader.gone"}
    assert stray_and_stale(names, listed) == (
        ["m.Reader.named_only", "m.caller"], ["m.Reader.gone", "m.Reader.read", "m.called", "m.gone"])

"""Exact coefficients: an int when the value is integral, a Fraction with
denominator > 1 otherwise, never a float.

- Every true division in the library is audited: two ints divide to a
  float, so each site below has a Fraction operand.
- Floats are refused where coefficients enter a combination.
- The int-first combination and echelon agree, values and key order, with
  copies of their all-Fraction forms.
- The outputs of the hw and verify paths are in canonical form."""

import ast
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilocal import algebra, cli
from bilocal.algebra import Eplus, OperatorExpr, X, apply_generator
from bilocal.casimir import canonical_lambda, hw_vectors_at_weight
from bilocal.fock import (
    COMPLEX,
    FockContext,
    FockVector,
    a_slot,
    apply_annihilation,
    gram_matrix,
    vacuum,
)
from bilocal.linalg import Combination, RowSpan, add_scaled, det, nullspace, solve
from bilocal.sectors import build_ground_state, hw_kernel_in_profile, joint_kernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bilocal"

# ---------------------------------------------------------------------------
# every "/" in src/bilocal, audited

# (file, enclosing function, expression): why an operand is a Fraction
AUDITED_DIVISIONS = {
    ("linalg.py", "quotient", "Fraction(a) / b"): "the dividend is taken as a Fraction",
    ("linalg.py", "positive_semidefinite", "a[k][i] / pivot"):
        "the matrix is copied into Fractions before the elimination",
    ("modes.py", "oscillator_normalization", "(ell + d0) / d0"): "d0 = Fraction(D - 2, 2)",
    ("modes.py", "mode_ccr_coefficient", "d0 / (ell + d0)"): "d0 = Fraction(D - 2, 2)",
    ("sectors.py", "classify_spectrum", "energy_cutoff / min(energies)"):
        "energy_cutoff and the energies are converted with Fraction",
    ("sectors.py", "_profiles_below.occ_vectors", "rem / e"):
        "the energies are Fractions (classify_spectrum converts them)",
}


def _divisions(path: Path):
    """(enclosing function, expression) of every true division in a file."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((".".join(scope) or "<module>", ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_every_division_is_audited():
    sites = [(p.name, fn, expr) for p in sorted(SRC.glob("*.py")) for fn, expr in _divisions(p)]
    unaudited = [s for s in sites if s not in AUDITED_DIVISIONS]
    assert not unaudited, f"divisions without a Fraction operand on record: {unaudited}"
    assert set(AUDITED_DIVISIONS) <= set(sites), "stale allowlist entries"


def test_division_guard_sees_planted_sites(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("class R:\n    def push(self, c, pivot):\n        c /= pivot\n"
                       "        return {k: c / pivot for k in ()}\n")
    assert _divisions(planted) == [("R.push", "c /= pivot"), ("R.push", "c / pivot")]


# ---------------------------------------------------------------------------
# floats are refused at the door

CTX = FockContext(COMPLEX, 1, 2, 3).validate()
MONO = (a_slot(1, 1),)


@pytest.mark.parametrize("entry", [
    lambda: Combination({0: 0.5}),
    lambda: FockVector(CTX, {MONO: 0.1}),
    lambda: FockVector(CTX, {MONO: 1}) * 0.5,
    lambda: 0.5 * FockVector(CTX, {MONO: 1}),
    lambda: FockVector(CTX, {MONO: 1}).plus([(0.5, FockVector(CTX, {MONO: 1}))]),
    lambda: OperatorExpr.scalar(0.5),
    lambda: OperatorExpr.of(X(1, 1), 0.5),
    lambda: OperatorExpr.of(X(1, 1)) * 2.0,
    lambda: nullspace([[0.5, 1]], ncols=2),
    lambda: solve([[1]], [0.5]),
], ids=["Combination", "FockVector", "mul", "rmul", "plus", "scalar", "of", "expr-mul",
        "nullspace", "solve"])
def test_float_coefficients_raise_type_error(entry):
    with pytest.raises(TypeError):
        entry()


def test_rational_coefficients_are_stored_canonically():
    v = FockVector(CTX, {MONO: Fraction(4, 2), (): True})
    assert [type(c) for c in v.terms.values()] == [int, int]
    assert (v * Fraction(1, 2)).terms == {MONO: 1, (): Fraction(1, 2)}
    assert type(OperatorExpr.scalar(Fraction(3, 1)).terms[()]) is int
    assert type(OperatorExpr.of(X(1, 1), Fraction(3, 2)).terms[(X(1, 1),)]) is Fraction
    # the oscillator action: the odd-N shift 1/2 on 2|0>, and the Wick count
    # 2 of a doubled slot on 1/2 a*a*|0>
    shifted = apply_generator(CTX, Eplus(1, 1), vacuum(CTX) * 2)
    lowered = apply_annihilation(CTX, MONO[0], FockVector(CTX, {MONO * 2: Fraction(1, 2)}))
    assert [(v.terms, type(v.terms[m])) for v, m in ((shifted, ()), (lowered, MONO))] == [
        ({(): 1}, int), ({MONO: 1}, int)]


# ---------------------------------------------------------------------------
# differential: the all-Fraction forms, copied as they were first written


def reference_combination(terms):
    return {k: Fraction(c) for k, c in terms.items() if Fraction(c)}


def reference_plus(start, pairs):
    out = dict(reference_combination(start))
    for f, terms in pairs:
        add_scaled(out, reference_combination(terms), Fraction(f))
    return out


def reference_mul(terms, scalar):
    scalar = Fraction(scalar)
    return {k: c * scalar for k, c in reference_combination(terms).items()} if scalar else {}


class ReferenceRowSpan:
    def __init__(self):
        self._rows = {}

    def _push(self, vec):
        vec = {k: Fraction(c) for k, c in vec.items() if c}
        while vec:
            lead = min(vec)
            row = self._rows.get(lead)
            if row is None:
                pivot = vec[lead]
                self._rows[lead] = {k: c / pivot for k, c in vec.items()}
                return lead, pivot
            add_scaled(vec, row, -vec[lead])
        return None, Fraction(0)

    def _kernel(self, ncols):
        pivots = sorted(self._rows, reverse=True)
        basis = []
        for free in range(ncols):
            if free in self._rows:
                continue
            x = {free: Fraction(1)}
            for p in pivots:
                if p < free:
                    s = -sum(c * x[k] for k, c in self._rows[p].items() if k in x)
                    if s:
                        x[p] = s
            basis.append([x.get(j, Fraction(0)) for j in range(ncols)])
        return basis


def reference_echelon(rows):
    span = ReferenceRowSpan()
    for row in rows:
        span._push(row)
    return span


def reference_solve(a, b):
    n = len(a)
    span = reference_echelon(row | {n: -Fraction(bi)} for row, bi in zip(a, b))
    if len(span._rows) != n or n in span._rows:
        raise ValueError("singular system")
    return span._kernel(n + 1)[0][:n]


def reference_det(a):
    span, leads, out = ReferenceRowSpan(), [], Fraction(1)
    for row in a:
        lead, pivot = span._push(row)
        if lead is None:
            return Fraction(0)
        leads.append(lead)
        out *= pivot
    for i, x in enumerate(leads):
        for y in leads[i + 1:]:
            if y < x:
                out = -out
    return out


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


# Few keys and values, so that sums collide and cancel, and halves that
# add up to integers.
VALUES = [-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(4, 2)]
COEFFS = st.sampled_from(VALUES)
SPARSE_MAPS = st.dictionaries(st.integers(0, 5), COEFFS, max_size=6)


def _same(got: dict, want: dict):
    assert list(got.items()) == list(want.items())
    assert all(canonical(c) and c for c in got.values())


@settings(deadline=None)
@given(SPARSE_MAPS, st.lists(st.tuples(COEFFS, SPARSE_MAPS), max_size=5), COEFFS)
def test_plus_and_mul_match_all_fraction_forms(start, pairs, scalar):
    got = Combination(start).plus([(f, Combination(terms)) for f, terms in pairs])
    _same(got.terms, reference_plus(start, pairs))
    _same((got * scalar).terms, reference_mul(got.terms, scalar))
    _same((scalar * Combination(start)).terms, reference_mul(start, scalar))


@st.composite
def sparse_matrices(draw, square=False):
    nrows = draw(st.integers(0, 4))
    ncols = nrows if square else draw(st.integers(0, 4))
    row = st.dictionaries(st.integers(0, max(ncols - 1, 0)), COEFFS, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@settings(deadline=None)
@given(sparse_matrices())
def test_nullspace_matches_all_fraction_echelon(matrix):
    rows, ncols = matrix
    got = nullspace(rows, ncols=ncols)
    assert got == reference_echelon(rows)._kernel(ncols)
    assert all(canonical(c) for x in got for c in x)


@settings(deadline=None)
@given(sparse_matrices(square=True), st.lists(COEFFS, min_size=4, max_size=4))
def test_det_and_solve_match_all_fraction_echelon(matrix, rhs):
    a, n = matrix
    d = det(a)
    assert d == reference_det(a) and canonical(d)
    b = rhs[:n]
    if d:
        x = solve(a, b)
        assert x == reference_solve(a, b) and all(canonical(c) for c in x)
    else:
        with pytest.raises(ValueError):
            solve(a, b)


def test_rowspan_pivot_one_keeps_row_and_divides_exactly():
    span = RowSpan()
    assert span._push({0: 1, 1: Fraction(1, 2)}) == (0, 1)
    assert span._push({0: 1, 1: 2, 2: 3}) == (1, Fraction(3, 2))
    assert span._rows == {0: {0: 1, 1: Fraction(1, 2)}, 1: {1: 1, 2: 2}}
    assert [type(c) for c in span._rows[1].values()] == [int, int]


# ---------------------------------------------------------------------------
# canonical form on the hw and verify paths


def _hw_cases():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return list(workloads.hw_cases())


def _assert_canonical(where, values):
    bad = [c for c in values if not canonical(c)]
    assert not bad, (where, bad[:3])


def test_hw_path_coefficients_are_canonical():
    cases = _hw_cases()
    assert cases
    for s, n, ctx, _ in cases:
        tag = (str(s), ctx)
        ground = build_ground_state(ctx, s)
        _assert_canonical(("ground", tag), ground.terms.values())
        vectors = hw_vectors_at_weight(ctx, ground, n, canonical_lambda(s, n))
        profile = hw_kernel_in_profile(ctx, *_profile(ctx, s))
        kernel = joint_kernel(ctx, [X(1, 1)], [ground] + vectors)
        for name, vs in (("hw_vectors", vectors), ("profile", profile), ("kernel", kernel)):
            _assert_canonical((name, tag), [c for v in vs for c in v.terms.values()])
            _assert_canonical((name + " gram", tag), [c for row in gram_matrix(vs) for c in row])


def _profile(ctx, s):
    diagrams = (s.y_plus, s.y_minus) if ctx.field_kind == COMPLEX else (s.y_plus,)
    rows = [tuple(y.row(i) for i in range(1, ctx.M + 1)) for y in diagrams]
    return rows[0], rows[1] if len(rows) > 1 else None


VERIFY_GATES = [
    "verify --kind complex --N 1 --M 2 --P 4 --inject-fault drop-e-shift",
    "verify --kind complex --N 1 --M 3 --P 4",
    "verify --kind complex --N 2 --M 2 --P 4",
    "verify --kind real --N 2 --M 3 --P 4",
]


@pytest.mark.parametrize("command", VERIFY_GATES)
def test_verify_image_tables_are_canonical(monkeypatch, capsys, command):
    caches = []
    init = algebra.ImageCache.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        caches.append(self)

    monkeypatch.setattr(algebra.ImageCache, "__init__", recording_init)
    cli.main(command.split())
    capsys.readouterr()
    assert len(caches) >= 6  # structure constants, ccr (2), adjointness, charge or gauge
    values = [c for cache in caches for table in cache._tables.values()
              for image in table.values() for c in image.values()]
    assert values
    _assert_canonical(command, values)
    assert (Fraction in {type(c) for c in values}) == ("--N 1" in command)

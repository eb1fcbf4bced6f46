"""Exact numbers: an int when the value is integral, a Fraction with
denominator > 1 otherwise, never a float; for the coefficients of a
combination and for scalars alike.

- Exact numbers are made one way: ``Fraction`` is named only in
  ``linalg.py`` and ``serialize.py``, and the one true division in the
  library is the one inside ``linalg.quotient``.
- Floats are refused where coefficients enter a combination and at the
  scalar entry points (weights, Hamiltonian specs, the energy cutoff).
- The int-first combination and the reduced echelon agree, values and key
  order, with copies of their all-Fraction forms, and the PSD test with a
  dense symmetric elimination (Schur complements).
- The outputs of the hw and verify paths, scalars included, are in
  canonical form."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilocal import algebra, cli
from bilocal.algebra import (
    Eplus,
    HamiltonianSpec,
    OperatorExpr,
    X,
    apply_generator,
    canonical_hamiltonian,
    hamiltonian_terms,
)
from bilocal.casimir import (
    canonical_lambda,
    casimir_k_eigenvalue,
    cg_candidate_printed,
    cg_candidate_shifted_delta,
    gamma_value,
    hw_vectors_at_weight,
)
from bilocal.fock import (
    COMPLEX,
    REAL,
    FockContext,
    FockVector,
    Operator,
    apply_annihilation,
    gram_matrix,
    vacuum,
)
from bilocal.linalg import (
    Combination,
    RowSpan,
    add_scaled,
    det,
    nullspace,
    positive_semidefinite,
    solve,
)
from bilocal.sectors import (
    Weight,
    build_ground_state,
    classify_spectrum,
    determinant_recursion_coefficient,
    hw_kernel_in_profile,
    joint_kernel,
    norm_recursion_oracle,
    sector_profile,
    weight_from_sector,
)
from oracles import a_slot, vacuum_sector

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bilocal"

# ---------------------------------------------------------------------------
# one way to make an exact number: Fraction in linalg and serialize only,
# every "/" through linalg.quotient

# (file, enclosing function, expression): why an operand is a Fraction
AUDITED_DIVISIONS = {
    ("linalg.py", "quotient", "Fraction(a) / b"): "the dividend is taken as a Fraction",
}

# linalg makes every exact number (rational, quotient); serialize prints
# and parses them
FRACTION_MODULES = {"linalg.py", "serialize.py"}


def _sites(path: Path, hit):
    """(enclosing function, source) of every node of a file that ``hit``
    selects."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if hit(node):
            found.append((".".join(scope) or "<module>", ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def _divisions(path: Path):
    """Every true division in a file."""
    return _sites(path, lambda node: isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def _names_fraction(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "Fraction"
    if isinstance(node, ast.Attribute):
        return node.attr == "Fraction"
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return (getattr(node, "module", None) == "fractions"
                or any(a.name in ("fractions", "Fraction") for a in node.names))
    return False


def _fraction_names(path: Path):
    """Every import of ``fractions`` and every use of the name ``Fraction``
    in a file, annotations included."""
    return _sites(path, _names_fraction)


def test_every_division_is_audited():
    sites = [(p.name, fn, expr) for p in sorted(SRC.glob("*.py")) for fn, expr in _divisions(p)]
    unaudited = [s for s in sites if s not in AUDITED_DIVISIONS]
    assert not unaudited, f"divisions outside linalg.quotient: {unaudited}"
    assert set(AUDITED_DIVISIONS) <= set(sites), "stale allowlist entries"


def test_division_guard_sees_planted_sites(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("class R:\n    def push(self, c, pivot):\n        c /= pivot\n"
                       "        return {k: c / pivot for k in ()}\n")
    assert _divisions(planted) == [("R.push", "c /= pivot"), ("R.push", "c / pivot")]


def test_fraction_is_named_only_in_linalg_and_serialize():
    sites = {p.name: _fraction_names(p) for p in sorted(SRC.glob("*.py"))}
    outside = {name: found for name, found in sites.items()
               if found and name not in FRACTION_MODULES}
    assert not outside, f"Fraction named outside {sorted(FRACTION_MODULES)}: {outside}"
    assert all(sites[name] for name in FRACTION_MODULES), "stale module entries"


def test_fraction_guard_sees_planted_sites(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("import fractions\nfrom fractions import Fraction as F\n"
                       "class W:\n    tail: Fraction\n"
                       "    def half(self, n) -> Fraction:\n"
                       "        return fractions.Fraction(n, 2)\n")
    assert _fraction_names(planted) == [
        ("<module>", "import fractions"), ("<module>", "from fractions import Fraction as F"),
        ("W", "Fraction"), ("W.half", "fractions.Fraction"), ("W.half", "Fraction")]


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
    lambda: Operator(CTX, [(0.5, (), (MONO[0],))]),
    lambda: OperatorExpr({(): 0.5}),
    lambda: OperatorExpr.of(X(1, 1), 0.5),
    lambda: OperatorExpr.of(X(1, 1)) * 2.0,
    lambda: nullspace([[0.5, 1]], ncols=2),
    lambda: solve([[1]], [0.5]),
    lambda: positive_semidefinite([[0.1, 0.1], [0.1, 0.1]]),
    lambda: casimir_k_eigenvalue((0.1, 0), 1),
    lambda: gamma_value(weight_from_sector(vacuum_sector(COMPLEX, 1)), (0.5, 0), 1),
    lambda: canonical_hamiltonian(CTX, (0.1, 0.2)),
    lambda: Weight(COMPLEX, (1.5,), (), 0.5),
    lambda: Weight(COMPLEX, (2,), (1,), 0.5),
    lambda: HamiltonianSpec((0.1, 0.2), (1, 1)).validate(CTX),
    lambda: HamiltonianSpec((1, 2), (1, 0.5)).validate(CTX),
    lambda: hamiltonian_terms(CTX, HamiltonianSpec((0.1, 0.2), (1, 1))).apply(vacuum(CTX)),
    lambda: classify_spectrum(CTX, 0.3),
    lambda: classify_spectrum(CTX, 1, HamiltonianSpec((0.5, 1), (1, 1))),
], ids=["Combination", "FockVector", "mul", "rmul", "plus", "Operator", "scalar", "of", "expr-mul",
        "nullspace", "solve", "positive_semidefinite", "casimir_k_eigenvalue", "gamma_value",
        "canonical_hamiltonian", "Weight-head", "Weight-tail", "HamiltonianSpec-energy",
        "HamiltonianSpec-subtraction", "apply_hamiltonian", "classify-cutoff", "classify-spec"])
def test_float_coefficients_raise_type_error(entry):
    with pytest.raises(TypeError):
        entry()


def test_rational_coefficients_are_stored_canonically():
    v = FockVector(CTX, {MONO: Fraction(4, 2), (): True})
    assert [type(c) for c in v.terms.values()] == [int, int]
    assert (v * Fraction(1, 2)).terms == {MONO: 1, (): Fraction(1, 2)}
    assert type(OperatorExpr({(): Fraction(3, 1)}).terms[()]) is int
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


def reference_positive_semidefinite(a) -> bool:
    """The dense symmetric elimination: each pivot is replaced by the Schur
    complement of its row and column.  A negative pivot fails, and so does a
    zero pivot whose row is nonzero."""
    a = [[Fraction(x) for x in row] for row in a]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0 or (pivot == 0 and any(a[k][k + 1:])):
            return False
        for i in range(k + 1, n):
            if a[k][i]:
                f = a[k][i] / pivot
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return True


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
    assert [[x.get(j, 0) for j in range(ncols)] for x in got] == reference_echelon(rows)._kernel(ncols)
    assert all(list(x) == sorted(x) for x in got)
    assert all(canonical(c) and c for x in got for c in x.values())


@settings(deadline=None)
@given(st.lists(SPARSE_MAPS, max_size=6))
def test_rowspan_rows_stay_fully_reduced(rows):
    span = RowSpan()
    for row in rows:
        span.add(row)
    for lead, row in span._rows.items():
        assert min(row) == lead and row[lead] == 1
        assert not any(p in row for p in span._rows if p != lead)
        assert all(canonical(c) and c for c in row.values())


@st.composite
def symmetric_matrices(draw):
    """Symmetric entries drawn freely, or b^T b (PSD, often singular) less
    a drawn diagonal entry, so that both verdicts and the boundary occur."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        b = [[draw(COEFFS) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
        a = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        if n:
            i = draw(st.integers(0, n - 1))
            a[i][i] -= draw(st.sampled_from([0, 0, Fraction(1, 2)]))
        return a
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(COEFFS)
    return a


@settings(deadline=None, max_examples=300)
@given(symmetric_matrices())
def test_positive_semidefinite_matches_dense_elimination(a):
    assert positive_semidefinite(a) == reference_positive_semidefinite(a)


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
    assert span._rows == {0: {0: 1, 2: -1}, 1: {1: 1, 2: 2}}
    assert [type(c) for row in span._rows.values() for c in row.values()] == [int] * 4


# ---------------------------------------------------------------------------
# canonical form on the hw and verify paths


def _assert_canonical(where, values):
    bad = [c for c in values if not canonical(c)]
    assert not bad, (where, bad[:3])


def test_hw_path_coefficients_are_canonical(hw_cases):
    assert hw_cases
    for s, n, ctx, _ in hw_cases:
        tag = (str(s), ctx)
        ground = build_ground_state(ctx, s)
        _assert_canonical(("ground", tag), ground.terms.values())
        vectors = hw_vectors_at_weight(ctx, ground, n, canonical_lambda(s, n))
        profile = hw_kernel_in_profile(ctx, sector_profile(ctx, s))
        kernel = joint_kernel(ctx, [X(1, 1)], [ground] + vectors)
        for name, vs in (("hw_vectors", vectors), ("profile", profile), ("kernel", kernel)):
            _assert_canonical((name, tag), [c for v in vs for c in v.terms.values()])
            _assert_canonical((name + " gram", tag), [c for row in gram_matrix(vs) for c in row])
        w, lam = weight_from_sector(s), canonical_lambda(s, n)
        _assert_canonical(("scalars", tag), [
            *w.coords(n), *lam, gamma_value(w, lam, n), casimir_k_eigenvalue(lam, n, ctx.field_kind),
            cg_candidate_shifted_delta(w, n), cg_candidate_printed(w, n),
            determinant_recursion_coefficient(w, n), norm_recursion_oracle(w, "recX", 1, n),
            norm_recursion_oracle(w, "recE", 1, n + 1, 2)])


@pytest.mark.parametrize("ctx,energies", [
    (FockContext(COMPLEX, 3, 3, 4), None),
    (FockContext(REAL, 3, 2, 5), (Fraction(1, 2), Fraction(3, 2))),
], ids=["complex", "real-halves"])
def test_classify_scalars_are_canonical(ctx, energies):
    spec = canonical_hamiltonian(ctx, energies)
    results = classify_spectrum(ctx, Fraction(5, 2), spec)
    assert results
    _assert_canonical(ctx, [*spec.energies, *spec.subtractions] + [
        x for r in results for x in (r["energy"], *r["weight"].coords(ctx.M))])


VERIFY_GATES = [
    "verify --kind complex --N 1 --M 2 --P 4 --inject-fault drop-e-shift",
    "verify --kind complex --N 1 --M 3 --P 4",
    "verify --kind complex --N 2 --M 2 --P 4",
    "verify --kind real --N 2 --M 3 --P 4",
]


@pytest.mark.parametrize("command", VERIFY_GATES)
def test_verify_image_tables_are_canonical(monkeypatch, capsys, command):
    tables, generator_tables = [], []
    init, build = algebra.ImageTable.__init__, algebra.generator_images

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    def recording_build(*args, **kwargs):
        generator_tables.append(build(*args, **kwargs))
        return generator_tables[-1]

    monkeypatch.setattr(algebra.ImageTable, "__init__", recording_init)
    monkeypatch.setattr(cli, "generator_images", recording_build)
    cli.main(command.split())
    capsys.readouterr()
    # exactly one table per distinct generator operator per run (the real
    # X(i,j) and X(j,i) share one, Xstar likewise); the others are one per
    # slot for each ladder (ccr) and, per commutant scan, one per gauge
    # basis element and, complex only, the charge's.  The charge and gauge
    # checks scan once, on the Lie generating set, and once more, on every
    # generator, where structure constants fail (drop-e-shift).
    ctx = cli._context(cli.build_parser().parse_args(command.split()))
    (images,) = generator_tables
    assert list(images) == list(algebra.generators(ctx))
    complex_ = ctx.field_kind == COMPLEX
    distinct = len(images) - (0 if complex_ else ctx.M * (ctx.M - 1))
    assert len({id(t) for t in images.values()}) == distinct
    gauge = ctx.N ** 2 if complex_ else ctx.N * (ctx.N - 1) // 2
    scans = 2 if "drop-e-shift" in command else 1
    assert len(tables) == distinct + 2 * len(ctx.slots()) + scans * (gauge + complex_)
    assert {id(t) for t in images.values()} <= {id(t) for t in tables}
    # entries are None until filled, and images are keyed by monomial ids:
    # the generator, charge and gauge tables share one index, the ladders
    # have their own
    values = [c for table in tables for image in table if image is not None
              for c in image.values()]
    assert len({id(t.index) for t in tables}) == 2
    assert values
    _assert_canonical(command, values)
    # the N/2 shift is kept apart as a scalar, so tables hold ints at every N
    assert {type(c) for c in values} == {int}

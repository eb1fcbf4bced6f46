"""The charge and gauge commutant checks on a Lie generating set.

The operators that commute with a fixed one form a Lie algebra (Jacobi),
so ``bilocal verify`` commutes the charge and each gauge element with the
bilocal ``lie_generating_set`` only, and takes a pass as final when
structure constants pass in the same run and the generating set suffices
(``algebra.generating_set_suffices``: P >= 4, and real tables that
respect X(i,j) = X(j,i)).  Otherwise, and whenever the reduced scan
fails, it scans every generator, so every payload is the full scan's.  The gauge side keeps its full basis; the
brackets of its term lists are checked here."""

import hashlib
import io
import json
from contextlib import redirect_stdout
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bilocal import algebra, cli, young
from bilocal.algebra import (
    X,
    XSTAR_KIND,
    X_KIND,
    GeneratorLabel,
    ImageTable,
    MonomialIndex,
    abstract_commutator,
    commutator_counterexample,
    fill_for,
    generator_images,
    generators,
    lie_generating_set,
    verify_structure_constants,
)
from bilocal.fock import COMPLEX, REAL, FockContext, Operator
from bilocal.linalg import RowSpan, add_scaled

# the contexts of the verify gates in bench/gates.json
GATE_CONTEXTS = [(COMPLEX, 1, 2, 4), (COMPLEX, 1, 3, 4), (COMPLEX, 2, 2, 4), (REAL, 2, 3, 4)]


def _label_key(g, kind):
    """A sortable key of a label, X(i,j) = X(j,i) identified in the real case."""
    if kind == REAL and g.kind in (X_KIND, XSTAR_KIND):
        g = GeneratorLabel(g.kind, min(g.i, g.j), max(g.i, g.j))
    return tuple(g)


def _bracket(a: dict, b: GeneratorLabel, kind) -> dict:
    """[a, b] for a combination a of label keys, by the structure relations."""
    out = {}
    for g, c in a.items():
        for (h,), x in abstract_commutator(GeneratorLabel(*g), b, kind).items():
            add_scaled(out, {_label_key(h, kind): x}, c)
    return out


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_lie_generating_set_spans_the_bilocal_algebra(kind, M):
    """Every bracket of the generating set with what it has reached, kept
    when independent, spans 4M^2 dimensions (complex) and M(2M + 1)
    (real): the whole algebra."""
    ctx = FockContext(kind, 1, M, 1).validate()
    gens = lie_generating_set(ctx)
    assert len(gens) == (4 * M if kind == COMPLEX else 2 * M + 1)
    span, todo = RowSpan(), []
    for g in gens:
        assert span.add({_label_key(g, kind): 1})
        todo.append({_label_key(g, kind): 1})
    rank = len(todo)
    while todo:
        a = todo.pop()
        for b in gens:
            c = _bracket(a, b, kind)
            if span.add(c):
                rank += 1
                todo.append(c)
    every = {_label_key(g, kind) for g in generators(ctx)}
    assert rank == len(every) == (4 * M * M if kind == COMPLEX else M * (2 * M + 1))


def _jacobi_failures(kind, M, identify) -> int:
    """The label triples (x, y, z) whose [x,[y,z]] + [y,[z,x]] + [z,[x,y]],
    by the structure relations, is not zero, with X(i,j) = X(j,i) and
    Xstar(i,j) = Xstar(j,i) identified or not."""
    key = _label_key if identify else (lambda g, kind: tuple(g))
    labels = list(generators(FockContext(kind, 1, M, 1).validate()))

    def bracket(a: dict, b: dict) -> dict:
        out = {}
        for g, c in a.items():
            for h, d in b.items():
                for (k,), x in abstract_commutator(GeneratorLabel(*g), GeneratorLabel(*h), kind).items():
                    add_scaled(out, {key(k, kind): x}, c * d)
        return out

    failures = 0
    for x, y, z in product(labels, repeat=3):
        x, y, z = ({key(g, kind): 1} for g in (x, y, z))
        total = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            add_scaled(total, bracket(a, bracket(b, c)), 1)
        failures += any(total.values())
    return failures


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_structure_relations_obey_jacobi_up_to_the_real_identifications(kind):
    """Exactly in the complex case, where nothing is identified.  In the
    real case only with X(i,j) = X(j,i) and Xstar(i,j) = Xstar(j,i): so
    structure constants take a scan of the generating set as final only
    on tables that respect these (``algebra.generating_set_suffices``)."""
    assert _jacobi_failures(kind, 3, identify=True) == 0
    if kind == REAL:
        assert _jacobi_failures(kind, 3, identify=False) > 0


def _verdicts(ctx):
    """(reduced, full) verdicts of the charge and gauge checks."""
    images = generator_images(ctx, shift=True)
    reduced = lie_generating_set(ctx)
    return [(check(ctx, images, reduced)["ok"], check(ctx, images)["ok"])
            for check in (cli._check_charge_commutes, cli._check_gauge_commutant)]


@pytest.mark.parametrize("context", GATE_CONTEXTS, ids=str)
def test_reduced_commutant_verdict_is_the_full_one_on_gate_contexts(context):
    ctx = FockContext(*context).validate()
    assert verify_structure_constants(ctx, generator_images(ctx, shift=True))["ok"]
    for reduced, full in _verdicts(ctx):
        assert reduced == full


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([COMPLEX, REAL]), st.integers(0, 2), st.integers(1, 3), st.integers(4, 5))
def test_reduced_commutant_verdict_is_the_full_one_on_small_contexts(kind, N, M, P):
    ctx = FockContext(kind, N, M, P).validate()
    for reduced, full in _verdicts(ctx):
        assert reduced == full


def _verify(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", *argv])
    return code, out.getvalue()


def test_fault_outside_the_generating_set_gets_the_full_scan(monkeypatch):
    """X(2,3) loses its flavor-N term.  It is not in the generating set, so
    the reduced gauge scan passes; structure constants fail, so verify
    scans every generator and reports what the full scan reports."""
    terms, target = algebra.generator_terms, X(2, 3)

    def faulty(ctx, g):
        if g != target:
            return terms(ctx, g)
        return Operator(ctx, [(f, *key) for key, f in terms(ctx, g).items()][:-1])

    monkeypatch.setattr(algebra, "generator_terms", faulty)
    ctx = FockContext(COMPLEX, 2, 3, 4).validate()
    assert target not in lie_generating_set(ctx)
    code, out = _verify("--kind", "complex", "--N", "2", "--M", "3", "--P", "4")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert not checks["structure_constants"]["ok"]
    images = generator_images(ctx, shift=True)
    assert checks["charge_commutes"] == cli._check_charge_commutes(ctx, images)
    assert checks["gauge_commutant"] == cli._check_gauge_commutant(ctx, images)
    assert not checks["gauge_commutant"]["ok"]
    assert cli._check_gauge_commutant(ctx, images, lie_generating_set(ctx))["ok"]


# stdout SHA-256 of verify runs outside the reduced regime (P < 4),
# as printed before the commutant checks used the generating set
SMALL_PAYLOADS = {
    "--kind complex --N 0 --M 1 --P 2":
        "589a13c0bddd300d643c43281b4123808512c833e9374d8d8c441f185d9b3b70",
    "--kind real --N 0 --M 1 --P 2":
        "ee10a4b33ab6cef2e5e8eb94f42da1bb76de88fa0c0c2f6199160a673314c1b6",
    "--kind complex --N 1 --M 2 --P 3":
        "78491caef758f6787f62897aac1df87c4b40c71dbd404b82664a6e498021ea03",
}


@pytest.mark.parametrize("argv", sorted(SMALL_PAYLOADS))
def test_small_contexts_scan_every_generator_and_keep_their_payloads(monkeypatch, argv):
    scanned = []
    for name in ("_check_charge_commutes", "_check_gauge_commutant"):
        check = getattr(cli, name)

        def spy(ctx, images, labels=None, check=check):
            scanned.append(labels)
            return check(ctx, images, labels)

        monkeypatch.setattr(cli, name, spy)
    code, out = _verify(*argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SMALL_PAYLOADS[argv]
    assert scanned == [None, None]


# ---------------------------------------------------------------------------
# the gauge algebra of young.gauge_terms


def _delta(a, b):
    return 1 if a == b else 0


def gauge_bracket_failures(ctx) -> list:
    """The gauge basis pairs whose bracket, on the scan basis, is not the
    u(N) one, [E^{pq}, E^{rs}] = d_qr E^{ps} - d_sp E^{rq} (complex), or the
    o(N) one, [M^{pq}, M^{rs}] = d_qr M^{ps} + d_ps M^{qr} - d_qs M^{pr}
    - d_pr M^{qs}, with M^{qp} = -M^{pq} and M^{pp} = 0 (real)."""
    flavors = range(1, ctx.N + 1)
    complex_ = ctx.field_kind == COMPLEX
    index = MonomialIndex(ctx)
    tables = {(p, q): ImageTable(index, young.gauge_terms(ctx, p, q))
              for p in flavors for q in flavors if p < q or complex_}

    def element(p, q, coeff):
        """coeff times the basis element (p, q), as (coeff, table) terms."""
        if complex_ or p < q:
            return [(coeff, tables[p, q])]
        return [(-coeff, tables[q, p])] if p > q else []

    def expected(p, q, r, s):
        if complex_:
            terms = element(p, s, _delta(q, r)) + element(r, q, -_delta(s, p))
        else:
            terms = (element(p, s, _delta(q, r)) + element(q, r, _delta(p, s))
                     + element(p, r, -_delta(q, s)) + element(q, s, -_delta(p, r)))
        return [(c, t) for c, t in terms if c], 0

    basis = index.basis()
    fill_for(tables.values(), tables.values(), basis)
    return [(a, b) for a in tables for b in tables
            if commutator_counterexample(ctx, tables[a], tables[b], expected(*a, *b), basis)]


BRACKET_CONTEXTS = GATE_CONTEXTS + [(kind, N, 2, 4) for kind in (COMPLEX, REAL) for N in range(4)]


@pytest.mark.parametrize("context", BRACKET_CONTEXTS, ids=str)
def test_gauge_terms_realize_their_algebra(context):
    assert gauge_bracket_failures(FockContext(*context).validate()) == []


@pytest.mark.parametrize("kind", [COMPLEX, REAL])
def test_gauge_bracket_check_fails_with_the_second_term_sign_flipped(monkeypatch, kind):
    terms = young.gauge_terms
    monkeypatch.setattr(young, "gauge_terms", lambda ctx, p, q: Operator(ctx, [
        (-f if k % 2 else f, rem, ins) for k, ((rem, ins), f) in enumerate(terms(ctx, p, q).items())]))
    # at N = 3: o(2) has the one basis element M^{12}, whose bracket with itself vanishes anyway
    assert gauge_bracket_failures(FockContext(kind, 3, 2, 4).validate())

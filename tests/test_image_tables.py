"""The one oscillator loop, ``fock.Operator``, and verify's image tables.

``Operator.images`` is the oscillator loop over many inputs of
(monomial, coefficient) pairs, with one image per input, and
``Operator.apply`` is its form for one FockVector.
``reference_apply_normal_ordered`` below is the loop as first written,
on FockVectors and a plain list of (f, rem, ins) terms.  They must agree
input by input, key order included.  An Operator merges equal products
when it is built, and acts as its unmerged terms do.  An ``ImageTable``
holds the loop's images of single monomials, by monomial id, under an
operator's ``body``, with its identity coefficient kept apart as the
``scalar``."""

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bilocal import algebra, cli, fock, young
from bilocal.algebra import apply_generator, charge_terms, generator_images, generator_terms, generators
from bilocal.fock import (
    COMPLEX,
    REAL,
    FockContext,
    FockVector,
    Operator,
    annihilation_terms,
    basis_monomials,
    creation_terms,
    unit,
)
from bilocal.linalg import add_scaled, canonical
from bilocal.sectors import _slot_determinant, adjoint_determinant_terms
from oracles import a_slot


def reference_apply_normal_ordered(ctx, terms, v):
    out, items = {}, v.terms.items()
    for f, rem, ins in terms:
        image = {}
        for m, c in items:
            for s in rem:
                k = m.count(s)
                if not k:
                    break
                idx = m.index(s)
                m, c = m[:idx] + m[idx + 1 :], c if k == 1 else c * k
            else:
                if not ins:
                    image[m] = c
                elif len(m) + len(ins) <= ctx.P:
                    image[tuple(sorted(m + ins))] = c
        if image:
            add_scaled(out, image, f)
    return FockVector._wrap(canonical(out), ctx)


def same(got: dict, want: FockVector):
    """Equal, with the same key order."""
    return list(got.items()) == list(want.items())


def triples(op):
    """The (f, rem, ins) terms of an Operator, in its order."""
    return [(f, rem, ins) for (rem, ins), f in op.items()]


# the contexts of the verify gates in bench/gates.json
GATE_CONTEXTS = [(COMPLEX, 1, 2, 4), (COMPLEX, 1, 3, 4), (COMPLEX, 2, 2, 4), (REAL, 2, 3, 4)]


def verify_operators(ctx):
    """Every operator a verify check reads: the generators with and
    without the N/2 shift, the gauge generators, the ladders and the
    charge."""
    for g in generators(ctx):
        op = generator_terms(ctx, g)
        yield op
        yield op.body
    flavors = range(1, ctx.N + 1)
    for p in flavors:
        for q in flavors:
            yield young.gauge_terms(ctx, p, q)
    for s in ctx.slots():
        yield creation_terms(ctx, s)
        yield annihilation_terms(ctx, s)
    if ctx.field_kind == COMPLEX:
        yield charge_terms(ctx)


@st.composite
def contexts_and_terms(draw):
    ctx = FockContext(draw(st.sampled_from([COMPLEX, REAL])), draw(st.integers(1, 2)),
                      draw(st.integers(1, 2)), draw(st.integers(0, 4))).validate()
    slots = st.lists(st.sampled_from(ctx.slots()), max_size=3).map(tuple)  # repeats allowed
    factor = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    # scalar terms come from empty rem and ins
    terms = draw(st.lists(st.tuples(factor, slots, slots), max_size=5))
    monomials = list(basis_monomials(ctx))  # up to the P cutoff
    return ctx, terms, draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(contexts_and_terms())
def test_loop_matches_reference_on_drawn_terms(data):
    """On the operator's merged terms, images and key order alike; on the
    drawn terms, whose repeats may cancel on the way, images."""
    ctx, terms, monomials = data
    op = Operator(ctx, terms)
    merged = triples(op)
    batch = op.images([((m, 1),) for m in monomials])
    assert len(batch) == len(monomials)
    for m, image in zip(monomials, batch):
        want = reference_apply_normal_ordered(ctx, merged, unit(ctx, m))
        assert same(op.apply(unit(ctx, m)).terms, want), (terms, m)
        assert same(image, want), (terms, m)
        assert image == reference_apply_normal_ordered(ctx, terms, unit(ctx, m)).terms
    v = FockVector(ctx, {m: Fraction(k + 1, 2) for k, m in enumerate(monomials)})
    want = reference_apply_normal_ordered(ctx, merged, v)
    assert same(op.apply(v).terms, want)
    assert op.apply(v) == reference_apply_normal_ordered(ctx, terms, v)
    # a combination among other inputs has the image it has on its own
    (image,) = op.images([v.items()])
    assert same(image, want)
    assert same(op.images([((monomials[0], 1),), v.items()])[1], want)


@pytest.mark.parametrize("context", GATE_CONTEXTS, ids=str)
def test_loop_matches_reference_on_verify_term_lists(context):
    ctx = FockContext(*context).validate()
    basis = list(basis_monomials(ctx))
    for op in verify_operators(ctx):
        terms = triples(op)
        batch = op.images([((m, 1),) for m in basis])
        assert len(batch) == len(basis)
        for m, image in zip(basis, batch):
            want = reference_apply_normal_ordered(ctx, terms, unit(ctx, m))
            assert same(op.apply(unit(ctx, m)).terms, want), (terms, m)
            assert same(image, want), (terms, m)


def _unmerged_adjoint_determinant(ctx, n):
    """D_n* by Cauchy-Binet, one (f, rem, ins) term per pair of
    slot-determinant terms, equal slot multisets left apart."""
    modes = range(1, n + 1)
    return [(f * g, (), c + d) for flavors in combinations(range(1, ctx.N + 1), n)
            for f, _, c in _slot_determinant(ctx.kind.x_legs[0], modes, flavors)
            for g, _, d in _slot_determinant(ctx.kind.x_legs[1], modes, flavors)]


def _real_gauge_diagonal(ctx, p):
    """M^{pp} as the two unmerged terms of ``young.gauge_terms``, per mode."""
    return [t for i in range(1, ctx.M + 1) for t in (
        (1, (a_slot(i, p),), (a_slot(i, p),)),
        (-1, (a_slot(i, p),), (a_slot(i, p),)))]


@pytest.mark.parametrize("kind,N,n,distinct", [(REAL, 3, 3, 21), (REAL, 4, 3, 84), (COMPLEX, 3, 3, 36),
                                               (REAL, 2, 2, 3), (COMPLEX, 2, 2, 4)])
def test_merged_operator_acts_like_its_unmerged_terms(kind, N, n, distinct):
    """The real D_n* meets each slot multiset twice, and the real M^{pp}
    cancels to the zero Operator, which ``cli._check_gauge_commutant``
    takes for granted when it scans only M^{pq}, p < q.  Their merged
    action is the reference loop's on the unmerged terms, key order
    included."""
    ctx = FockContext(kind, N, n, 2 * n + 2).validate()
    unmerged = _unmerged_adjoint_determinant(ctx, n)
    op = adjoint_determinant_terms(ctx, n)
    assert op == Operator(ctx, unmerged) and len(op) == distinct
    monomials = list(basis_monomials(ctx, 2))
    vectors = [unit(ctx, m) for m in monomials]
    vectors.append(FockVector(ctx, {m: Fraction(k + 1, 3) for k, m in enumerate(monomials)}))
    for v in vectors:
        assert same(op.apply(v).terms, reference_apply_normal_ordered(ctx, unmerged, v)), v
    for p in range(1, N + 1):
        gauge = young.gauge_terms(ctx, p, p)
        if kind == COMPLEX:
            assert len(gauge) == 2 * ctx.M
            continue
        assert gauge == Operator(ctx) and gauge.is_zero()
        diagonal = _real_gauge_diagonal(ctx, p)
        for v in vectors:
            assert same(gauge.apply(v).terms, reference_apply_normal_ordered(ctx, diagonal, v)), v


@pytest.mark.parametrize("context", GATE_CONTEXTS, ids=str)
def test_table_plus_scalar_is_the_generator_image(context):
    ctx = FockContext(*context).validate()
    images = generator_images(ctx, shift=True)
    index = next(iter(images.values())).index
    ids = [index[m] for m in basis_monomials(ctx)]  # every monomial up to P
    for g in generators(ctx):
        table, scalar = images[g], images[g].scalar
        table.fill(ids)
        for m, i in zip(basis_monomials(ctx), ids):
            assert index.monomials[i] == m
            image = {index.monomials[n]: c for n, c in table[i].items()}
            assert {type(c) for c in image.values()} <= {int}
            add_scaled(image, {m: 1}, scalar)
            assert same(canonical(image), apply_generator(ctx, g, unit(ctx, m))), (g, m)



@pytest.mark.parametrize("context", [(COMPLEX, 2, 2, 4), (REAL, 2, 3, 4)], ids=str)
def test_zero_entries_share_one_read_only_image(context):
    """Every zero entry of every table is one object, so a write to one
    would reach them all: each write raises TypeError and leaves it empty."""
    ctx = FockContext(*context).validate()
    images = generator_images(ctx, shift=True)
    index = next(iter(images.values())).index
    ids = [index[m] for m in basis_monomials(ctx)]
    for table in images.values():
        table.fill(ids)
    zeros = [entry for table in images.values() for entry in table if not entry]
    assert zeros and all(entry is zeros[0] for entry in zeros)
    zero = zeros[0]
    writes = [lambda: zero.__setitem__(0, 1), lambda: zero.update({0: 1}), lambda: zero.setdefault(0, 1),
              lambda: zero.pop(0), lambda: zero.popitem(), zero.clear, lambda: zero.__delitem__(0),
              lambda: zero.__ior__({0: 1})]
    for write in writes:
        with pytest.raises(TypeError, match="read-only"):
            write()
    assert zero == {} and isinstance(zero, dict)


GATES = json.loads((Path(__file__).resolve().parent.parent / "bench" / "gates.json").read_text())

# The images the tables compute on each verify gate.  The charge and gauge
# checks scan the Lie generating set, and structure constants scan it
# against every generator, so each table fills only what those scans read
# (tables are filled for whole scans).  The real X(i,j) and X(j,i) (Xstar
# likewise) share one table.  On drop-e-shift structure constants fail, so they scan every
# pair on the same tables, and the charge and gauge checks scan every
# generator once more, on new tables: 1136 distinct images, and 58 that
# the first scans' charge and gauge tables had computed are computed again.
# ``images_the_scans_read`` re-derives each count.
IMAGES_COMPUTED = {
    "verify --kind complex --N 1 --M 2 --P 4 --inject-fault drop-e-shift": 1136 + 58,
    "verify --kind complex --N 1 --M 3 --P 4": 4022,
    "verify --kind complex --N 2 --M 2 --P 4": 5884,
    "verify --kind real --N 2 --M 3 --P 4": 3357,
}


def images_the_scans_read(ctx, labels):
    """The images the verify scans read when every identity holds, from
    vector-level action, with structure constants, the charge and the gauge
    checks on the generators ``labels`` (against every generator): a pair
    of sets of (table, operator, monomial), the generator and ladder
    tables' images and the charge and gauge tables'.  A generator table is
    named by its operator, which labels of equal operators (the real X(i,j)
    and X(j,i)) share; other tables by their family and key, so equal
    operators on two tables (E^{11} and the charge at N = 1) are read
    apart.  A scan of [a, b] over the families (left, right) reads every a
    and b on the basis B, each a on the monomials the right family's
    B-images reach, and each b on those the left family's reach."""
    basis = list(basis_monomials(ctx, ctx.P - 2))
    reached = {}

    def reach(op):
        if op not in reached:
            reached[op] = {n for m in basis for n in op.apply(unit(ctx, m)).monomials()}
        return reached[op]

    def reads(left, right):
        """The images each family of (table, operator) pairs is read on:
        (left's, right's)."""
        return tuple({(name, op, m) for name, op in family
                      for m in set(basis).union(*(reach(op) for _, op in other))}
                     for family, other in ((left, right), (right, left)))

    def bodies(gens):
        return [(generator_terms(ctx, g), generator_terms(ctx, g).body) for g in gens]

    every = bodies(generators(ctx))
    ladders = ([(("a", s), annihilation_terms(ctx, s)) for s in ctx.slots()],
               [(("a*", s), creation_terms(ctx, s)) for s in ctx.slots()])
    generator_reads = set().union(*reads(bodies(labels), every), *reads(every, []), *reads(*ladders))
    flavors = range(1, ctx.N + 1)
    gauge = [((p, q), young.gauge_terms(ctx, p, q)) for p in flavors for q in flavors
             if p < q or ctx.field_kind == COMPLEX]
    commutant_reads = set()
    for left in ([("Q", charge_terms(ctx))] if ctx.field_kind == COMPLEX else []), gauge:
        theirs, mine = reads(left, bodies(labels))
        commutant_reads |= theirs
        generator_reads |= mine
    return generator_reads, commutant_reads


@pytest.mark.parametrize("command", sorted(c for c in GATES if c.startswith("verify ")))
def test_verify_computes_each_image_once(monkeypatch, capsys, command):
    """Every image a table computes, keyed by the table, the operator it
    applies and its monomial, is computed once per run, except on tables a
    rerun builds anew: the checks share one set of generator tables, and
    each fill computes only missing entries.  They are the images the
    scans read, and their number is pinned, so a fill that reads more than
    the scans need shows."""
    ctx = cli._context(cli.build_parser().parse_args(command.split()))
    generating_set = algebra.lie_generating_set(ctx)
    generator_reads, commutant_reads = images_the_scans_read(ctx, generating_set)
    want, count = generator_reads | commutant_reads, len(generator_reads) + len(commutant_reads)
    if "drop-e-shift" in command:
        full = images_the_scans_read(ctx, list(generators(ctx)))
        want = generator_reads | full[0] | full[1]
        count = len(want) + len(commutant_reads)
    seen, tables, filling = [], [], []
    images, fill = fock.Operator.images, algebra.ImageTable.fill

    def recording_images(op, inputs):
        if filling:
            for items in inputs:
                ((m, _),) = items
                seen.append((id(filling[-1]), op, m))
        return images(op, inputs)

    def recording_fill(self, ids):
        filling.append(self)
        tables.append(self)  # alive, so no two tables share an id
        try:
            fill(self, ids)
        finally:
            filling.pop()

    monkeypatch.setattr(fock.Operator, "images", recording_images)
    monkeypatch.setattr(algebra.ImageTable, "fill", recording_fill)
    cli.main(command.split())
    capsys.readouterr()
    assert len(set(seen)) == len(seen) == count == IMAGES_COMPUTED[command]
    assert {(op, m) for _, op, m in seen} == {(op, m) for _, op, m in want}

"""The one oscillator loop and verify's image tables.

``fock.normal_ordered_images`` is the loop that ``apply_normal_ordered``
ran inside itself, moved into a function over many inputs of (monomial,
coefficient) pairs, with one image per input; ``normal_ordered_action``
is its form for a single input.  ``reference_apply_normal_ordered``
below is a copy of that ``apply_normal_ordered`` on FockVectors.  They
must agree input by input, key order included.  An ``ImageTable`` holds
that loop's images of single monomials, by monomial id, for the
non-scalar terms of an operator, with the scalar terms kept apart."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bilocal import algebra, cli, fock, young
from bilocal.algebra import apply_generator, charge_terms, generator_images, generators
from bilocal.fock import (
    COMPLEX,
    REAL,
    FockContext,
    FockVector,
    annihilation_terms,
    basis_monomials,
    creation_terms,
    normal_ordered_action,
    normal_ordered_images,
    unit,
)
from bilocal.linalg import add_scaled, canonical


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


# the contexts of the verify gates in bench/gates.json
GATE_CONTEXTS = [(COMPLEX, 1, 2, 4), (COMPLEX, 1, 3, 4), (COMPLEX, 2, 2, 4), (REAL, 2, 3, 4)]


def verify_term_lists(ctx):
    """Every term list a verify check reads: the generators with and
    without the N/2 shift, the gauge generators, the ladders and the
    charge."""
    for g in generators(ctx):
        terms = algebra._generator_terms(ctx, g)
        yield terms
        yield tuple(t for t in terms if t[1] or t[2])
    flavors = range(1, ctx.N + 1)
    for p in flavors:
        for q in flavors:
            yield young.gauge_terms(ctx, p, q)
    for s in ctx.slots():
        yield creation_terms(s)
        yield annihilation_terms(s)
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
    ctx, terms, monomials = data
    batch = normal_ordered_images(ctx, terms, [((m, 1),) for m in monomials])
    assert len(batch) == len(monomials)
    for m, image in zip(monomials, batch):
        want = reference_apply_normal_ordered(ctx, terms, unit(ctx, m))
        assert same(normal_ordered_action(ctx, terms, ((m, 1),)), want), (terms, m)
        assert same(image, want), (terms, m)
    v = FockVector(ctx, {m: Fraction(k + 1, 2) for k, m in enumerate(monomials)})
    want = reference_apply_normal_ordered(ctx, terms, v)
    assert same(normal_ordered_action(ctx, terms, v.items()), want)
    assert same(fock.apply_normal_ordered(ctx, terms, v).terms, want)
    # a combination among other inputs has the image it has on its own
    (image,) = normal_ordered_images(ctx, terms, [v.items()])
    assert same(image, want)
    assert same(normal_ordered_images(ctx, terms, [((monomials[0], 1),), v.items()])[1], want)


@pytest.mark.parametrize("context", GATE_CONTEXTS, ids=str)
def test_loop_matches_reference_on_verify_term_lists(context):
    ctx = FockContext(*context).validate()
    basis = list(basis_monomials(ctx))
    for terms in verify_term_lists(ctx):
        batch = normal_ordered_images(ctx, terms, [((m, 1),) for m in basis])
        assert len(batch) == len(basis)
        for m, image in zip(basis, batch):
            want = reference_apply_normal_ordered(ctx, terms, unit(ctx, m))
            assert same(normal_ordered_action(ctx, terms, ((m, 1),)), want), (terms, m)
            assert same(image, want), (terms, m)


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


GATES = json.loads((Path(__file__).resolve().parent.parent / "bench" / "gates.json").read_text())

# The images the tables compute on each verify gate, counted when the charge
# and gauge checks scanned every generator: 6752, 8211 and 6552 where every
# identity holds, and 1136 on the failing drop-e-shift gate (tables are
# filled for whole scans; a lazy scan that stopped at each failing pair's
# first failing monomial computed 1116).  Now the charge and gauge checks
# scan the Lie generating set, and their tables fill only what its images
# reach: 210, 895 and 129 images fewer.  On drop-e-shift structure
# constants fail, so the charge and gauge checks scan every generator once
# more, on new tables: 1136 distinct images, and 58 that the first scans'
# charge and gauge tables had computed are computed again.
# ``images_the_scans_read`` re-derives each count.
IMAGES_COMPUTED = {
    "verify --kind complex --N 1 --M 2 --P 4 --inject-fault drop-e-shift": 1136 + 58,
    "verify --kind complex --N 1 --M 3 --P 4": 6542,
    "verify --kind complex --N 2 --M 2 --P 4": 7316,
    "verify --kind real --N 2 --M 3 --P 4": 6423,
}


def images_the_scans_read(ctx, margin, labels):
    """The (terms, monomial) images the verify scans read when every
    identity holds, from vector-level action, with the charge and gauge
    checks on the generators ``labels``: a pair of sets, the generator and
    ladder tables' images and the charge and gauge tables'.  A scan of
    [a, b] over the families (left, right) reads every a and b on the basis
    B, each a on the monomials the right family's B-images reach, and each
    b on those the left family's reach."""
    basis = list(basis_monomials(ctx, ctx.P - margin))

    def reach(terms):
        return {n for m in basis for n in normal_ordered_action(ctx, terms, ((m, 1),))}

    def reads(left, right):
        """The images each family is read on: (left's, right's)."""
        return tuple({(terms, m) for terms in family for m in set(basis).union(*map(reach, other))}
                     for family, other in ((left, right), (right, left)))

    def body(g):
        return tuple(t for t in algebra._generator_terms(ctx, g) if t[1] or t[2])

    every = [body(g) for g in generators(ctx)]
    ladders = [annihilation_terms(s) for s in ctx.slots()], [creation_terms(s) for s in ctx.slots()]
    generator_reads = set().union(*reads(every, every), *reads(every, []), *reads(*ladders))
    flavors = range(1, ctx.N + 1)
    gauge = [young.gauge_terms(ctx, p, q) for p in flavors for q in flavors
             if p < q or ctx.field_kind == COMPLEX]
    commutant_reads = set()
    for left in ([charge_terms(ctx)] if ctx.field_kind == COMPLEX else []), gauge:
        theirs, mine = reads(left, [body(g) for g in labels])
        commutant_reads |= theirs
        generator_reads |= mine
    return generator_reads, commutant_reads


@pytest.mark.parametrize("command", sorted(c for c in GATES if c.startswith("verify ")))
def test_verify_computes_each_image_once(monkeypatch, capsys, command):
    """Every image a table computes, keyed by the terms it applies and its
    monomial, is computed once per run, except on tables a rerun builds
    anew: the checks share one set of generator tables, and each fill
    computes only missing entries.  They are the images the scans read,
    and their number is pinned, so a fill that reads more than the scans
    need shows."""
    ctx = cli._context(cli.build_parser().parse_args(command.split()))
    generating_set = algebra.lie_generating_set(ctx)
    generator_reads, commutant_reads = images_the_scans_read(ctx, 2, generating_set)
    want, count = generator_reads | commutant_reads, len(generator_reads) + len(commutant_reads)
    if "drop-e-shift" in command:
        full = images_the_scans_read(ctx, 2, list(generators(ctx)))
        want = generator_reads | full[0] | full[1]
        count = len(want) + len(commutant_reads)
    seen, tables, filling = [], [], []
    images, fill = fock.normal_ordered_images, algebra.ImageTable.fill

    def recording_images(ctx, terms, inputs):
        if filling:
            for items in inputs:
                ((m, _),) = items
                seen.append((id(filling[-1]), terms, m))
        return images(ctx, terms, inputs)

    def recording_fill(self, ids):
        filling.append(self)
        tables.append(self)  # alive, so no two tables share an id
        try:
            fill(self, ids)
        finally:
            filling.pop()

    monkeypatch.setattr(fock, "normal_ordered_images", recording_images)
    monkeypatch.setattr(algebra.ImageTable, "fill", recording_fill)
    cli.main(command.split())
    capsys.readouterr()
    assert len(set(seen)) == len(seen) == count == IMAGES_COMPUTED[command]
    assert {(terms, m) for _, terms, m in seen} == want

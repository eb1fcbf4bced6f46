"""Int-coded mode slots against the tuple slots they replaced.

A ``fock.ModeSlot`` is an int that packs (species code, mode, flavor), and
with it every monomial is a sorted tuple of ints.  ``RefSlot`` below is the
slot as a (species, mode, flavor) NamedTuple, and ``reference_images`` is
``Operator.images`` as it was written for those slots.  On the same terms
and inputs, each carried over to ``RefSlot``, they must give the same
images, key order included, and the two slot types must sort every pair
of slots alike.  A planted swap of the species codes fails both.
"""

import pickle
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from bilocal import fock
from bilocal.algebra import generator_terms, generators
from bilocal.fock import (
    COMPLEX,
    REAL,
    SPECIES_A,
    SPECIES_B,
    FockContext,
    ModeSlot,
    Operator,
    annihilation_terms,
    basis_monomials,
    creation_terms,
)
from bilocal.linalg import canonical
from bilocal.serialize import dumps, jsonable


class RefSlot(NamedTuple):
    species: str
    mode: int
    flavor: int

    def __str__(self):
        return f"{self.species}[{self.mode},{self.flavor}]"


def ref(slot) -> RefSlot:
    return RefSlot(slot.species, slot.mode, slot.flavor)


def ref_monomial(m) -> tuple:
    return tuple(map(ref, m))


def reference_images(P, terms, inputs) -> list:
    """The oscillator loop on tuple slots: ``terms`` is {(rem, ins): f}."""
    images = []
    for items in inputs:
        out = {}
        get = out.get
        for (rem, ins), f in terms.items():
            one = f == 1
            for m, c in items:
                for s in rem:
                    k = m.count(s)
                    if not k:
                        break
                    idx = m.index(s)
                    m, c = m[:idx] + m[idx + 1 :], c if k == 1 else c * k
                else:
                    if ins:
                        if len(m) + len(ins) > P:
                            continue
                        m = tuple(sorted(m + ins))
                    total = get(m, 0) + (c if one else f * c)
                    if total:
                        out[m] = total
                    else:
                        out.pop(m, None)
        if out:
            canonical(out)
        images.append(out)
    return images


def image_mismatches(op: Operator, inputs) -> list:
    """The inputs whose image under ``op`` differs from the reference loop's
    on tuple slots, in value, coefficient type or key order."""
    terms = {(ref_monomial(rem), ref_monomial(ins)): f for (rem, ins), f in op.items()}
    ref_inputs = [[(ref_monomial(m), c) for m, c in items] for items in inputs]
    got = op.images(inputs)
    want = reference_images(op.ctx.P, terms, ref_inputs)
    return [items for items, g, w in zip(inputs, got, want)
            if [(ref_monomial(m), c, type(c)) for m, c in g.items()] != [(m, c, type(c)) for m, c in w.items()]]


def order_mismatches(ctx) -> list:
    """The slot pairs of ``ctx`` that the int code and the tuple order
    sort differently, or call equal differently."""
    slots = ctx.slots()
    return [(s, t) for s, t in product(slots, repeat=2)
            if (s < t, s == t) != (ref(s) < ref(t), ref(s) == ref(t))]


def basis_mismatches(ctx) -> list:
    """The places where ``basis_monomials`` differs from the enumeration
    over tuple slots, and its monomials that are not sorted tuples."""
    ref_slots = sorted(map(ref, ctx.slots()))
    want = [m for k in range(ctx.P + 1) for m in combinations_with_replacement(ref_slots, k)]
    got = list(basis_monomials(ctx))
    return ([(i, m) for i, (m, w) in enumerate(zip(got, want)) if ref_monomial(m) != w]
            + [m for m in got if list(m) != sorted(m)] + ([len(got), len(want)] if len(got) != len(want) else []))


SMALL = [FockContext(kind, N, M, 2) for kind in (COMPLEX, REAL) for N in range(1, 5) for M in range(1, 5)]
IMAGE_CONTEXTS = [FockContext(COMPLEX, 2, 2, 4), FockContext(REAL, 2, 3, 4)]


def swap_species_codes(monkeypatch):
    monkeypatch.setattr(fock, "_SPECIES", (SPECIES_B, SPECIES_A))
    monkeypatch.setattr(fock, "_SPECIES_CODE", {SPECIES_B: 0, SPECIES_A: 1})


def operators(ctx):
    """Every generator, and the ladders of every slot: terms that remove
    none, one or two slots and insert none, one or two."""
    for g in generators(ctx):
        yield generator_terms(ctx, g)
    for s in ctx.slots():
        yield creation_terms(ctx, s)
        yield annihilation_terms(ctx, s)


@pytest.mark.parametrize("ctx", SMALL, ids=str)
def test_slot_order_is_the_tuple_order(ctx):
    assert order_mismatches(ctx) == []
    assert [ref(s) for s in ctx.slots()] == sorted(map(ref, ctx.slots()))


@pytest.mark.parametrize("ctx", [c._replace(P=3) for c in SMALL if c.N * c.M <= 6], ids=str)
def test_basis_monomials_match_the_tuple_enumeration(ctx):
    assert basis_mismatches(ctx) == []


def test_fields_str_repr_and_int_code():
    s = ModeSlot(SPECIES_B, 3, 2)
    assert (s.species, s.mode, s.flavor) == (SPECIES_B, 3, 2)
    assert str(s) == "b[3,2]" and f"{s}" == "b[3,2]"
    assert repr(s) == "ModeSlot(species='b', mode=3, flavor=2)"
    code = (1 << 40) | (3 << 20) | 2
    assert s == code and hash(s) == hash(code) and int(s) == code
    assert ModeSlot(SPECIES_A, 1, 2) == (1 << 20) | 2
    top = ModeSlot(SPECIES_B, 2**20 - 1, 2**20 - 1)
    assert (top.species, top.mode, top.flavor) == (SPECIES_B, 2**20 - 1, 2**20 - 1)
    assert fock.monomial_str((ModeSlot(SPECIES_A, 1, 1), s)) == "{a[1,1] b[3,2]}"
    copied = pickle.loads(pickle.dumps(s))
    assert type(copied) is ModeSlot and repr(copied) == repr(s)


@pytest.mark.parametrize("ctx", IMAGE_CONTEXTS, ids=str)
def test_images_match_the_tuple_loop_on_every_basis_monomial(ctx):
    inputs = [((m, 1),) for m in basis_monomials(ctx)]
    for op in operators(ctx):
        assert image_mismatches(op, inputs) == [], op


coefficients = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4)).filter(bool)


@st.composite
def operator_and_inputs(draw):
    ctx = draw(st.sampled_from(IMAGE_CONTEXTS))
    slots = ctx.slots()
    words = st.lists(st.sampled_from(slots), max_size=3)
    terms = draw(st.lists(st.tuples(coefficients, words, words), max_size=6))
    basis = list(basis_monomials(ctx))
    vector = st.lists(st.tuples(st.sampled_from(basis), coefficients), max_size=8, unique_by=lambda t: t[0])
    return Operator(ctx, terms), draw(st.lists(vector, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(operator_and_inputs())
def test_images_match_the_tuple_loop_on_random_vectors(case):
    op, inputs = case
    assert image_mismatches(op, inputs) == []


def test_planted_species_code_swap_fails(monkeypatch):
    swap_species_codes(monkeypatch)
    ctx = FockContext(COMPLEX, 2, 2, 4)
    s = ModeSlot(SPECIES_A, 1, 1)
    assert (s.species, s.mode, s.flavor) == (SPECIES_A, 1, 1)  # the fields still decode
    assert order_mismatches(ctx)
    assert basis_mismatches(ctx._replace(P=2))
    inputs = [((m, 1),) for m in basis_monomials(ctx)]
    assert any(image_mismatches(op, inputs) for op in operators(ctx))


@pytest.mark.parametrize("args, error, match", [
    ((SPECIES_A, 1.5, 1), TypeError, "mode must be an int, got float 1.5"),
    ((SPECIES_A, True, 1), TypeError, "mode must be an int, got bool True"),
    ((SPECIES_A, 1, False), TypeError, "flavor must be an int, got bool False"),
    ((SPECIES_A, 1, Fraction(2)), TypeError, r"flavor must be an int, got Fraction Fraction\(2, 1\)"),
    ((SPECIES_A, "1", 1), TypeError, "mode must be an int, got str '1'"),
    ((SPECIES_A, -1, 1), ValueError, "mode -1 outside 0..1048575"),
    ((SPECIES_B, 1, -2), ValueError, "flavor -2 outside 0..1048575"),
    ((SPECIES_A, 2**20, 1), ValueError, "mode 1048576 outside 0..1048575"),
    ((SPECIES_A, 1, 2**20), ValueError, "flavor 1048576 outside 0..1048575"),
    (("c", 1, 1), ValueError, "unknown species 'c'"),
    ((1, 1, 1), ValueError, "unknown species 1"),
])
def test_slot_refuses_fields_that_would_alias(args, error, match):
    with pytest.raises(error, match=match):
        ModeSlot(*args)


def test_a_slot_has_no_json():
    s = ModeSlot(SPECIES_A, 1, 2)
    for payload in (s, [s], {"slot": s}, (1, s)):
        with pytest.raises(TypeError, match="no exact JSON for ModeSlot"):
            dumps(payload)
    assert jsonable([1, True, False, None, "a", Fraction(1, 2)]) == [1, True, False, None, "a", "1/2"]
    assert dumps({"slots": [str(s)]}) == '{"slots":["a[1,2]"]}'


"""The label shapes read per species: a sector's text and JSON, the sector
enumeration and classify's weight heads take one code path for both
field kinds, over ``FieldKind.sides``, ``SectorLabel.diagrams`` and
``Weight.heads``.  Each is held to an in-test copy of the two-branch
form it replaced, order included, and ``young.gauge_basis`` is pinned
pair by pair."""

import pytest

from bilocal import cli, fock, sectors
from bilocal.fock import COMPLEX, FIELD_KINDS, REAL, FieldKind, FockContext
from bilocal.young import EMPTY, SectorLabel, enumerate_sectors, gauge_basis, sector_to_json, young_diagrams

KINDS = (COMPLEX, REAL)
MAX_BOXES = 3


def branched_str(s):
    if s.field_kind == COMPLEX:
        return f"({s.y_plus},{s.y_minus},N={s.N})"
    return f"({s.y_plus},N={s.N})"


def branched_json(s):
    if s.field_kind == COMPLEX:
        return {"Y_plus": s.y_plus.to_json(), "Y_minus": s.y_minus.to_json(), "N": s.N}
    return {"Y": s.y_plus.to_json(), "N": s.N}


def branched_sectors(kind, N, max_boxes):
    diagrams = list(young_diagrams(max_boxes))
    for yp in diagrams:
        for ym in [EMPTY] if kind == REAL else diagrams:
            s = SectorLabel(kind, N, yp, ym)
            if s.bound_violation() is None:
                yield s


def branched_heads(kind, w):
    if kind == COMPLEX:
        return [("weight_head_plus", list(w.head_plus)), ("weight_head_minus", list(w.head_minus))]
    return [("weight_head", list(w.head_plus))]


def classify_cases(kind, N):
    """(row, weight) for each row of ``classify`` at a small context."""
    argv = ["classify", "--kind", kind, "--N", str(N), "--M", "2", "--P", "3", "--cutoff", "3"]
    rows = cli.cmd_classify(cli.build_parser().parse_args(argv))["sectors"]
    entries = sectors.classify_spectrum(FockContext(kind, N, 2, 3).validate(), 3, None)
    assert len(rows) == len(entries)
    return [(row, entry["weight"]) for row, entry in zip(rows, entries)]


def mismatches(kind, N) -> list:
    """Where a collapsed path differs from its two-branch copy."""
    out = []
    listed = list(enumerate_sectors(kind, N, MAX_BOXES))
    if listed != list(branched_sectors(kind, N, MAX_BOXES)):
        out.append("enumerate_sectors")
    for s in listed:
        if str(s) != branched_str(s):
            out.append(f"str {s}")
        if list(sector_to_json(s).items()) != list(branched_json(s).items()):
            out.append(f"json {s}")
    return out


def head_mismatches(kind, N) -> list:
    return [row for row, w in classify_cases(kind, N)
            if [(k, v) for k, v in row.items() if k.startswith("weight_head")] != branched_heads(kind, w)]


@pytest.mark.parametrize("N", range(5))
@pytest.mark.parametrize("kind", KINDS)
def test_sector_text_json_and_order_match_the_two_branch_forms(kind, N):
    assert list(enumerate_sectors(kind, N, MAX_BOXES))
    assert mismatches(kind, N) == []


@pytest.mark.parametrize("N", (1, 2))
@pytest.mark.parametrize("kind", KINDS)
def test_classify_heads_match_the_two_branch_form(kind, N):
    cases = classify_cases(kind, N)
    assert any(w.head_plus for _, w in cases)
    assert head_mismatches(kind, N) == []


def test_diagrams_hold_one_diagram_per_species():
    y = young_diagrams(1)
    _, box = next(y), next(y)
    assert SectorLabel(COMPLEX, 2, box, EMPTY).diagrams == (box, EMPTY)
    assert SectorLabel(REAL, 2, box).diagrams == (box,)


def test_a_swap_of_the_sides_fails_the_comparison(monkeypatch):
    kind = FIELD_KINDS[COMPLEX]
    monkeypatch.setitem(fock.FIELD_KINDS, COMPLEX, FieldKind(
        kind.species, kind.x_legs, kind.e_kinds, kind.sides[::-1]))
    assert mismatches(COMPLEX, 2)
    assert head_mismatches(COMPLEX, 2)
    assert mismatches(REAL, 2) == []


@pytest.mark.parametrize("N", range(5))
def test_gauge_basis_is_every_pair_for_u_and_the_p_below_q_for_o(N):
    flavors = range(1, N + 1)
    every = [(p, q) for p in flavors for q in flavors]
    assert gauge_basis(FockContext(COMPLEX, N, 1, 2)) == every
    assert len(every) == N * N
    below = gauge_basis(FockContext(REAL, N, 1, 2))
    assert below == [(p, q) for p, q in every if p < q]
    assert len(below) == N * (N - 1) // 2

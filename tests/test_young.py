from fractions import Fraction

import pytest

from bilocal import young
from bilocal.algebra import apply_generator, generators
from bilocal.fock import COMPLEX, REAL, FockContext, basis_monomials, unit
from bilocal.sectors import build_ground_state
from bilocal.young import (
    EMPTY,
    BoundViolation,
    GaugeIrrepO,
    GaugeIrrepU,
    YoungDiagram,
    bijection_roundtrip_check,
    complex_sector,
    conjugate_relative,
    enumerate_sectors,
    gauge_terms,
    irrep_O_to_sector,
    irrep_U_to_sector,
    real_sector,
    sector_to_irrep_O,
    sector_to_irrep_U,
    weyl_dimension_U,
    young_diagrams,
)
from oracles import diagram, vacuum_sector


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))
    assert diagram(3, 1).column_heights() == (2, 1, 1)
    assert YoungDiagram(diagram(3, 1).column_heights()) == diagram(2, 1, 1)
    assert YoungDiagram.from_columns((2, 1, 1)) == diagram(3, 1)


def test_sector_label_needs_a_nonnegative_int_n():
    # a label with N = None used to surface only as a TypeError in
    # bound_violation, and N = -1 or 2.5 passed silently
    for N in (None, -1, 2.5, "2"):
        with pytest.raises(ValueError, match="N must be an int >= 0"):
            complex_sector(EMPTY, EMPTY, N)
        with pytest.raises(ValueError, match="N must be an int >= 0"):
            real_sector(EMPTY, N)
    for kind in (COMPLEX, REAL):
        assert vacuum_sector(kind, 0).N == 0


def test_column_outside_the_diagram_is_zero():
    # column(0) and negative k used to count every row
    for y in (EMPTY, diagram(1), diagram(3, 1), diagram(2, 2, 1)):
        assert [y.column(k) for k in (-2, -1, 0)] == [0, 0, 0]
        assert y.column(y.row(1) + 1) == 0
    assert [diagram(3, 1).column(k) for k in (1, 2, 3)] == [2, 1, 1]


def test_column_counts_rows_without_building_the_conjugate(monkeypatch):
    def refuse(parts):
        raise AssertionError(f"conjugate of {parts} built")

    monkeypatch.setattr(young, "_conjugate", refuse)
    huge = young.YoungDiagram((10 ** 20, 10 ** 20, 3))
    assert [huge.column(k) for k in (0, 1, 3, 4, 10 ** 20, 10 ** 20 + 1)] == [0, 3, 3, 2, 2, 0]


# reference copies of the column helpers and the enumeration as first written


def reference_column_heights(rows):
    if not rows:
        return ()
    return tuple(sum(1 for r in rows if r >= c) for c in range(1, rows[0] + 1))


def reference_from_columns(heights):
    heights = [h for h in heights if h > 0]
    if not heights:
        return YoungDiagram(())
    top = max(heights)
    return YoungDiagram(tuple(sum(1 for h in heights if h >= i) for i in range(1, top + 1)))


def reference_young_diagrams(max_boxes, max_rows=None):
    def parts(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    for n in range(max_boxes + 1):
        for p in parts(n, n if n else 1):
            if max_rows is None or len(p) <= max_rows:
                yield YoungDiagram(p)


@pytest.mark.parametrize("max_rows", [None, -1, 0, 1, 2, 3, 4, 5])
def test_young_diagrams_match_reference(max_rows):
    got = list(young_diagrams(12, max_rows=max_rows))
    assert [y.rows for y in got] == [y.rows for y in reference_young_diagrams(12, max_rows)]


def test_column_helpers_match_reference():
    for y in reference_young_diagrams(12):
        cols = reference_column_heights(y.rows)
        assert y.column_heights() == cols
        assert [y.column(k) for k in range(1, len(cols) + 2)] == list(cols) + [0]
        for heights in (cols, cols[::-1], (0,) + cols + (-1, 0), cols[1::2] + cols[::2]):
            built = YoungDiagram.from_columns(heights)
            assert built.rows == reference_from_columns(heights).rows == y.rows
            assert built.column_heights() == cols


def test_column_cache_leaves_eq_hash_and_order_alone():
    ys = list(reference_young_diagrams(12))
    for y, z in zip(ys, ys[1:]):
        cold, warm = YoungDiagram(y.rows), YoungDiagram(y.rows)
        warm.column_heights()
        built = YoungDiagram.from_columns(reference_column_heights(y.rows))  # cache filled
        for a in (warm, built):
            assert a == cold and hash(a) == hash(cold) and repr(a) == repr(cold)
            assert not a < cold and not cold < a
            assert (a < z) == (cold < z) and (z < a) == (z < cold)
        assert built.column_heights() == reference_column_heights(y.rows)
        assert len({cold, warm, built}) == 1


def test_young_enumeration_is_complete():
    # partition counts p(0..5) = 1,1,2,3,5,7
    assert len(list(young_diagrams(5))) == 1 + 1 + 2 + 3 + 5 + 7


def test_conjugate_relative():
    assert conjugate_relative(EMPTY, 4) == EMPTY
    assert conjugate_relative(diagram(1), 3) == diagram(1, 1)
    assert conjugate_relative(diagram(2, 1), 2) == diagram(1)
    with pytest.raises(ValueError):
        conjugate_relative(diagram(1, 1, 1), 2)


def test_sector_to_irrep_U_examples():
    assert sector_to_irrep_U(complex_sector(EMPTY, EMPTY, 2)) == GaugeIrrepU(EMPTY, 0)
    assert sector_to_irrep_U(complex_sector(diagram(1), EMPTY, 2)) == GaugeIrrepU(diagram(1), 1)
    assert sector_to_irrep_U(complex_sector(EMPTY, diagram(1), 2)) == GaugeIrrepU(diagram(1), -1)


def test_irrep_U_to_sector_examples():
    assert irrep_U_to_sector(GaugeIrrepU(diagram(1), 1), 2) == complex_sector(diagram(1), EMPTY, 2)
    assert irrep_U_to_sector(GaugeIrrepU(diagram(1), -1), 2) == complex_sector(EMPTY, diagram(1), 2)
    assert irrep_U_to_sector(GaugeIrrepU(EMPTY, 0), 3) == complex_sector(EMPTY, EMPTY, 3)


def test_irrep_U_no_valid_split_rejected():
    with pytest.raises(ValueError):
        irrep_U_to_sector(GaugeIrrepU(diagram(1, 1), -2), 2)
    with pytest.raises(ValueError):
        irrep_U_to_sector(GaugeIrrepU(diagram(3, 1), 0), 2)


def test_antisymmetric_conjugate_pair_label():
    # Lambda^2 of the conjugate vector at N=2 is the inverse determinant:
    # its juxtaposition label is the empty diagram with charge -2.
    s = complex_sector(EMPTY, diagram(1, 1), 2)
    irr = sector_to_irrep_U(s)
    assert irr == GaugeIrrepU(EMPTY, -2)
    assert irrep_U_to_sector(irr, 2) == s


def test_charge_mod_constraint_on_produced_labels():
    for N in (1, 2, 3):
        for s in enumerate_sectors(COMPLEX, N, 3):
            irr = sector_to_irrep_U(s)
            assert (irr.q - irr.young.size) % N == 0


def test_weyl_dimension_examples():
    assert weyl_dimension_U(GaugeIrrepU(EMPTY, 0), 2) == 1
    assert weyl_dimension_U(GaugeIrrepU(diagram(1), 1), 2) == 2
    assert weyl_dimension_U(GaugeIrrepU(diagram(2), 2), 2) == 3
    # adjoint of U(2): weight (1,-1)
    assert weyl_dimension_U(GaugeIrrepU(diagram(2), 0), 2) == 3
    # vector of U(3) and its conjugate
    assert weyl_dimension_U(GaugeIrrepU(diagram(1), 1), 3) == 3
    assert weyl_dimension_U(GaugeIrrepU(diagram(1, 1), -1), 3) == 3


def test_sector_to_irrep_O_examples():
    # trivial diagram: canonical (empty, +); the flip rule also spells it
    # with the full column and a minus sign
    entry = sector_to_irrep_O(EMPTY, 3)
    assert entry.canonical == GaugeIrrepO(EMPTY, "+")
    assert GaugeIrrepO(diagram(1, 1, 1), "-") in entry.by_rule
    assert not entry.equivalent_pair
    # two-row column at N=3 flips below the N/2 line
    entry = sector_to_irrep_O(diagram(1, 1), 3)
    assert entry.canonical == GaugeIrrepO(diagram(1), "-")
    # boundary: N even with exactly N/2 rows gives the equivalent pair
    entry = sector_to_irrep_O(diagram(1), 2)
    assert entry.equivalent_pair
    assert entry.canonical == GaugeIrrepO(diagram(1), "+")
    assert set(entry.by_rule) == {GaugeIrrepO(diagram(1), "+"), GaugeIrrepO(diagram(1), "-")}


def test_sector_to_irrep_O_bound():
    with pytest.raises(BoundViolation):
        sector_to_irrep_O(diagram(2, 2), 3)


def test_irrep_O_roundtrip_simple():
    assert irrep_O_to_sector(GaugeIrrepO(EMPTY, "-"), 3) == diagram(1, 1, 1)
    assert irrep_O_to_sector(GaugeIrrepO(diagram(1), "+"), 3) == diagram(1)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_bijection_U(N):
    report = bijection_roundtrip_check("U", N, 3)
    assert report["ok"], report["failures"][:3]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_bijection_O(N):
    report = bijection_roundtrip_check("O", N, 3)
    assert report["ok"], report["failures"][:3]


def test_equivalence_exactly_at_half_rows():
    report = bijection_roundtrip_check("O", 4, 4)
    for entry in report["entries"]:
        rows = len(entry["sector"]["Y"])
        first_col = rows  # column height of the sector diagram
        assert entry["equivalent_pair"] == (2 * first_col == 4)


def test_gauge_generators_commute_with_bilocals():
    for kind, N in ((COMPLEX, 2), (REAL, 2)):
        ctx = FockContext(kind, N, 2, 4).validate()
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                gauge = gauge_terms(ctx, p, q)
                for g in generators(ctx):
                    for m in basis_monomials(ctx, 2):
                        v = unit(ctx, m)
                        lhs = gauge.apply(apply_generator(ctx, g, v))
                        rhs = apply_generator(ctx, g, gauge.apply(v))
                        assert lhs == rhs, (p, q, g, m)


def test_gauge_raising_annihilates_complex_ground_states():
    for N in (2, 3):
        ctx = FockContext(COMPLEX, N, 3, 8).validate()
        for s in enumerate_sectors(COMPLEX, N, 2):
            if max(s.y_plus.num_rows, s.y_minus.num_rows) > ctx.M:
                continue
            ground = build_ground_state(ctx, s)
            for p in range(1, N + 1):
                for q in range(p + 1, N + 1):
                    assert gauge_terms(ctx, p, q).apply(ground).is_zero(), (str(s), p, q)


@pytest.mark.parametrize("N,cap", [(0, 3), (1, 3), (2, 2), (3, 2)])
def test_labels_with_more_than_N_rows_never_validate(N, cap):
    """The U totality scan enumerates only diagrams with at most N rows:
    a taller one fails validate(N) whatever its charge."""
    for y in young_diagrams(cap):
        if y.num_rows <= N:
            continue
        for q in range(-cap, cap + 1):
            if N > 0 and (q - y.size) % N:
                continue
            with pytest.raises(ValueError):
                GaugeIrrepU(y, q).validate(N)


def test_bijection_U_fails_on_planted_charge_shift(monkeypatch):
    honest = young.sector_to_irrep_U

    def shifted(s):
        irr = honest(s)
        return irr._replace(q=irr.q + s.N)

    monkeypatch.setattr(young, "sector_to_irrep_U", shifted)
    report = bijection_roundtrip_check("U", 2, 3)
    assert not report["ok"]
    assert "roundtrip" in {f["kind"] for f in report["failures"]}


def test_bijection_O_fails_when_sign_is_ignored(monkeypatch):
    monkeypatch.setattr(young, "irrep_O_to_sector", lambda irr, N: irr.validate(N).young)
    report = bijection_roundtrip_check("O", 3, 3)
    assert not report["ok"]
    assert "roundtrip" in {f["kind"] for f in report["failures"]}


def test_bijection_O_reports_label_that_names_no_sector(monkeypatch):
    # [1,1] has more than N/2 = 1 rows at N = 3, so it names no sector
    honest = young.sector_to_irrep_O

    def too_tall(y, N):
        return honest(y, N)._replace(canonical=GaugeIrrepO(YoungDiagram((1, 1)), "+"))

    monkeypatch.setattr(young, "sector_to_irrep_O", too_tall)
    report = bijection_roundtrip_check("O", 3, 2)
    assert report["ok"] is False
    assert {"kind": "roundtrip", "sector": "([],N=3)", "label": {"Y": [1, 1], "sign": "+"},
            "back": None} in report["failures"]


def reference_roundtrip_U(N, size_cap):
    """The U branch of ``bijection_roundtrip_check`` with its first
    totality scan: every charge q = |Y| mod N with |q| <= cap."""
    failures, entries, seen = [], [], {}
    for s in enumerate_sectors(COMPLEX, N, size_cap):
        irr = young.sector_to_irrep_U(s)
        key = (irr.young, irr.q)
        if key in seen:
            failures.append({"kind": "collision", "label": irr.to_json(),
                             "sectors": [str(seen[key]), str(s)]})
        seen[key] = s
        try:
            back = young.irrep_U_to_sector(irr, N)
        except (ValueError, BoundViolation):
            back = None
        if back != s:
            failures.append({"kind": "roundtrip", "sector": str(s), "label": irr.to_json(),
                             "back": None if back is None else str(back)})
        entries.append({"sector": young.sector_to_json(s), "irrep": irr.to_json()})
    cap = N * size_cap + size_cap
    for y in young_diagrams(cap, max_rows=N):
        for q in range(-cap, cap + 1):
            if N > 0 and (q - y.size) % N:
                continue
            try:
                s = young.irrep_U_to_sector(GaugeIrrepU(y, q), N)
            except (ValueError, BoundViolation):
                continue
            if s.y_plus.size <= size_cap and s.y_minus.size <= size_cap:
                if (y, q) not in seen:
                    failures.append({"kind": "missing", "label": {"Y": y.to_json(), "q": q}})
                elif seen[(y, q)] != s:
                    failures.append({"kind": "mismatch", "label": {"Y": y.to_json(), "q": q}})
    return {"ok": not failures, "group": "U", "N": N, "cap": size_cap,
            "entries": entries, "failures": failures}


def reference_roundtrip_O(N, size_cap):
    """The O branch of ``bijection_roundtrip_check``, failure order
    included: the forward walk with its equivalence flag, then every
    canonical label with at most N/2 rows and |Y| <= cap + N."""
    failures, entries, seen = [], [], {}
    for s in enumerate_sectors(REAL, N, size_cap):
        entry = young.sector_to_irrep_O(s.y_plus, N)
        irr = entry.canonical
        key = (irr.young, irr.sign)
        if key in seen:
            failures.append({"kind": "collision", "label": irr.to_json(),
                             "sectors": [str(seen[key]), str(s)]})
        seen[key] = s
        try:
            back = young.irrep_O_to_sector(irr, N)
        except (ValueError, BoundViolation):
            back = None
        if back != s.y_plus:
            failures.append({"kind": "roundtrip", "sector": str(s), "label": irr.to_json(),
                             "back": None if back is None else str(back)})
        expect_equiv = young.o_labels_equivalent(irr, N)
        if entry.equivalent_pair != expect_equiv:
            failures.append({"kind": "equivalence", "sector": str(s),
                             "flagged": entry.equivalent_pair, "expected": expect_equiv})
        entries.append({"sector": young.sector_to_json(s), "irrep": irr.to_json(),
                        "equivalent_pair": entry.equivalent_pair})
    for y in young_diagrams(size_cap + N, max_rows=N // 2):
        for sign in ("+", "-"):
            irr = GaugeIrrepO(y, sign)
            if young.canonical_irrep_O(irr, N) != irr:
                continue
            back = young.irrep_O_to_sector(irr, N)
            if real_sector(back, N).bound_violation() is not None:
                failures.append({"kind": "out_of_bound_back", "label": irr.to_json()})
                continue
            if back.size <= size_cap:
                entry = young.sector_to_irrep_O(back, N)
                if entry.canonical != irr:
                    failures.append({"kind": "missing", "label": irr.to_json(),
                                     "via": str(back)})
    return {"ok": not failures, "group": "O", "N": N, "cap": size_cap,
            "entries": entries, "failures": failures}


def _swap_sides(irr, N):
    s = irrep_U_to_sector(irr, N)
    return complex_sector(s.y_minus, s.y_plus, N)


def _refuse_negative_charge(irr, N):
    if irr.q < 0:
        raise ValueError("planted: negative charge refused")
    return irrep_U_to_sector(irr, N)


def _misread_vacuum(irr, N):
    if irr.young == EMPTY and irr.q == 0:
        return complex_sector(diagram(1), EMPTY, N)
    return irrep_U_to_sector(irr, N)


def _shift_charge(s):
    irr = sector_to_irrep_U(s)
    return irr._replace(q=irr.q + s.N)


_honest_split = young._split_U


def _drop_last_plus_column(cols, q, N):
    plus, minus = _honest_split(cols, q, N)
    return (plus[:-1] if len(plus) >= 2 else plus), minus


# name: (function replaced, planted map, smallest N at which it fails)
PLANTED_U_FAULTS = {
    "swap": ("irrep_U_to_sector", _swap_sides, 1),
    "refuse": ("irrep_U_to_sector", _refuse_negative_charge, 1),
    "vacuum": ("irrep_U_to_sector", _misread_vacuum, 0),
    "shift": ("sector_to_irrep_U", _shift_charge, 1),
    "split": ("_split_U", _drop_last_plus_column, 1),
}


@pytest.mark.parametrize("fault", [None, *PLANTED_U_FAULTS])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_bijection_U_scan_matches_every_charge_scan(monkeypatch, N, fault):
    """The totality scan tries only q = |Y| - N k, k <= size_cap (one label
    at N = 0), and gives the report of the scan over every charge, failures
    in the same order, also when a planted map makes it fail."""
    fails_from = None
    if fault:
        name, planted, fails_from = PLANTED_U_FAULTS[fault]
        monkeypatch.setattr(young, name, planted)
    failing = False
    for cap in range(5):
        report = bijection_roundtrip_check("U", N, cap)
        assert report == reference_roundtrip_U(N, cap), (N, cap)
        failing |= not report["ok"]
    assert failing == (fails_from is not None and N >= fails_from)


_honest_to_O = young.sector_to_irrep_O


def _vacuum_label_everywhere(y, N):
    return _honest_to_O(EMPTY, N)


def _flip_equivalence_flag(y, N):
    entry = _honest_to_O(y, N)
    return entry._replace(equivalent_pair=not entry.equivalent_pair)


def _map_out_of_bound(irr, N):
    return YoungDiagram((1,) * (N + 1))


def _too_tall(y, N):
    return _honest_to_O(y, N)._replace(canonical=GaugeIrrepO(YoungDiagram((1, 1)), "+"))


# name: (function replaced, planted map, smallest N at which it fails)
PLANTED_O_FAULTS = {
    "collision": ("sector_to_irrep_O", _vacuum_label_everywhere, 1),
    "equivalence": ("sector_to_irrep_O", _flip_equivalence_flag, 0),
    "out_of_bound": ("irrep_O_to_sector", _map_out_of_bound, 0),
    "too_tall": ("sector_to_irrep_O", _too_tall, 0),
}


@pytest.mark.parametrize("fault", [None, *PLANTED_O_FAULTS])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 5])
def test_bijection_O_report_matches_its_reference(monkeypatch, N, fault):
    """The O report, failures in order, equals the reference walk and
    scan on every cap up to 4, also when a planted map makes it fail."""
    fails_from = None
    if fault:
        name, planted, fails_from = PLANTED_O_FAULTS[fault]
        monkeypatch.setattr(young, name, planted)
    failing = False
    for cap in range(5):
        report = bijection_roundtrip_check("O", N, cap)
        assert report == reference_roundtrip_O(N, cap), (N, cap)
        failing |= not report["ok"]
    assert failing == (fails_from is not None and N >= fails_from)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_planted_split_fault_shows_in_both_directions(monkeypatch, N):
    # the map and the scan share the split, so a fault in it shows in the
    # forward round trip and in the totality scan alike
    monkeypatch.setattr(young, "_split_U", _drop_last_plus_column)
    kinds = set()
    for cap in range(5):
        kinds |= {f["kind"] for f in bijection_roundtrip_check("U", N, cap)["failures"]}
    assert kinds == {"missing", "mismatch", "roundtrip"}


def u_scan_domain(N, size_cap):
    """The labels of the U totality scan: (Y, q = |Y| - N k) for every Y
    with at most N rows and |Y| <= (N + 1) size_cap, k <= size_cap (k = 0
    only at N = 0)."""
    for y in young_diagrams((N + 1) * size_cap, max_rows=N):
        for k in (range(size_cap + 1) if N else (0,)):
            yield y, y.size - N * k


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_irrep_U_to_sector_builds_the_split(N):
    """The scan decides the window and the bound on the split's column
    heights and builds only what passes; so the map must raise exactly
    when the split does or breaks r+ + r- <= N, and keep its columns."""
    for cap in range(5):
        for y, q in u_scan_domain(N, cap):
            try:
                plus, minus = young._split_U(y.column_heights(), q, N)
            except ValueError:
                plus = None
            if plus is None or max(plus, default=0) + max(minus, default=0) > N:
                with pytest.raises((ValueError, BoundViolation)):
                    irrep_U_to_sector(GaugeIrrepU(y, q), N)
                continue
            s = irrep_U_to_sector(GaugeIrrepU(y, q), N)
            assert (s.y_plus.column_heights(), s.y_minus.column_heights()) == (plus, minus)


def partitions_at_most(n, rows):
    """Partitions of n into at most ``rows`` parts: p(n, r) = p(n, r - 1)
    + p(n - r, r), fewer than r parts or r parts less one box each."""
    table = [[1] + [0] * n for _ in range(rows + 1)]
    for r in range(1, rows + 1):
        for m in range(1, n + 1):
            table[r][m] = table[r - 1][m] + (table[r][m - r] if m >= r else 0)
    return table[rows][n]


def full_domain_totality_U(N, size_cap, seen):
    """The failures of the U totality walk over its whole domain, the walk
    before the width bound: every label with at most N rows and
    |Y| <= (N + 1) size_cap, split at every k from size_cap down to 0
    (k = 0 only at N = 0), and only a split in the window and the bound
    mapped."""
    failures = []
    widths = range(size_cap, -1, -1) if N else (0,)
    for rows in young._partitions(N * size_cap + size_cap, N):
        cols = young._conjugate(rows)
        for k in widths:
            q = sum(rows) - N * k
            try:
                plus, minus = young._split_U(cols, q, N)
            except ValueError:
                continue
            if (sum(plus) > size_cap or sum(minus) > size_cap
                    or (plus[0] if plus else 0) + (minus[0] if minus else 0) > N):
                continue
            irr = GaugeIrrepU(YoungDiagram(rows), q)
            try:
                s = irrep_U_to_sector(irr, N)
            except (ValueError, BoundViolation):
                continue
            if s.y_plus.size <= size_cap and s.y_minus.size <= size_cap:
                found = seen.get(irr)
                if found != s:
                    failures.append({"kind": "missing" if found is None else "mismatch",
                                     "label": irr.to_json()})
    return failures


def planted_seen(N, size_cap):
    """The forward walk's labels with its first one dropped and its last
    one keyed to the second's sector."""
    seen = {sector_to_irrep_U(s): s for s in enumerate_sectors(COMPLEX, N, size_cap)}
    labels = list(seen)
    seen[labels[-1]] = seen[labels[1]]
    del seen[labels[0]]
    return seen


@pytest.mark.parametrize("N, cap", [(4, 5), (3, 4), (2, 6), (5, 4), (6, 6)])
def test_u_scan_bounded_by_the_width_reports_what_the_full_domain_walk_reports(N, cap):
    for seen, kinds in (({}, {"missing"}), (planted_seen(N, cap), {"missing", "mismatch"})):
        failures = []
        young._totality_U(N, cap, seen, failures)
        assert failures == full_domain_totality_U(N, cap, seen), (N, cap)
        assert {f["kind"] for f in failures} == kinds


def _keep_first_plus_column(cols, q, N):
    plus, minus = _honest_split(cols, q, N)
    return plus[:1], minus


@pytest.mark.parametrize("split", [_drop_last_plus_column, _keep_first_plus_column])
@pytest.mark.parametrize("N, cap", [(4, 5), (3, 4), (2, 6)])
def test_a_split_that_breaks_the_width_bound_gets_the_full_domain_walk(monkeypatch, N, cap, split):
    # a split rule that shrinks Y+ brings labels past the bound into the
    # window; the walk sees the bound broken and walks every width
    monkeypatch.setattr(young, "_split_U", split)
    assert young._scan_U(N, cap, {}, bounded=True) is None
    for seen in ({}, planted_seen(N, cap)):
        failures = []
        young._totality_U(N, cap, seen, failures)
        assert failures == full_domain_totality_U(N, cap, seen), (N, cap)


def test_u_scan_splits_near_the_window_and_maps_only_the_window(monkeypatch):
    N, cap = 4, 5
    calls = {"split": 0, "map": 0}
    honest_map = young.irrep_U_to_sector

    def counted_split(cols, q, N):
        calls["split"] += 1
        return _honest_split(cols, q, N)

    def counted_map(irr, N):
        calls["map"] += 1
        return honest_map(irr, N)

    monkeypatch.setattr(young, "_split_U", counted_split)
    monkeypatch.setattr(young, "irrep_U_to_sector", counted_map)
    report = bijection_roundtrip_check("U", N, cap)
    assert report["ok"] and len(report["entries"]) == 196
    domain = (cap + 1) * sum(partitions_at_most(n, N) for n in range((N + 1) * cap + 1))
    assert domain == len(list(u_scan_domain(N, cap))) == 8862
    # 196 forward maps, 196 labels in the window; each map splits once more,
    # and the walk splits 1,099 of the domain's 8,862 (label, k) pairs
    assert calls["map"] == 392
    assert calls["split"] == 1099 + calls["map"]


@pytest.mark.parametrize("group", ["U", "O"])
def test_bijection_check_refuses_a_negative_cap(group):
    # a negative cap used to pass with nothing checked
    with pytest.raises(ValueError, match="size_cap must be >= 0"):
        bijection_roundtrip_check(group, 2, -1)


def test_n0_admits_only_the_trivial_label():
    # weyl_dimension_U used to give 1 for a charged label at N = 0
    assert weyl_dimension_U(GaugeIrrepU(EMPTY, 0), 0) == 1
    assert irrep_U_to_sector(GaugeIrrepU(EMPTY, 0), 0) == complex_sector(EMPTY, EMPTY, 0)
    for q in (-1, 5):
        irr = GaugeIrrepU(EMPTY, q)
        for call in (irr.validate, lambda N: weyl_dimension_U(irr, N),
                     lambda N: irrep_U_to_sector(irr, N)):
            with pytest.raises(ValueError, match="N=0 admits only the trivial label"):
                call(0)
    with pytest.raises(ValueError):
        GaugeIrrepU(diagram(1), 1).validate(0)


@pytest.mark.parametrize("q", [1.0, True, Fraction(1), "1"], ids=repr)
def test_a_charge_that_is_not_an_int_is_refused(q):
    # a float charge used to give the float dimension 2.0, and the inverse
    # map a raw TypeError from a slice; True passed as 1
    irr = GaugeIrrepU(diagram(1), q)
    for call in (irr.validate, lambda N: weyl_dimension_U(irr, N), lambda N: irrep_U_to_sector(irr, N)):
        with pytest.raises(TypeError, match="charge q must be an int"):
            call(2)

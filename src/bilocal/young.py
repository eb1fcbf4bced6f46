"""Young diagram combinatorics, sector labels, and the gauge dictionary.

Sectors of the complex bilocal algebra are pairs of Young diagrams
(Y+, Y-) with first-column heights r+ + r- <= N; they correspond one to
one with irreducible representations of U(N).  Real sectors are single
diagrams Y whose first two column heights satisfy r + s <= N, matching
the (Y, sign) labels of O(N) irreducibles.

The U(N) label of a sector is the juxtaposition of the relative
conjugate of Y- and Y+, plus the charge q = |Y+| - |Y-|; the split is
recovered from q alone.  The realized gauge generators live here too,
because they act on flavor indices.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from numbers import Rational
from typing import Iterator, NamedTuple, Optional

from .fock import (
    COMPLEX,
    REAL,
    ContextViolation,
    FockContext,
    SPECIES_A,
    ModeSlot,
    Operator,
    field_kind_named,
)
from .linalg import OrderedRecord


class BoundViolation(Exception):
    """A sector label breaks its unitarity bound."""


class YoungDiagram(OrderedRecord):
    """Weakly decreasing positive row lengths; () is the trivial diagram."""

    def __init__(self, rows: tuple = ()):
        rows = tuple(r if type(r) is int else _row_length(r) for r in rows)
        self._set(rows=rows)
        for a, b in zip(rows, rows[1:]):
            if b > a:
                raise ValueError(f"rows {rows} not weakly decreasing")
        if rows and rows[-1] <= 0:
            raise ValueError(f"rows {rows} must be positive")

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> int:
        """Length of row i (1-based), 0 beyond the diagram."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else 0

    @cached_property
    def _columns(self) -> tuple:
        """Column heights, computed once per instance.  Kept in the instance
        dict, outside the record's fields, so eq, hash and order ignore it."""
        return _conjugate(self.rows)

    def column_heights(self) -> tuple:
        return self._columns

    def column(self, k: int) -> int:
        """Height of column k (1-based), 0 beyond the diagram."""
        cols = self._columns
        return cols[k - 1] if 1 <= k <= len(cols) else 0

    @staticmethod
    def from_columns(heights) -> "YoungDiagram":
        """The diagram with these column heights, in any order; heights <= 0
        are dropped.  The sorted heights fill its column cache."""
        cols = tuple(sorted((h for h in heights if h > 0), reverse=True))
        y = YoungDiagram(_conjugate(cols))
        y.__dict__["_columns"] = cols
        return y

    def conjugate(self) -> "YoungDiagram":
        return YoungDiagram(self.column_heights())

    def __str__(self):
        return "[" + ",".join(map(str, self.rows)) + "]"

    def to_json(self):
        return list(self.rows)


def _conjugate(parts) -> tuple:
    """Conjugate of weakly decreasing positive parts, in time linear in the
    largest part plus the number of parts: column c has height k, the
    number of parts >= c, and k only falls as c grows."""
    out = []
    k = len(parts)
    for c in range(1, parts[0] + 1 if parts else 1):
        while parts[k - 1] < c:
            k -= 1
        out.append(k)
    return tuple(out)


def _row_length(r) -> int:
    """r as an int row length: a bool or a non-rational (a float, a string)
    raises TypeError and a non-integral rational ValueError, where int()
    would accept, truncate or parse them."""
    if isinstance(r, bool) or not isinstance(r, Rational):
        raise TypeError(f"row lengths are integers, got {type(r).__name__} {r!r}")
    if r.denominator != 1:
        raise ValueError(f"row length {r} is not an integer")
    return int(r)


def diagram(*rows) -> YoungDiagram:
    return YoungDiagram(tuple(rows))


EMPTY = YoungDiagram(())


def young_diagrams(max_boxes: int, max_rows: Optional[int] = None) -> Iterator[YoungDiagram]:
    """All diagrams with at most max_boxes boxes (and optionally bounded rows),
    by size, then rows in decreasing lexicographic order."""
    for rows in _partitions(max_boxes, max_rows):
        yield YoungDiagram(rows)


def _partitions(max_boxes: int, max_rows: Optional[int] = None) -> Iterator[tuple]:
    """The row tuples of ``young_diagrams``, in its order, with no diagram
    built."""

    def parts(total, cap, rows):
        # partitions of total into at most ``rows`` parts, each <= cap; a
        # first part below total / rows leaves too much for the rest
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            if first * rows < total:
                return
            for rest in parts(total - first, first, rows - 1):
                yield (first,) + rest

    if max_rows is not None and max_rows < 0:
        return
    for n in range(max_boxes + 1):
        yield from parts(n, n, n if max_rows is None else max_rows)


# ---------------------------------------------------------------------------
# sector labels


class SectorLabel(OrderedRecord):
    """Ground-state label: (Y+, Y-, N) for complex, (Y, N) for real, stored
    as (Y, EMPTY): one diagram per species.  A missing Y- is EMPTY."""

    def __init__(self, field_kind: str, N: int, y_plus: YoungDiagram, y_minus: Optional[YoungDiagram] = None):
        if type(N) is not int or N < 0:
            raise ValueError(f"multiplet size N must be an int >= 0, got {N!r}")
        kind = field_kind_named(field_kind)
        if y_minus is None:
            y_minus = EMPTY
        elif len(kind.species) == 1 and y_minus != EMPTY:
            raise ValueError("real sectors carry a single diagram")
        self._set(field_kind=field_kind, N=N, y_plus=y_plus, y_minus=y_minus)

    @property
    def y(self) -> YoungDiagram:
        """The single diagram of a real sector."""
        if self.field_kind != REAL:
            raise ValueError("y is only defined for real sectors")
        return self.y_plus

    def bound_heights(self) -> tuple:
        """The two column heights the unitarity bound sums: (r+, r-), the
        first columns of Y+ and Y- (complex), or (r, s), the first two
        columns of Y (real)."""
        if self.field_kind == COMPLEX:
            return self.y_plus.column(1), self.y_minus.column(1)
        return self.y_plus.column(1), self.y_plus.column(2)

    def bound_violation(self) -> Optional[str]:
        """The violated inequality as text, or None when in bound."""
        first, second = self.bound_heights()
        if first + second > self.N:
            return f"{_BOUND_NAMES[self.field_kind]} = {first}+{second} > N = {self.N}"
        return None

    def check_bound(self):
        msg = self.bound_violation()
        if msg:
            raise BoundViolation(msg)
        return self

    def total_boxes(self) -> int:
        return self.y_plus.size + self.y_minus.size

    def __str__(self):
        if self.field_kind == COMPLEX:
            return f"({self.y_plus},{self.y_minus},N={self.N})"
        return f"({self.y_plus},N={self.N})"


_BOUND_NAMES = {COMPLEX: "r+ + r-", REAL: "r + s"}


def complex_sector(y_plus: YoungDiagram, y_minus: YoungDiagram, N: int) -> SectorLabel:
    return SectorLabel(COMPLEX, N, y_plus, y_minus)


def real_sector(y: YoungDiagram, N: int) -> SectorLabel:
    return SectorLabel(REAL, N, y)


def vacuum_sector(ctx_or_kind, N: Optional[int] = None) -> SectorLabel:
    if isinstance(ctx_or_kind, FockContext):
        if N is not None and N != ctx_or_kind.N:
            raise ValueError(f"N = {N} differs from the context's N = {ctx_or_kind.N}")
        kind, N = ctx_or_kind.field_kind, ctx_or_kind.N
    else:
        kind = ctx_or_kind
    return SectorLabel(kind, N, EMPTY)


def enumerate_sectors(field_kind: str, N: int, max_boxes: int) -> Iterator[SectorLabel]:
    """All in-bound sectors with each diagram capped at max_boxes boxes, in
    the order of Y+, then Y- (always EMPTY for real)."""
    diagrams = list(young_diagrams(max_boxes))
    for yp in diagrams:
        for ym in [EMPTY] if field_kind == REAL else diagrams:
            s = SectorLabel(field_kind, N, yp, ym)
            if s.bound_violation() is None:
                yield s


# ---------------------------------------------------------------------------
# Pieri rules (the only tensor products the construction needs)


def pieri_add_box(y: YoungDiagram) -> set:
    """All diagrams obtained from y by adding a single box."""
    out = set()
    rows = list(y.rows)
    for i in range(len(rows) + 1):
        new = list(rows)
        if i == len(rows):
            new.append(1)
        else:
            new[i] += 1
        try:
            out.add(YoungDiagram(tuple(new)))
        except ValueError:
            pass
    return out


# ---------------------------------------------------------------------------
# U(N) dictionary


class GaugeIrrepU(NamedTuple):
    """U(N) irreducible label: diagram plus integer charge."""

    young: YoungDiagram
    q: int

    def validate(self, N: int):
        if type(self.q) is not int:
            raise TypeError(f"charge q must be an int, got {type(self.q).__name__} {self.q!r}")
        if N == 0 and self.q:
            raise ValueError("N=0 admits only the trivial label")
        if N > 0 and (self.q - self.young.size) % N != 0:
            raise ValueError(f"charge {self.q} != |Y| mod N for {self.young}")
        if self.young.column(1) > N:
            raise ValueError(f"diagram {self.young} has a column taller than N={N}")
        return self

    def to_json(self):
        return {"Y": self.young.to_json(), "q": self.q}


def conjugate_relative(y: YoungDiagram, N: int) -> YoungDiagram:
    """The conjugate diagram with column heights N - r_k, in reversed order."""
    heights = y.column_heights()
    if any(h > N for h in heights):
        raise ValueError(f"column taller than N={N}")
    return YoungDiagram.from_columns(tuple(N - h for h in reversed(heights)))


def sector_to_irrep_U(s: SectorLabel) -> GaugeIrrepU:
    """Juxtaposition of the relative conjugate of Y- and Y+, with charge
    q = |Y+| - |Y-|."""
    if s.field_kind != COMPLEX:
        raise ValueError("U dictionary applies to complex sectors")
    s.check_bound()
    left = conjugate_relative(s.y_minus, s.N).column_heights()
    right = s.y_plus.column_heights()
    y = YoungDiagram.from_columns(left + right)
    return GaugeIrrepU(y, s.y_plus.size - s.y_minus.size)


def _split_U(cols: tuple, q: int, N: int) -> tuple:
    """The one split rule of the U(N) dictionary: the column heights
    (Y+, Y-) named by a label with weakly decreasing column heights
    ``cols`` and charge q.  Y- has k = (|Y| - q) / N columns (none at
    N = 0), the heights N - h of the first k columns of the label, zero
    padded, in reversed order; Y+ has the other columns.  Raises
    ValueError when no split exists.  The bound r+ + r- <= N is left to
    the caller; a split that exists meets it (for k >= 1, r- = N - h_k
    and r+ <= h_k, with h_k the label's k-th column height, 0 past its
    last)."""
    k2 = sum(cols) - q
    if k2 < 0 or (k2 % N if N else k2):
        raise ValueError(f"no split: |Y| - q = {k2} is not a multiple of N")
    k = k2 // N if N else 0
    left, right = cols[:k], cols[k:]
    if left and left[0] >= N:
        raise ValueError("no split: a conjugated column would have height <= 0")
    if right and right[0] > N:
        raise ValueError("no split: Y+ column taller than N")
    return right, (N,) * (k - len(left)) + tuple(N - h for h in reversed(left))


def irrep_U_to_sector(irr: GaugeIrrepU, N: int) -> SectorLabel:
    """The unique split of the label back into (Y+, Y-); raises ValueError
    when no valid split exists and BoundViolation when the split breaks
    r+ + r- <= N."""
    irr.validate(N)
    plus, minus = _split_U(irr.young.column_heights(), irr.q, N)
    return complex_sector(YoungDiagram.from_columns(plus), YoungDiagram.from_columns(minus),
                          N).check_bound()


def weyl_dimension_U(irr: GaugeIrrepU, N: int) -> int:
    """Dimension of the U(N) irreducible with this label (Weyl formula)."""
    irr.validate(N)
    if N == 0:
        return 1
    shift = (irr.q - irr.young.size) // N
    lam = [irr.young.row(i) + shift for i in range(1, N + 1)]
    num = 1
    den = 1
    for i in range(N):
        for j in range(i + 1, N):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Weyl dimension did not divide evenly")
    return dim


# ---------------------------------------------------------------------------
# O(N) dictionary


class GaugeIrrepO(NamedTuple):
    """O(N) irreducible label: diagram with at most floor(N/2) rows, plus a
    sign for the determinant twist."""

    young: YoungDiagram
    sign: str

    def validate(self, N: int):
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        if self.young.num_rows > N // 2:
            raise ValueError(f"{self.young} has more than N/2 = {N // 2} rows")
        return self

    def to_json(self):
        return {"Y": self.young.to_json(), "sign": self.sign}


class OSectorDictEntry(NamedTuple):
    """Result of relabeling a real sector diagram as an O(N) irrep: the
    canonical standard label, every label the column-flip rule produces,
    and whether the two signs are equivalent."""

    canonical: GaugeIrrepO
    by_rule: tuple
    equivalent_pair: bool


def _flip_first_column(y: YoungDiagram, N: int) -> YoungDiagram:
    """Replace the first column of height r by a column of height N - r."""
    heights = list(y.column_heights())
    r = heights[0] if heights else 0
    rest = heights[1:]
    return YoungDiagram.from_columns(tuple(sorted([N - r] + rest, reverse=True)))


def sector_to_irrep_O(y: YoungDiagram, N: int) -> OSectorDictEntry:
    """Relabel a tensor diagram (r + s <= N) as a standard (Y, sign) pair.

    The rank-r antisymmetric tensor is det times the rank N-r one, so the
    diagram and its first-column flip name the same irrep with opposite
    signs; both spellings are reported, and the canonical label is the
    one with at most N/2 rows, '+' preferred on the self-associated
    boundary r = N/2 (where the two signs are genuinely equivalent).
    """
    real_sector(y, N).check_bound()
    r = y.column(1)
    plus = GaugeIrrepO(y, "+")
    minus = GaugeIrrepO(_flip_first_column(y, N), "-")
    canonical = plus if 2 * r <= N else minus
    return OSectorDictEntry(
        canonical=canonical,
        by_rule=(plus, minus),
        equivalent_pair=(2 * r == N),
    )


def irrep_O_to_sector(irr: GaugeIrrepO, N: int) -> YoungDiagram:
    irr.validate(N)
    if irr.sign == "+":
        return irr.young
    return _flip_first_column(irr.young, N)


def o_labels_equivalent(irr: GaugeIrrepO, N: int) -> bool:
    """True when (Y,+) and (Y,-) name the same irrep: N even, exactly N/2 rows."""
    return N % 2 == 0 and irr.young.num_rows == N // 2


def canonical_irrep_O(irr: GaugeIrrepO, N: int) -> GaugeIrrepO:
    if o_labels_equivalent(irr, N):
        return GaugeIrrepO(irr.young, "+")
    return irr


# ---------------------------------------------------------------------------
# round-trip verification


def bijection_roundtrip_check(group: str, N: int, size_cap: int) -> dict:
    """Exhaustively check that the sector <-> gauge-label maps are mutually
    inverse and total on the window of diagrams with <= size_cap boxes."""
    if size_cap < 0:
        raise ValueError(f"size_cap must be >= 0, got {size_cap}")
    failures = []
    entries = []
    if group == "U":
        seen = {}
        for s in enumerate_sectors(COMPLEX, N, size_cap):
            irr = sector_to_irrep_U(s)
            key = (irr.young, irr.q)
            if key in seen:
                failures.append({"kind": "collision", "label": irr.to_json(),
                                 "sectors": [str(seen[key]), str(s)]})
            seen[key] = s
            try:
                back = irrep_U_to_sector(irr, N)
            except (ValueError, BoundViolation):
                back = None  # the label names no sector at all
            if back != s:
                failures.append({"kind": "roundtrip", "sector": str(s), "label": irr.to_json(),
                                 "back": None if back is None else str(back)})
            entries.append({"sector": sector_to_json(s), "irrep": irr.to_json()})
        # totality: every valid label in range (at most N rows) maps back into
        # the window.  Only q = |Y| - N k splits, with Y- of exactly k columns,
        # so k <= size_cap (and |q| <= cap follows); N = 0 has the one split
        # k = 0.  Every such label is split on its column heights, and only
        # one whose split lies in the window and the bound is built and
        # mapped.
        cap = N * size_cap + size_cap
        widths = range(size_cap, -1, -1) if N else (0,)
        for rows in _partitions(cap, N):
            cols = _conjugate(rows)
            size = sum(rows)
            y = None
            for k in widths:
                q = size - N * k
                try:
                    plus, minus = _split_U(cols, q, N)
                except ValueError:
                    continue
                if (sum(plus) > size_cap or sum(minus) > size_cap
                        or (plus[0] if plus else 0) + (minus[0] if minus else 0) > N):
                    continue
                if y is None:
                    y = YoungDiagram(rows)
                try:
                    s = irrep_U_to_sector(GaugeIrrepU(y, q), N)
                except (ValueError, BoundViolation):
                    continue
                if s.y_plus.size <= size_cap and s.y_minus.size <= size_cap:
                    if (y, q) not in seen:
                        failures.append({"kind": "missing", "label": {"Y": y.to_json(), "q": q}})
                    elif seen[(y, q)] != s:
                        failures.append({"kind": "mismatch", "label": {"Y": y.to_json(), "q": q}})
    elif group == "O":
        seen = {}
        for s in enumerate_sectors(REAL, N, size_cap):
            entry = sector_to_irrep_O(s.y, N)
            irr = entry.canonical
            key = (irr.young, irr.sign)
            if key in seen:
                failures.append({"kind": "collision", "label": irr.to_json(),
                                 "sectors": [str(seen[key]), str(s)]})
            seen[key] = s
            try:
                back = irrep_O_to_sector(irr, N)
            except (ValueError, BoundViolation):
                back = None  # the label names no sector at all
            if back != s.y:
                failures.append({"kind": "roundtrip", "sector": str(s), "label": irr.to_json(),
                                 "back": None if back is None else str(back)})
            expect_equiv = o_labels_equivalent(irr, N)
            if entry.equivalent_pair != expect_equiv:
                failures.append({"kind": "equivalence", "sector": str(s),
                                 "flagged": entry.equivalent_pair, "expected": expect_equiv})
            entries.append({"sector": sector_to_json(s), "irrep": irr.to_json(),
                            "equivalent_pair": entry.equivalent_pair})
        for y in young_diagrams(size_cap + N, max_rows=N // 2):
            for sign in ("+", "-"):
                irr = GaugeIrrepO(y, sign)
                if canonical_irrep_O(irr, N) != irr:
                    continue  # identified with the '+' partner
                back = irrep_O_to_sector(irr, N)
                if real_sector(back, N).bound_violation() is not None:
                    failures.append({"kind": "out_of_bound_back", "label": irr.to_json()})
                    continue
                if back.size <= size_cap:
                    entry = sector_to_irrep_O(back, N)
                    if entry.canonical != irr:
                        failures.append({"kind": "missing", "label": irr.to_json(),
                                         "via": str(back)})
    else:
        raise ValueError("group must be 'U' or 'O'")
    return {"ok": not failures, "group": group, "N": N, "size_cap": size_cap,
            "entries": entries, "failures": failures}


def sector_to_json(s: SectorLabel) -> dict:
    if s.field_kind == COMPLEX:
        return {"Y_plus": s.y_plus.to_json(), "Y_minus": s.y_minus.to_json(), "N": s.N}
    return {"Y": s.y_plus.to_json(), "N": s.N}


# ---------------------------------------------------------------------------
# realized gauge generators (flavor-index bilinears)


@lru_cache(maxsize=None)
def gauge_terms(ctx: FockContext, p: int, q: int) -> Operator:
    """The gauge generator (p, q) acting on Fock space, truncated to modes
    <= M (exact on the truncated space since higher modes are unoccupied),
    built once per context and flavor pair (an invalid pair is not cached,
    so it raises on every call).

    Complex: E^{pq} = sum_i (a*[i,p] a[i,q] - b*[i,q] b[i,p]).
    Real:    M^{pq} = sum_i (a*[i,p] a[i,q] - a*[i,q] a[i,p]), so M^{pp} = 0.
    The second term acts on the last oscillator species of the field kind.
    """
    for f in (p, q):
        if not 1 <= f <= ctx.N:
            raise ContextViolation(f"flavor {f} outside 1..{ctx.N}")
    second = ctx.kind.species[-1]
    terms = []
    for i in range(1, ctx.M + 1):
        terms.append((1, (ModeSlot(SPECIES_A, i, q),), (ModeSlot(SPECIES_A, i, p),)))
        terms.append((-1, (ModeSlot(second, i, p),), (ModeSlot(second, i, q),)))
    return Operator(ctx, terms)

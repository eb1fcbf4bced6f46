"""Exact linear algebra over Fraction: the sparse rational combination,
one sparse echelon, and one symmetric elimination for the
positive-semidefinite test.

``add_scaled`` is the only loop that sums sparse terms, and
``Combination`` is the one sparse vector type built on it: Fock states,
operator expressions and kernel rows are all finite rational
combinations of keys.

Rows are dicts {column: value} over any orderable column keys; a dense
row list is read as {index: value}.  ``RowSpan`` keeps the echelon form
of the rows pushed into it: the pivot columns of any echelon form of a
row space are the same, so kernels read off it by back-substitution
are the free-column basis whichever order the rows arrive in.
``nullspace``, ``solve`` and ``det`` are thin readings of that echelon.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def add_scaled(dst: dict, src: dict, f=1) -> None:
    """dst += f * src, in place, for {key: value} dicts.

    A key whose sum cancels is popped, so dst never stores a zero.  A key
    that is new goes to the end and one already present keeps its place,
    which is exactly the key order of the chained sums ``dst + f * src``.
    """
    if not f:
        return
    get, pop = dst.get, dst.pop
    if f == 1:
        for k, c in src.items():
            s = get(k, 0) + c
            if s:
                dst[k] = s
            else:
                pop(k, None)
    else:
        for k, c in src.items():
            s = get(k, 0) + f * c
            if s:
                dst[k] = s
            else:
                pop(k, None)


class Combination:
    """Finite rational combination {key: Fraction} of hashable keys, with
    no zero coefficient stored; immutable by convention.

    ``ctx`` names the space the keys live in (None when there is only one):
    combinations in different spaces are never equal, and a subclass
    refuses to add them in ``_check``.
    """

    __slots__ = ("terms", "ctx")

    def __init__(self, terms=None, ctx=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[k] = c
        self.terms = clean
        self.ctx = ctx

    @classmethod
    def _wrap(cls, terms: dict, ctx=None):
        """An instance holding ``terms`` as they are: the caller guarantees
        every value is a nonzero Fraction."""
        out = object.__new__(cls)
        out.terms = terms
        out.ctx = ctx
        return out

    def _check(self, other):
        """Raise when ``other`` may not be added to self; no check here."""

    def plus(self, pairs) -> "Combination":
        """self + sum of f * v over the (f, v) in pairs, summed in one dict."""
        out = dict(self.terms)
        for f, v in pairs:
            self._check(v)
            add_scaled(out, v.terms, f)
        return self._wrap(out, self.ctx)

    def __add__(self, other):
        return self.plus(((1, other),))

    def __sub__(self, other):
        return self.plus(((-1, other),))

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        terms = {k: c * scalar for k, c in self.terms.items()} if scalar else {}
        return self._wrap(terms, self.ctx)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def items(self):
        return self.terms.items()

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)


def _sparse(row) -> dict:
    return row if isinstance(row, dict) else dict(enumerate(row))


def _echelon(rows) -> "RowSpan":
    span = RowSpan()
    for row in rows:
        span._push(_sparse(row))
    return span


def nullspace(rows, ncols):
    """Basis of the kernel of the matrix with columns 0..ncols-1, as
    coefficient lists: one vector per free column, 1 there and 0 at every
    other free column."""
    return _echelon(rows)._kernel(ncols)


def solve(a, b):
    """Solve a x = b for square nonsingular a, as the kernel of [a | -b];
    raises on singular input."""
    n = len(a)
    span = _echelon(_sparse(row) | {n: -Fraction(bi)} for row, bi in zip(a, b))
    if len(span._rows) != n or n in span._rows:
        raise ValueError("singular system")
    return span._kernel(n + 1)[0][:n]


def det(a):
    """Signed product of the pivots met while pushing the rows in order."""
    span = RowSpan()
    leads = []
    out = Fraction(1)
    for row in a:
        lead, pivot = span._push(_sparse(row))
        if lead is None:
            return Fraction(0)
        leads.append(lead)
        out *= pivot
    for i, x in enumerate(leads):
        for y in leads[i + 1:]:
            if y < x:
                out = -out
    return out


def leading_principal_minors(a):
    n = len(a)
    return [det([row[: k + 1] for row in a[: k + 1]]) for k in range(n)]


def positive_semidefinite(a) -> bool:
    """Exact PSD test for a symmetric matrix by symmetric elimination: each
    pivot is replaced by the Schur complement of its row and column.  A
    negative pivot fails, and so does a zero pivot whose row is nonzero (a
    PSD matrix has a zero row wherever it has a zero diagonal entry)."""
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


class RowSpan:
    """Incrementally maintained row space over a dynamic, orderable key set.

    Rows are dicts {key: Fraction}; ``add`` reduces the candidate against
    the stored echelon rows and reports whether it was independent.
    """

    def __init__(self):
        self._rows = {}  # leading key -> reduced row dict, leading entry 1

    def _reduce(self, vec):
        vec = {k: Fraction(c) for k, c in vec.items() if c}
        while vec:
            lead = min(vec)
            row = self._rows.get(lead)
            if row is None:
                return lead, vec
            add_scaled(vec, row, -vec[lead])
        return None, {}

    def _push(self, vec):
        """Store what is left of vec after reduction; return its leading
        key and leading entry, or (None, 0) when vec was dependent."""
        lead, red = self._reduce(vec)
        if lead is None:
            return None, Fraction(0)
        pivot = red[lead]
        self._rows[lead] = {k: c / pivot for k, c in red.items()}
        return lead, pivot

    def add(self, vec) -> bool:
        return self._push(vec)[0] is not None

    def _kernel(self, ncols):
        """Free-column basis of {x : row . x = 0 for every stored row} over
        the integer columns 0..ncols-1, by back-substitution."""
        pivots = sorted(self._rows, reverse=True)
        basis = []
        for free in range(ncols):
            if free in self._rows:
                continue
            x = {free: _ONE}
            for p in pivots:
                if p < free:
                    s = -sum(c * x[k] for k, c in self._rows[p].items() if k in x)
                    if s:
                        x[p] = s
            basis.append([x.get(j, _ZERO) for j in range(ncols)])
        return basis

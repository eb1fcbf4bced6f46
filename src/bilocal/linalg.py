"""Exact linear algebra over Fraction: one sparse echelon, plus one
symmetric elimination for the positive-semidefinite test.

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
            f = vec[lead]
            for k, c in row.items():
                s = vec.get(k, 0) - f * c
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
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

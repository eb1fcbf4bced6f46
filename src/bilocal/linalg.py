"""Exact linear algebra over the rationals: the sparse rational
combination and one sparse echelon.

``add_scaled`` is the only loop that sums sparse terms, and
``Combination`` is the one sparse vector type built on it: Fock states,
operator expressions and kernel rows are all finite rational
combinations of keys.

Every coefficient is stored in the canonical form ``rational`` gives: an
int when the value is integral, a Fraction with denominator > 1
otherwise, never a float.  Both are ``numbers.Rational``, and an int and
a Fraction of the same value compare and hash equal, so the form changes
no result; it keeps integer work on ints.  Two ints divide to a float, so
a quotient is taken as ``Fraction(a) / b`` (``quotient``).

Rows are dicts {column: value} over any orderable column keys; a dense
row list is read as {index: value}.  ``RowSpan`` keeps the fully reduced
echelon form of the rows pushed into it, which is unique for the row
space: kernels read straight off it are the free-column basis whichever
order the rows arrive in.  ``nullspace``, ``solve``, ``det`` and
``positive_semidefinite`` are short readings of that echelon.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from numbers import Rational


def rational(c):
    """c in canonical form: an int when integral, else a Fraction.  Raises
    TypeError on anything that is not a numbers.Rational, a float above
    all, whose binary value would pass for an exact one."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if not isinstance(c, Rational):
            raise TypeError(f"exact rational coefficient expected, got {type(c).__name__} {c!r}")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def quotient(a, b):
    """a / b exactly, in canonical form."""
    return rational(Fraction(a) / b)


def canonical(terms: dict) -> dict:
    """terms with every integral Fraction value replaced by its int, in
    place, keys and their order unchanged; returns terms.  Sums and
    products that a Fraction takes part in can land on an integer."""
    for k, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[k] = c.numerator
    return terms


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
    """Finite rational combination {key: coefficient} of hashable keys, in
    canonical form with no zero coefficient stored; immutable by
    convention.

    ``ctx`` names the space the keys live in (None when there is only one):
    combinations in different spaces are never equal, and a subclass
    refuses to add them in ``_check``.
    """

    __slots__ = ("terms", "ctx")

    def __init__(self, terms=None, ctx=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = rational(c)
                if c:
                    clean[k] = c
        self.terms = clean
        self.ctx = ctx

    @classmethod
    def _wrap(cls, terms: dict, ctx=None):
        """An instance holding ``terms`` as they are: the caller guarantees
        every value is nonzero and canonical."""
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
            add_scaled(out, v.terms, rational(f))
        return self._wrap(canonical(out), self.ctx)

    def __add__(self, other):
        return self.plus(((1, other),))

    def __sub__(self, other):
        return self.plus(((-1, other),))

    def __mul__(self, scalar):
        scalar = rational(scalar)
        terms = canonical({k: c * scalar for k, c in self.terms.items()}) if scalar else {}
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


def _by_fields(compare):
    """A comparison of two records of one class by their field tuples."""
    return lambda self, other: compare(self._key, other._key) if other.__class__ is self.__class__ else NotImplemented


class Record:
    """Base of the small immutable value types, which store their fields
    once, in order, with ``_set``.  A record equals only a record of its own
    class with equal fields, hashes as its field tuple, prints as
    ``Name(field=value, ...)`` and refuses assignment with AttributeError."""

    def _set(self, **fields):
        self.__dict__.update(fields, _fields=tuple(fields), _key=tuple(fields.values()))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
    __eq__ = _by_fields(operator.eq)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self._key))})"


class OrderedRecord(Record):
    """A record ordered by its field tuple."""

    __lt__, __le__, __gt__, __ge__ = map(_by_fields, (operator.lt, operator.le, operator.gt, operator.ge))


def _sparse(row) -> dict:
    return row if isinstance(row, dict) else dict(enumerate(row))


def _echelon(rows) -> "RowSpan":
    span = RowSpan()
    for row in rows:
        span._push(_sparse(row))
    return span


def nullspace(rows, ncols):
    """Basis of the kernel of the matrix with columns 0..ncols-1: one vector
    per free column, 1 there and 0 at every other free column, each a
    sparse {column: coefficient} dict with its keys in column order and no
    zero stored."""
    return _echelon(rows)._kernel(ncols)


def solve(a, b):
    """Solve a x = b for square nonsingular a, as the kernel of [a | -b];
    raises on singular input."""
    n = len(a)
    span = _echelon(_sparse(row) | {n: -rational(bi)} for row, bi in zip(a, b))
    if len(span._rows) != n or n in span._rows:
        raise ValueError("singular system")
    x = span._kernel(n + 1)[0]
    return [x.get(j, 0) for j in range(n)]


def _check_square(a):
    """ValueError unless each dense row has len(a) entries and each sparse
    row keys inside columns 0..len(a)-1."""
    for row in a:
        if not (row.keys() <= set(range(len(a))) if isinstance(row, dict) else len(row) == len(a)):
            raise ValueError(f"square matrix expected: {len(a)} rows, one of them {row!r}")


def det(a):
    """Signed product of the pivots met while pushing the rows in order; a
    must be square."""
    _check_square(a)
    span = RowSpan()
    leads = []
    out = 1
    for row in a:
        lead, pivot = span._push(_sparse(row))
        if lead is None:
            return 0
        leads.append(lead)
        out *= pivot
    for i, x in enumerate(leads):
        for y in leads[i + 1:]:
            if y < x:
                out = -out
    return rational(out)


def leading_principal_minors(a):
    _check_square(a)
    rows = [_sparse(row) for row in a]
    return [det([{j: x for j, x in row.items() if j <= k} for row in rows[: k + 1]]) for k in range(len(a))]


def positive_semidefinite(a) -> bool:
    """Exact PSD test for a symmetric matrix: pushed in order, every row is
    dependent or leads at its diagonal with a positive pivot.  (If a = G^T G,
    row k reduces to <h, g_l>, h the part of g_k orthogonal to the earlier
    g: 0 before column k, |h|^2 at k.  Conversely the independent rows span
    a, and their pivots are those of its principal block on them.)  A
    non-square or non-symmetric input raises ValueError."""
    if [list(col) for col in zip(*a)] != [list(row) for row in a]:
        raise ValueError("positive_semidefinite needs a symmetric matrix")
    span = RowSpan()
    for k, row in enumerate(a):
        lead, pivot = span._push(_sparse(row))
        if lead is not None and (lead != k or pivot < 0):
            return False
    return True


class RowSpan:
    """Incrementally maintained row space over a dynamic, orderable key set.

    Rows are dicts {key: coefficient}, kept in fully reduced echelon form:
    1 at the leading key, no entry at any other row's leading key.  ``add``
    reports whether the candidate was independent.
    """

    def __init__(self):
        self._rows = {}  # leading key -> reduced row dict, canonical coefficients

    def _push(self, vec):
        """Store what is left of vec after reduction, clearing its leading
        key from the stored rows; return that key and the entry there, or
        (None, 0) when vec was dependent.  Rows leading past that key touch
        nothing up to it, so any echelon form leaves the same entry."""
        rows = self._rows
        vec = {k: rational(c) for k, c in vec.items() if c}
        for p in [k for k in vec if k in rows]:
            add_scaled(vec, rows[p], -vec[p])
        if not vec:
            return None, 0
        lead = min(vec)
        pivot = vec[lead]
        if pivot != 1:
            vec = {k: quotient(c, pivot) for k, c in vec.items()}
        else:
            canonical(vec)
        for row in rows.values():
            c = row.get(lead)
            if c:
                add_scaled(row, vec, -c)
                canonical(row)
        rows[lead] = vec
        return lead, pivot

    def add(self, vec) -> bool:
        return self._push(vec)[0] is not None

    def _kernel(self, ncols):
        """Free-column basis of {x : row . x = 0 for every stored row} over
        the integer columns 0..ncols-1: x_free = 1 and x_p = -row_p[free]."""
        basis = {j: {} for j in range(ncols) if j not in self._rows}
        for p in sorted(self._rows):
            for k, c in self._rows[p].items():
                if k != p:
                    basis[k][p] = -c
        for j, x in basis.items():
            x[j] = 1
        return list(basis.values())

"""Exhaustive checks of the exact kernels, solves, determinants and the PSD
test on all small integer matrices with entries in {-1, 0, 1}, against
oracles that share no code with the elimination: the Leibniz expansion,
ranks read off nonzero minors, and signs of principal minors.  The sparse
combination is checked against the chained sums it replaces, on random
sparse maps."""

from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilocal.algebra import OperatorExpr, X, Xstar
from bilocal.linalg import (
    Combination,
    det,
    leading_principal_minors,
    nullspace,
    positive_semidefinite,
    solve,
)

ENTRIES = (-1, 0, 1)
SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]


def matrices(nrows, ncols, entries=ENTRIES):
    for flat in product(entries, repeat=nrows * ncols):
        yield [list(flat[r * ncols:(r + 1) * ncols]) for r in range(nrows)]


def _sign(perm):
    inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


SIGNED_PERMS = {n: [(_sign(p), p) for p in permutations(range(n))] for n in range(4)}


def leibniz(a):
    out = 0
    for sign, perm in SIGNED_PERMS[len(a)]:
        for i, p in enumerate(perm):
            sign *= a[i][p]
        out += sign
    return out


def rank(a, ncols):
    """Size of the largest nonzero minor among the first ncols columns."""
    for k in range(min(len(a), ncols), 0, -1):
        for rows in combinations(range(len(a)), k):
            for cols in combinations(range(ncols), k):
                if leibniz([[a[r][c] for c in cols] for r in rows]):
                    return k
    return 0


def sparse(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def apply(a, x):
    return [sum(c * xi for c, xi in zip(row, x)) for row in a]


def dense(basis, ncols):
    """Kernel vectors as coefficient lists over columns 0..ncols-1."""
    return [[x.get(j, 0) for j in range(ncols)] for x in basis]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_nullspace_free_column_basis(shape):
    nrows, ncols = shape
    for a in matrices(nrows, ncols):
        ranks = [rank(a, j) for j in range(ncols + 1)]
        free = [j for j in range(ncols) if ranks[j + 1] == ranks[j]]
        basis = dense(nullspace(a, ncols=ncols), ncols)
        assert len(basis) == ncols - ranks[ncols] == len(free), a
        for x, fc in zip(basis, free):
            assert apply(a, x) == [0] * nrows, (a, x)
            assert [x[j] for j in free] == [int(j == fc) for j in free], (a, x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_matches_leibniz(n):
    for a in matrices(n, n):
        assert det(a) == leibniz(a), a


@pytest.mark.parametrize(
    "n,entries,rhs",
    [
        (1, ENTRIES, list(product(ENTRIES, repeat=1))),
        (2, ENTRIES, list(product(ENTRIES, repeat=2))),
        (3, (0, 1), [(1, -2, 3), (1, 1, 0)]),
    ],
    ids=["1x1", "2x2", "3x3-binary"],
)
def test_solve_exact_or_singular(n, entries, rhs):
    for a in matrices(n, n, entries):
        nonsingular = leibniz(a) != 0
        for b in rhs:
            b = list(b)
            if nonsingular:
                assert apply(a, solve(a, b)) == b, (a, b)
            else:
                with pytest.raises(ValueError):
                    solve(a, b)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_sparse_rows_match_dense_rows(shape):
    nrows, ncols = shape
    for a in matrices(nrows, ncols):
        assert nullspace(sparse(a), ncols=ncols) == nullspace(a, ncols=ncols), a
        if nrows == ncols:
            assert det(sparse(a)) == det(a), a
            if det(a):
                assert solve(sparse(a), [1, -1]) == solve(a, [1, -1]), a


def test_empty_and_degenerate_inputs():
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert dense(nullspace([], ncols=3), 3) == identity
    assert nullspace([], ncols=0) == []
    assert dense(nullspace([[0, 0, 0]], ncols=3), 3) == identity
    assert det([]) == 1
    assert solve([], []) == []


def test_solve_refuses_a_non_square_system_or_a_short_rhs():
    # the right-hand column of [a | -b] sits at column len(a): for a wide a
    # it overwrote a's own column there, and a short b read as singular
    with pytest.raises(ValueError, match="square matrix expected"):
        solve([[1, 2]], [3])
    with pytest.raises(ValueError, match="right-hand side of length 1 for 2 equations"):
        solve([[1, 0], [0, 1]], [3])


def test_nullspace_refuses_a_column_past_ncols():
    with pytest.raises(ValueError, match="column 2 outside 0..1"):
        nullspace([[1, 2, 3]], ncols=2)
    with pytest.raises(ValueError, match="column 2 outside 0..1"):
        nullspace([{2: 1}], ncols=2)


def test_leading_principal_minors():
    a = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert leading_principal_minors(a) == [2, 3, 4]
    assert leading_principal_minors([[0, 0], [0, -1]]) == [0, 0]
    assert not positive_semidefinite([[0, 0], [0, -1]])  # invisible to leading minors
    # sparse dict rows give the dense result: their leading blocks are taken
    # by key (slicing a dict raised TypeError)
    assert leading_principal_minors([{0: 1}, {1: 1}]) == [1, 1]
    for n in (1, 2, 3):
        for b in matrices(n, n):
            assert leading_principal_minors(sparse(b)) == leading_principal_minors(b)


def test_non_square_determinants_raise():
    # read row by row, a 2x3 matrix had det -3 and minors [1, -3], and a
    # 3x2 matrix had det 0
    wide, tall = [[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]]
    for a in (wide, tall, [[1, 2], [3]], sparse(wide), [{0: 1}, {1: 1, 2: 1}]):
        with pytest.raises(ValueError, match="square"):
            det(a)
        with pytest.raises(ValueError, match="square"):
            leading_principal_minors(a)


@pytest.mark.parametrize("a", [[[1, 5], [0, 1]], [[1, 0], [5, 1]], [[1, 0]], [[1], [0, 1]],
                               [{0: 1, 1: 5}, {1: 40, 0: 7}], [{0: 1, 1: 5}, {1: 1}], [{0: 1, 2: 1}, {1: 1}]],
                         ids=["upper", "lower", "wide", "ragged", "sparse", "sparse-upper", "sparse-wide"])
def test_positive_semidefinite_refuses_non_symmetric_input(a):
    with pytest.raises(ValueError):
        positive_semidefinite(a)


def test_positive_semidefinite_reads_sparse_rows_by_value():
    """Sparse rows are compared entry by entry, not by their keys: these
    symmetric rows raised ValueError, and the non-symmetric ones above
    passed as symmetric."""
    assert positive_semidefinite([{0: 1, 1: 2}, {0: 2, 1: 5}])
    assert positive_semidefinite([{0: 1}, {1: 1}])
    assert not positive_semidefinite([{1: 2}, {0: 2, 1: 1}])
    for n in (1, 2, 3):
        for a in symmetric_matrices(n):
            assert positive_semidefinite(sparse(a)) == positive_semidefinite(a), a


def symmetric_matrices(n):
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for values in product(ENTRIES, repeat=len(cells)):
        a = [[0] * n for _ in range(n)]
        for (i, j), x in zip(cells, values):
            a[i][j] = a[j][i] = x
        yield a


@pytest.mark.parametrize("n", [1, 2, 3])
def test_positive_semidefinite_matches_principal_minors(n):
    """PSD iff every principal minor (not only every leading one) is >= 0."""
    for a in symmetric_matrices(n):
        minors_ok = all(det([[a[r][c] for c in rows] for r in rows]) >= 0
                        for k in range(1, n + 1) for rows in combinations(range(n), k))
        assert positive_semidefinite(a) == minors_ok, a


# ---------------------------------------------------------------------------
# the sparse combination against chained sums


def reference_add(a: dict, b: dict) -> dict:
    """a + b as a chained sum: a copy of a, updated term by term, a
    cancelling key popped."""
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def reference_mul(a: dict, scalar) -> dict:
    scalar = Fraction(scalar)
    return {m: c * scalar for m, c in a.items()} if scalar else {}


def reference_product(a: dict, b: dict) -> dict:
    """Word product of two {word: coefficient} maps, term by term."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            s = out.get(w, 0) + c1 * c2
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


# Few keys and few values, so that sums collide and cancel often.
COEFFS = st.sampled_from([Fraction(x) for x in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 2)])
SPARSE_MAPS = st.dictionaries(st.integers(0, 5), COEFFS, max_size=6)
WORDS = st.lists(st.sampled_from([X(1, 1), X(1, 2), Xstar(1, 1)]), max_size=3).map(tuple)
WORD_MAPS = st.dictionaries(WORDS, COEFFS, max_size=5)


@settings(deadline=None)
@given(SPARSE_MAPS, st.lists(st.tuples(COEFFS, SPARSE_MAPS), max_size=5))
def test_combination_plus_matches_chained_sums(start, pairs):
    want = Combination(start).terms
    for f, terms in pairs:
        want = reference_add(want, reference_mul(Combination(terms).terms, f))
    got = Combination(start).plus([(f, Combination(terms)) for f, terms in pairs])
    assert list(got.items()) == list(want.items())
    assert 0 not in got.terms.values()


@settings(deadline=None)
@given(WORD_MAPS, WORD_MAPS)
def test_operator_product_matches_termwise_product(a, b):
    got = OperatorExpr(a) * OperatorExpr(b)
    want = reference_product(OperatorExpr(a).terms, OperatorExpr(b).terms)
    assert list(got.terms.items()) == list(want.items())

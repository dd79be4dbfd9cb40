from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from filteralg.linalg import EchelonBasis, add_terms, dense_rank


def test_add_terms_drops_cancelled_keys_in_place():
    out = {"a": 1, "b": 2}
    result = add_terms(out, [("a", -1), ("c", 3), ("b", 1), ("c", -3)])
    assert result is out
    assert out == {"b": 3}


def test_echelon_refuses_non_integer_coefficients():
    # int() used to truncate 1/2 to a stored zero, or to a zero pivot.
    basis = EchelonBasis()
    with pytest.raises(TypeError):
        basis.insert({(1,): 1, (2,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        basis.insert({(1,): Fraction(1, 2)})
    assert basis.dim == 0
    assert basis.insert({(1,): 2, (2,): 1})
    with pytest.raises(TypeError):
        basis.contains({(1,): 1, (2,): Fraction(1, 2)})
    assert basis.contains({(1,): 4, (2,): 2})
    assert basis.rows() == [{(1,): 2, (2,): 1}]


def _reference_rank(rows):
    """The previous elimination: column by column, entry by entry."""
    seen = set()
    mat = []
    for r in rows:
        t = tuple(r)
        if t not in seen:
            seen.add(t)
            mat.append(list(r))
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            ci = mat[i][col]
            if not ci:
                continue
            row = mat[i]
            g = 0
            for j in range(col, ncols):
                row[j] = pv * row[j] - ci * mat[rank][j]
                g = gcd(g, row[j])
            if g > 1:
                for j in range(col, ncols):
                    row[j] //= g
        rank += 1
        if rank == len(mat):
            break
    return rank


@st.composite
def _matrices(draw):
    """Small integer matrices padded with integer combinations of their
    rows, duplicates and zero rows, in any order."""
    ncols = draw(st.integers(0, 6))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["combination", "duplicate", "zero"]))
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@given(_matrices())
def test_dense_rank_matches_reference_elimination(rows):
    assert dense_rank(rows) == _reference_rank(rows)


def test_dense_rank_edge_cases():
    assert dense_rank([]) == 0
    assert dense_rank([[0, 0], [0, 0]]) == 0
    assert dense_rank([[2, 4], [1, 2], [1, 2]]) == 1
    assert dense_rank([[0, 1], [1, 0], [1, 1]]) == 2


def _naive_reduced(basis, vec):
    """Reduction by every stored row in pivot order, whether or not its
    pivot is in the vector's support."""
    v = {key: c for key, c in vec.items() if c}
    for row in basis.rows():
        pivot = min(row)
        c = v.get(pivot)
        if c:
            p = row[pivot]
            v = add_terms(
                {key: p * val for key, val in v.items()},
                [(key, -c * rv) for key, rv in row.items()],
            )
    return v


_sparse = st.dictionaries(st.integers(0, 7), st.integers(-3, 3), max_size=5)


@given(st.lists(_sparse, max_size=8), st.lists(_sparse, max_size=4))
def test_reduction_by_pivot_index_matches_naive(inserts, probes):
    basis = EchelonBasis()
    for vec in inserts:
        reduced = _naive_reduced(basis, vec)
        assert basis._reduced(vec) == reduced
        assert basis.insert(vec) == bool(reduced)
        rows, pivots = basis.rows(), basis.pivots()
        assert pivots == sorted(pivots) == [min(row) for row in rows]
        for row in rows:
            assert all(q == min(row) or q not in row for q in pivots)
    for vec in inserts + probes:
        assert basis._reduced(vec) == _naive_reduced(basis, vec)
        assert basis.contains(vec) == (not _naive_reduced(basis, vec))

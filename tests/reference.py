"""Independent references the tests check the package's fast paths against.

Each one computes a quantity the package also computes, by a route that
shares none of the package's shortcuts: standard tableaux by corner
removal, ``(k,l)``-semistandard tableaux by listing them, Young
symmetrizers by listing their groups, and the size of a shape below its
first row.  They are meant for small inputs only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Iterator, Sequence

from filteralg import oracle
from filteralg.linalg import add_terms
from filteralg.oracle import (
    CapExceeded,
    Perm,
    _group_order,
    _group_sum,
    _tableau_blocks,
)
from filteralg.partitions import Partition, check_partition


def c_stat(lam: Partition) -> int:
    """Number of cells below the first row: ``|lam| - lam_1``."""
    return sum(lam) - (lam[0] if lam else 0)


# ---------------------------------------------------------------------------
# Tableau counts.


def f_lambda_by_recursion(lam) -> int:
    """Independent oracle for ``f_lambda``: sum over corner removals."""
    return _f_rec(check_partition(lam))


@lru_cache(maxsize=None)
def _f_rec(lam: Partition) -> int:
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            if lam[i] == 1:
                smaller = lam[:i]
            else:
                smaller = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
            total += _f_rec(smaller)
    return total


def iter_super_tableaux(lam, k: int, l: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every ``(k,l)``-semistandard filling of ``lam``.

    Entries are encoded as integers: ``1..k`` unprimed, ``k+1..k+l``
    primed.  Intended for small shapes; this is the brute-force oracle
    behind the fast counting path.
    """
    lam = check_partition(lam)
    rows = len(lam)
    grid = [[0] * r for r in lam]
    cells = [(r, c) for r in range(rows) for c in range(lam[r])]

    def ok(r: int, c: int, v: int) -> bool:
        if c > 0:
            left = grid[r][c - 1]
            if v < left or (v == left and v > k):
                return False
        if r > 0 and c < lam[r - 1]:
            above = grid[r - 1][c]
            if v < above or (v == above and v <= k):
                return False
        return True

    def fill(idx: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == len(cells):
            yield tuple(tuple(row) for row in grid)
            return
        r, c = cells[idx]
        for v in range(1, k + l + 1):
            if ok(r, c, v):
                grid[r][c] = v
                yield from fill(idx + 1)
        grid[r][c] = 0

    yield from fill(0)


def schur_dim_by_enumeration(lam, k: int, l: int) -> int:
    """Independent oracle for ``schur_dim``: literally count the tableaux."""
    return sum(1 for _ in iter_super_tableaux(lam, k, l))


# ---------------------------------------------------------------------------
# Symmetrizers in the group algebra, listed element by element.


def compose(p: Perm, q: Perm) -> Perm:
    """(p * q)(i) = p(q(i))."""
    return tuple(p[qi - 1] for qi in q)


def full_symmetrizer(n: int) -> dict:
    """Sum of all permutations of ``1..n``."""
    _check_group_cap([range(1, n + 1)])
    return _group_sum([range(1, n + 1)], n, signed=False)


def sign_symmetrizer(n: int) -> dict:
    """Signed sum of all permutations of ``1..n``."""
    _check_group_cap([range(1, n + 1)])
    return _group_sum([range(1, n + 1)], n, signed=True)


def _check_group_cap(*block_lists: Sequence[Sequence[int]]) -> None:
    """Refuse to list more than ``DEGREE_CAP!`` permutations: the product
    of the orders of the block groups is checked before any is built."""
    order = prod(_group_order(blocks) for blocks in block_lists)
    if order > factorial(oracle.DEGREE_CAP):
        raise CapExceeded(f"group order {order} exceeds cap {oracle.DEGREE_CAP}!")


def tableau_symmetrizer(rows: Sequence[Sequence[int]]) -> dict:
    """Row sum times signed column sum for a bijective tableau filling.

    Raises :class:`CapExceeded` before enumerating when ``|R| * |C|``,
    the number of products formed, is above ``DEGREE_CAP!``.
    """
    entries = [e for row in rows for e in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValueError("tableau must be a bijective filling with 1..n")
    rows, cols = _tableau_blocks(rows)
    n = len(entries)
    _check_group_cap(rows, cols)
    rplus = _group_sum(rows, n, signed=False)
    cminus = _group_sum(cols, n, signed=True)
    pairs = product(rplus.items(), cminus.items())
    return add_terms({}, ((compose(p, q), cp * cq) for (p, cp), (q, cq) in pairs))

"""Exact sparse linear algebra over the rationals.

Rows are stored as integer dictionaries (key -> coefficient) scaled to
content 1 with a positive pivot, and the basis is kept in reduced
echelon form with pivots ordered by the natural key order.  Because the
representation is fully reduced and normalized, two equal subspaces
always produce identical row lists, so subspace equality is plain
comparison.  Elimination is fraction-free: rows are cross-multiplied
and re-normalized, so no Fraction arithmetic happens in the hot path.

A sparse vector is a ``dict`` that never stores a zero coefficient;
:func:`add_terms` is the one place sums of such vectors are formed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable


def add_terms(out: dict, terms: Iterable[tuple]) -> dict:
    """Add ``(key, coeff)`` pairs into ``out``, dropping keys that cancel.

    Returns ``out`` itself, updated in place.
    """
    for key, c in terms:
        nv = out.get(key, 0) + c
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)
    return out


def intify(vec: dict) -> dict:
    """Scale a vector with rational entries to integers (drop zeros).

    A vector whose entries are all ``int`` is returned as a copy without
    its zeros; any other entry (``bool`` included) goes through
    ``Fraction``.
    """
    if all(type(c) is int for c in vec.values()):
        return {key: c for key, c in vec.items() if c}
    denom = lcm(*(Fraction(c).denominator for c in vec.values()))
    out = {}
    for key, c in vec.items():
        f = Fraction(c)
        val = f.numerator * (denom // f.denominator)
        if val:
            out[key] = val
    return out


def _normalize(v: dict) -> None:
    g = gcd(*v.values())
    if v[min(v)] < 0:
        g = -g
    if g != 1:
        for key in v:
            v[key] //= g


class EchelonBasis:
    """A reduced row-echelon basis accepting vectors incrementally.

    Vectors must have integer coefficients (scale rational ones with
    :func:`intify`); any other coefficient raises ``TypeError``.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict[object, dict] = {}  # pivot -> row

    @property
    def dim(self) -> int:
        return len(self._rows)

    def rows(self) -> list[dict]:
        """Canonical row list (fresh copies, pivot order)."""
        return [dict(self._rows[pivot]) for pivot in self.pivots()]

    def pivots(self) -> list:
        return sorted(self._rows)

    def _reduced(self, vec: dict) -> dict:
        v = {k: index(c) for k, c in vec.items() if c}
        # Every row vanishes at the other rows' pivots, so eliminating one
        # pivot never brings another into the support: only the pivots in
        # the vector's own support need a step, in any order.
        for pivot in v.keys() & self._rows.keys():
            row = self._rows[pivot]
            c, p = v[pivot], row[pivot]
            v = add_terms(
                {key: p * val for key, val in v.items()},
                [(key, -c * rv) for key, rv in row.items()],
            )
        return v

    def contains(self, vec: dict) -> bool:
        return not self._reduced(vec)

    def insert(self, vec: dict) -> bool:
        """Add a vector; returns True iff it enlarged the span."""
        v = self._reduced(vec)
        if not v:
            return False
        _normalize(v)
        pivot = min(v)
        p = v[pivot]
        for opiv, row in self._rows.items():
            c = row.get(pivot)
            if not c:
                continue
            new = add_terms(
                {key: p * val for key, val in row.items()},
                [(key, -c * rv) for key, rv in v.items()],
            )
            _normalize(new)
            self._rows[opiv] = new
        self._rows[pivot] = v
        return True

    def __eq__(self, other):
        return isinstance(other, EchelonBasis) and self._rows == other._rows

    def __repr__(self):
        return f"EchelonBasis(dim={self.dim})"


def dense_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of a dense integer matrix.

    Fraction-free elimination, one column at a time.  A row keeps only
    the columns not yet eliminated, so each row operation is one list
    comprehension over a shrinking suffix, normalized by one
    ``gcd(*row)``.  Rows that reduce to zero are dropped, and so are
    duplicate rows up front, since the callers generate many.
    """
    mat = [list(r) for r in dict.fromkeys(map(tuple, rows)) if any(r)]
    rank = 0
    while mat:
        # Every row in ``mat`` is nonzero, so some column is left.
        pivot = next((r for r in mat if r[0]), None)
        if pivot is None:
            mat = [r[1:] for r in mat]
            continue
        rank += 1
        pv, tail = pivot[0], pivot[1:]
        rest = []
        for r in mat:
            c = r[0]
            if not c:
                rest.append(r[1:])
            elif r is not pivot:
                r = [pv * x - c * y for x, y in zip(r[1:], tail)]
                g = gcd(*r)
                if g:
                    rest.append([x // g for x in r] if g > 1 else r)
        mat = rest
    return rank


def dense_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss's fraction-free
    elimination: each step's entries are 2x2 minors divided exactly by the
    previous pivot.  A zero pivot swaps in the first row below it that is
    nonzero in its column, flipping the sign; with none the result is 0.
    """
    mat = [list(r) for r in rows]
    n = len(mat)
    sign, prev = 1, 1
    for i in range(n - 1):
        if not mat[i][i]:
            swap = next((r for r in range(i + 1, n) if mat[r][i]), None)
            if swap is None:
                return 0
            mat[i], mat[swap] = mat[swap], mat[i]
            sign = -sign
        p, pivot_row = mat[i][i], mat[i]
        for r in mat[i + 1 :]:
            c = r[i]
            for j in range(i + 1, n):
                r[j] = (r[j] * p - c * pivot_row[j]) // prev
        prev = p
    return sign * mat[-1][-1] if n else 1

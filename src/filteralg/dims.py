"""Exact dimension formulas for the graded tensor-power decomposition.

A ``(k,l)``-semistandard tableau fills a shape from the ordered alphabet
``1 < ... < k < 1' < ... < l'``: unprimed entries increase weakly along
rows and strictly down columns, primed entries strictly along rows and
weakly down columns.  Three quantities are computed exactly here:

* ``f_lambda`` -- standard Young tableaux of a shape (hook-length
  product), with an independent corner-removal recursion retained as a
  cross-check oracle;
* ``schur_dim`` -- the number of ``(k,l)``-semistandard tableaux, i.e.
  the dimension of the corresponding irreducible graded module;
* ``hs_eval`` -- the same tableau generating function with cell weights,
  evaluated at explicit rational points.

``schur_dim`` is the hook dimension of Berele and Regev ("Hook Young
diagrams with applications to combinatorics and to representations of
Lie superalgebras", Adv. Math. 1987).  With one alphabet empty it is an
ordinary semistandard count (of the shape, or of its conjugate).  When
the shape covers the ``k x l`` corner rectangle the count factors into
an unprimed arm, a primed leg and ``2^(k*l)`` for the corner.  Otherwise
it splits each tableau into its unprimed subshape and the primed skew
remainder, a sum that stays small because such a shape is thin.  A
naive full enumeration (``schur_dim_by_enumeration``) is kept as the
independent oracle for small shapes.

The public functions validate their arguments; the series layer calls
the unchecked ``_w_dim`` on the shapes it generates itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterator, Sequence

from .partitions import Partition, check_alphabet, check_partition, conjugate, in_hook


def f_lambda(lam) -> int:
    """Number of standard Young tableaux of shape ``lam``."""
    return _f_hook(check_partition(lam))


@lru_cache(maxsize=None)
def _f_hook(lam: Partition) -> int:
    conj = conjugate(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= row - j + conj[j] - i - 1
    return factorial(sum(lam)) // denom


def f_lambda_by_recursion(lam) -> int:
    """Independent oracle for :func:`f_lambda`: sum over corner removals."""
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


def schur_dim(lam, k: int, l: int) -> int:
    """Number of ``(k,l)``-semistandard tableaux of shape ``lam``."""
    return _schur_dim(check_partition(lam), *check_alphabet(k, l))


@lru_cache(maxsize=None)
def _schur_dim(lam: Partition, k: int, l: int) -> int:
    if l == 0:
        return _ssyt_count(lam, k)
    if k == 0:
        return _ssyt_count(conjugate(lam), l)
    if not in_hook(lam, k, l):
        return 0
    if len(lam) >= k and lam[k - 1] >= l:
        # The shape covers the k x l corner: unprimed arm, primed leg and
        # the mixed corner contribute independently at the all-ones point.
        conj = conjugate(lam)
        alpha = tuple(p - l for p in lam[:k] if p > l)
        beta = tuple(q - k for q in conj[:l] if q > k)
        return (_ssyt_count(alpha, k) * _ssyt_count(beta, l)) << (k * l)
    conj = conjugate(lam)
    total = 0
    for mu in _subshapes(lam[:k]):
        total += _ssyt_count(mu, k) * _skew_conj_count(conj, conjugate(mu), l)
    return total


def _subshapes(bounds: Partition) -> Iterator[Partition]:
    """All partitions fitting under ``bounds`` rowwise (so at most len(bounds) rows)."""

    def rec(i: int, prev: int) -> Iterator[Partition]:
        if i == len(bounds):
            yield ()
            return
        yield ()
        for first in range(1, min(prev, bounds[i]) + 1):
            for rest in rec(i + 1, first):
                yield (first,) + rest

    return rec(0, bounds[0] if bounds else 0)


def _ssyt_count(mu: Partition, k: int) -> int:
    """Semistandard tableaux of shape ``mu`` with entries at most ``k``."""
    if len(mu) > k:
        return 0
    padded = mu + (0,) * (k - len(mu))
    num = den = 1
    for i in range(k):
        for j in range(i + 1, k):
            num *= padded[i] - padded[j] + j - i
            den *= j - i
    return num // den


def _is_horizontal_strip(theta: Partition, phi: Partition) -> bool:
    for i in range(len(theta)):
        p = phi[i] if i < len(phi) else 0
        nxt = theta[i + 1] if i + 1 < len(theta) else 0
        if not (theta[i] >= p >= nxt):
            return False
    return len(phi) <= len(theta)


def _skew_conj_count(theta: Partition, phi: Partition, letters: int) -> int:
    """Semistandard fillings of ``theta/phi`` with at most ``letters`` values.

    Counted as chains of horizontal strips from ``phi`` up to ``theta``.
    One intermediate shape (``letters == 2``) has independent per-row
    ranges, giving a product formula; deeper chains recurse, which is
    only exercised at small sizes.
    """
    if len(phi) > len(theta) or any(p > t for p, t in zip(phi, theta)):
        return 0
    if letters == 0:
        return 1 if theta == phi else 0
    if letters == 1:
        return 1 if _is_horizontal_strip(theta, phi) else 0
    if letters == 2:
        prod = 1
        m = len(theta)
        for i in range(m):
            lo = max(phi[i] if i < len(phi) else 0, theta[i + 1] if i + 1 < m else 0)
            hi = min(theta[i], phi[i - 1] if 1 <= i <= len(phi) else (theta[i] if i == 0 else 0))
            if hi < lo:
                return 0
            prod *= hi - lo + 1
        return prod
    total = 0
    for psi in _hstrip_extensions(phi, theta):
        total += _skew_conj_count(theta, psi, letters - 1)
    return total


def _hstrip_extensions(phi: Partition, theta: Partition) -> Iterator[Partition]:
    """Shapes ``psi`` with ``phi <= psi <= theta`` and ``psi/phi`` a horizontal strip."""
    rows = min(len(phi) + 1, len(theta))
    ranges = []
    for i in range(rows):
        lo = phi[i] if i < len(phi) else 0
        hi = min(theta[i], phi[i - 1] if i >= 1 else theta[i])
        if hi < lo:
            return
        ranges.append(range(lo, hi + 1))
    for choice in product(*ranges):
        yield tuple(p for p in choice if p)


def w_dim(lam, k: int, l: int) -> int:
    """Dimension of the full isotypic block: ``f_lambda * schur_dim``."""
    return _w_dim(check_partition(lam), *check_alphabet(k, l))


def _w_dim(lam: Partition, k: int, l: int) -> int:
    return _f_hook(lam) * _schur_dim(lam, k, l)


@dataclass
class DimensionRecord:
    lam: Partition
    f: int
    schur: int
    w: int


def dimension_record(lam, k: int, l: int) -> DimensionRecord:
    lam = check_partition(lam)
    f = f_lambda(lam)
    s = schur_dim(lam, k, l)
    return DimensionRecord(lam=lam, f=f, schur=s, w=f * s)


# ---------------------------------------------------------------------------
# Weighted evaluation and the naive enumeration oracle.


def hs_eval(lam, xs: Sequence, ys: Sequence) -> Fraction:
    """Evaluate the tableau generating function of ``lam`` at a point.

    Each tableau contributes the product of ``xs[i-1]`` over unprimed
    entries ``i`` and ``ys[j-1]`` over primed entries ``j'``; the sum is
    computed by a strip-chain dynamic program, one alphabet letter at a
    time.  At the all-ones point this equals :func:`schur_dim`.
    """
    lam = check_partition(lam)
    return _hs_eval(lam, tuple(Fraction(x) for x in xs), tuple(Fraction(y) for y in ys))


@lru_cache(maxsize=None)
def _hs_eval(lam: Partition, xs: tuple[Fraction, ...], ys: tuple[Fraction, ...]) -> Fraction:
    states: dict[Partition, Fraction] = {(): Fraction(1)}
    for x in xs:
        nxt: dict[Partition, Fraction] = {}
        for shape, val in states.items():
            for ext in _hstrip_extensions(shape, lam):
                w = val * x ** (sum(ext) - sum(shape))
                nxt[ext] = nxt.get(ext, Fraction(0)) + w
        states = nxt
    for y in ys:
        nxt = {}
        for shape, val in states.items():
            for ext in _vstrip_extensions(shape, lam):
                w = val * y ** (sum(ext) - sum(shape))
                nxt[ext] = nxt.get(ext, Fraction(0)) + w
        states = nxt
    return states.get(lam, Fraction(0))


def _vstrip_extensions(phi: Partition, theta: Partition) -> Iterator[Partition]:
    """Shapes ``psi`` over ``phi`` inside ``theta`` adding at most one cell per row."""
    rows = len(theta)

    def rec(i: int, prev: int) -> Iterator[tuple[int, ...]]:
        if i == rows:
            yield ()
            return
        base = phi[i] if i < len(phi) else 0
        for add in (0, 1):
            v = base + add
            if v == 0:
                # this row stays empty, hence so do all rows below it
                yield ()
                continue
            if v > theta[i] or v > prev:
                continue
            for rest in rec(i + 1, v):
                yield (v,) + rest

    for choice in rec(0, sum(theta) + 1):
        yield choice


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
    """Independent oracle for :func:`schur_dim`: literally count the tableaux."""
    return sum(1 for _ in iter_super_tableaux(lam, k, l))

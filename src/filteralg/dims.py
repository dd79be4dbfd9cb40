"""Exact dimension formulas for the graded tensor-power decomposition.

A ``(k,l)``-semistandard tableau fills a shape from the ordered alphabet
``1 < ... < k < 1' < ... < l'``: unprimed entries increase weakly along
rows and strictly down columns, primed entries strictly along rows and
weakly down columns.  Three quantities are computed exactly here:

* ``f_lambda`` -- standard Young tableaux of a shape (hook-length
  product);
* ``schur_dim`` -- the number of ``(k,l)``-semistandard tableaux, i.e.
  the dimension of the corresponding irreducible graded module;
* ``hs_eval`` -- the same tableau generating function with cell weights,
  evaluated at explicit rational points.

``schur_dim`` is the hook dimension of Berele and Regev ("Hook Young
diagrams with applications to combinatorics and to representations of
Lie superalgebras", Adv. Math. 1987).  It and ``hs_eval`` have one
route: Giambelli's determinant over the Durfee square (Macdonald,
*Symmetric Functions*, I.3 ex. 9 and 23), at most ``max(k, l)`` rows
inside the hook.  Its coefficient tables at the all-ones point are
memoized per length, so the shapes at one ``(k, l)`` share them; the
tables of any other point are built for the call and dropped.

The block dimension is ``_w_dim = _f_hook * _schur_dim`` for every
shape.  The series layer prices the shapes that cover the ``k x l``
corner by the Berele--Regev corner factorization, ``k*l`` corner hooks
per (arm, leg) pair, and the tests check it against the determinant of
the whole shape.  The tests check these formulas against independent
references in ``tests/reference.py``: a corner-removal recursion for
``f_lambda`` and a literal enumeration of the tableaux for
``schur_dim`` and ``hs_eval``.

The public functions validate their arguments; the series layer calls
the unchecked ``_w_dim`` on the shapes it generates itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Sequence

from .linalg import dense_det
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


def schur_dim(lam, k: int, l: int) -> int:
    """Number of ``(k,l)``-semistandard tableaux of shape ``lam``."""
    return _schur_dim(check_partition(lam), *check_alphabet(k, l))


@lru_cache(maxsize=None)
def _schur_dim(lam: Partition, k: int, l: int) -> int:
    if not in_hook(lam, k, l):
        return 0
    return _giambelli(lam, (1,) * k, (1,) * l)


def w_dim(lam, k: int, l: int) -> int:
    """Dimension of the full isotypic block: ``f_lambda * schur_dim``."""
    return _w_dim(check_partition(lam), *check_alphabet(k, l))


def _w_dim(lam: Partition, k: int, l: int) -> int:
    """``f_lambda * schur_dim`` for a validated shape.

    A shape outside the hook is 0 before any hook product is taken.
    """
    if not in_hook(lam, k, l):
        return 0
    return _f_hook(lam) * _schur_dim(lam, k, l)


# ---------------------------------------------------------------------------
# Weighted evaluation.


def hs_eval(lam, xs: Sequence, ys: Sequence) -> Fraction:
    """Evaluate the tableau generating function of ``lam`` at a point.

    Each tableau contributes the product of ``xs[i-1]`` over unprimed
    entries ``i`` and ``ys[j-1]`` over primed entries ``j'``.  At the
    all-ones point this equals :func:`schur_dim`.

    With ``d`` the least common multiple of the coordinates' denominators,
    :func:`_giambelli` evaluates at the integers ``d*xs, d*ys``; the
    function is homogeneous of degree ``|lam|``, so the value is that
    determinant over ``d**|lam|``, exactly.
    """
    lam = check_partition(lam)
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    d = lcm(*(v.denominator for v in xs + ys))
    total = _giambelli(
        lam,
        tuple(x.numerator * (d // x.denominator) for x in xs),
        tuple(y.numerator * (d // y.denominator) for y in ys),
    )
    return Fraction(total, d ** sum(lam))


def _giambelli(lam: Partition, xs: tuple[int, ...], ys: tuple[int, ...]) -> int:
    """The tableau generating function of ``lam`` at an integer point.

    Giambelli's determinant of the hooks ``s_(a_i|b_j)`` over the Durfee
    square, with Frobenius coordinates ``a_i = lam_i - i`` and ``b_j =
    lam'_j - j`` (1-indexed).  A hook is ``s_(a|b) = sum_j (-1)^j
    h_(a+1+j) e_(b-j)`` over ``j <= b``, where ``h`` holds the
    coefficients of ``prod(1 + y t) / prod(1 - x t)`` and ``e`` those of
    ``prod(1 + x t) / prod(1 - y t)``, up to ``t^(lam_1 + len(lam) - 1)``.
    """
    durfee = sum(p > i for i, p in enumerate(lam))
    arms = [p - i - 1 for i, p in enumerate(lam[:durfee])]
    legs = [p - j - 1 for j, p in enumerate(conjugate(lam)[:durfee])]
    length = lam[0] + len(lam) if lam else 0
    table = _unit_coefficients if set(xs + ys) <= {1} else _quotient_coefficients
    h = table(ys, xs, length)
    e = table(xs, ys, length)
    return dense_det(
        [[sum((-1) ** j * h[a + 1 + j] * e[b - j] for j in range(b + 1)) for b in legs]
         for a in arms]
    )


def _quotient_coefficients(
    num: tuple[int, ...], den: tuple[int, ...], length: int
) -> tuple[int, ...]:
    """The first ``length`` coefficients of ``prod(1 + v t)`` over ``num``
    divided by ``prod(1 - v t)`` over ``den``."""
    c = [1] + [0] * (length - 1)
    for v in num:
        for i in range(length - 1, 0, -1):
            c[i] += v * c[i - 1]
    for v in den:
        for i in range(1, length):
            c[i] += v * c[i - 1]
    return tuple(c)


# The all-ones tables price every dimension, so they are kept per length
# and alphabet; a table at any other point is built for its one call.
_unit_coefficients = lru_cache(maxsize=None)(_quotient_coefficients)

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
Lie superalgebras", Adv. Math. 1987).  With one alphabet empty it is an
ordinary semistandard count (of the shape, or of its conjugate).  When
the shape covers the ``k x l`` corner rectangle the count factors into
an unprimed arm, a primed leg and ``2^(k*l)`` for the corner.  Otherwise
the shape is thin: each tableau splits into its unprimed subshape
``mu`` and the primed skew remainder, whose rows hold at most ``l``
cells, so only ``mu`` within ``l`` cells of each of the first ``k`` rows
is summed.  A thin count with ``l > k`` is taken on the conjugate shape
with the alphabets swapped, so the skew count runs over the shorter
primed alphabet.

The block dimension ``w_dim = f_lambda * schur_dim`` of a shape that
covers the corner factors the same way: the hooks of arm and leg cells
are the hooks of the arm and leg themselves, and only the ``k*l`` corner
cells mix.  That corner formula lives in ``_corner_w``, which takes the
arm and the leg each as a ``_corner_side`` (size, block dimension over
one alphabet, row offsets), so it multiplies ``k*l`` corner hooks rather
than a product over every cell.  ``_w_dim`` calls it for one shape; the
series layer calls it for each (arm, leg) pair it walks, and never
builds the shape.
``hs_eval`` chains horizontal strips over integers, scaling the point by
the common denominator of its coordinates; the primed letters add their
strips to the conjugate shape.  The tests check these formulas against
independent references in ``tests/reference.py``: a corner-removal
recursion for ``f_lambda`` and a literal enumeration of the tableaux
for ``schur_dim``.

The public functions validate their arguments; the series layer calls
the unchecked ``_w_dim`` and ``_corner_w`` on the shapes it generates
itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm
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
        alpha, beta = _arm(lam, k, l), _arm(conj, l, k)
        return (_ssyt_count(alpha, k) * _ssyt_count(beta, l)) << (k * l)
    if l > k:
        # Conjugation swaps the alphabets: count with the shorter primed
        # one, so the skew count below is the two-letter product formula
        # (or the one-letter strip test) whenever min(k, l) <= 2.
        return _schur_dim(conjugate(lam), l, k)
    conj = conjugate(lam)
    total = 0
    for mu in _subshapes(lam[:k], l):
        total += _ssyt_count(mu, k) * _skew_conj_count(conj, conjugate(mu), l)
    return total


def _subshapes(bounds: Partition, l: int) -> Iterator[Partition]:
    """Partitions ``mu`` with ``bounds[i] - l <= mu[i] <= bounds[i]`` in each row.

    ``mu`` is the unprimed part of a tableau of a shape whose first rows
    are ``bounds``.  A row of the primed remainder holds distinct primed
    letters, so it has at most ``l`` cells; every other ``mu`` admits no
    tableau.  A row with ``bounds[i] <= l`` may end ``mu``: the rows
    below it are no longer, so they may be all primed too.
    """

    def rec(i: int, prev: int) -> Iterator[Partition]:
        if i == len(bounds):
            yield ()
            return
        lo = bounds[i] - l
        if lo <= 0:
            yield ()
        for first in range(max(lo, 1), min(prev, bounds[i]) + 1):
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
    """``f_lambda * schur_dim`` for a validated shape.

    A shape outside the hook is 0 before any hook product is taken; a
    shape that covers the ``k x l`` corner goes through
    :func:`_corner_w`, and every other shape takes ``_f_hook *
    _schur_dim``.
    """
    if not in_hook(lam, k, l):
        return 0
    if not (k and l and len(lam) >= k and lam[k - 1] >= l):
        return _f_hook(lam) * _schur_dim(lam, k, l)
    arm, leg = _arm(lam, k, l), conjugate(lam[k:])
    return _corner_w(_corner_side(arm, k), _corner_side(leg, l))


def _arm(lam: Partition, k: int, l: int) -> Partition:
    """The first ``k`` rows of ``lam`` less ``l`` cells each."""
    return tuple(p - l for p in lam[:k] if p > l)


CornerSide = tuple[int, int, tuple[int, ...]]


def _corner_side(mu: Partition, m: int) -> CornerSide:
    """What :func:`_corner_w` needs of an arm (``m = k``) or a leg (``m = l``).

    That is ``|mu|``, ``w(mu, m, 0) = f_mu s_mu(1^m)`` and the offsets
    ``mu_i + m - 1 - i`` for ``i < m``, ``mu`` padded with zeros; ``mu``
    must have at most ``m`` parts.
    """
    padded = mu + (0,) * (m - len(mu))
    offsets = tuple(p + m - 1 - i for i, p in enumerate(padded))
    return sum(mu), _f_hook(mu) * _ssyt_count(mu, m), offsets


def _corner_w(arm: CornerSide, leg: CornerSide) -> int:
    """``w_dim`` of the shape made of a ``k x l`` corner, an arm and a leg.

    ``arm`` and ``leg`` are the :func:`_corner_side` of ``alpha`` over
    ``k`` and of ``beta`` over ``l``; the shape ``lam`` has rows ``l +
    alpha_i`` for ``i < k`` over the conjugate of ``beta``.  The hook
    of an arm cell stays inside the arm and that of a leg cell inside
    the leg, so they are ``alpha``'s and ``beta``'s own hooks; only the
    corner cell ``(i, j)`` mixes, with hook ``alpha_i + beta_j + (k-i)
    + (l-j) - 1`` (0-indexed), one more than the sum of the two
    offsets.  With the Berele--Regev factorisation of ``schur_dim``
    this gives

        w = |lam|! 2^(kl) w(alpha, k, 0) w(beta, l, 0)
            / (|alpha|! |beta|! prod(corner hooks)),

    an exact division over ``k*l`` small corner factors.
    """
    a_size, a_w, a_offsets = arm
    b_size, b_w, b_offsets = leg
    corner = 1
    for x in a_offsets:
        for y in b_offsets:
            corner *= x + y + 1
    cells = len(a_offsets) * len(b_offsets)
    num = (factorial(a_size + b_size + cells) * a_w * b_w) << cells
    return num // (factorial(a_size) * factorial(b_size) * corner)


# ---------------------------------------------------------------------------
# Weighted evaluation.


def hs_eval(lam, xs: Sequence, ys: Sequence) -> Fraction:
    """Evaluate the tableau generating function of ``lam`` at a point.

    Each tableau contributes the product of ``xs[i-1]`` over unprimed
    entries ``i`` and ``ys[j-1]`` over primed entries ``j'``; the sum is
    computed by a strip-chain dynamic program, one alphabet letter at a
    time.  At the all-ones point this equals :func:`schur_dim`.

    The program runs over integers: with ``d`` the least common multiple
    of the coordinates' denominators it evaluates at ``d*xs, d*ys``, and
    since the function is homogeneous of degree ``|lam|`` the value is
    that total over ``d**|lam|``, exactly.
    """
    lam = check_partition(lam)
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    d = lcm(*(v.denominator for v in xs + ys))
    total = _hs_eval(
        lam,
        tuple(x.numerator * (d // x.denominator) for x in xs),
        tuple(y.numerator * (d // y.denominator) for y in ys),
    )
    return Fraction(total, d ** sum(lam))


@lru_cache(maxsize=None)
def _hs_eval(lam: Partition, xs: tuple[int, ...], ys: tuple[int, ...]) -> int:
    # A primed letter fills a vertical strip of lam, i.e. a horizontal
    # strip of its conjugate.
    states = _strip_chain({(): 1}, lam, xs)
    conj = conjugate(lam)
    states = _strip_chain({conjugate(s): v for s, v in states.items()}, conj, ys)
    return states.get(conj, 0)


def _strip_chain(
    states: dict[Partition, int], theta: Partition, weights: tuple[int, ...]
) -> dict[Partition, int]:
    """Extend each shape inside ``theta`` by one weighted horizontal strip per weight."""
    for x in weights:
        nxt: dict[Partition, int] = {}
        for shape, val in states.items():
            size = sum(shape)
            for ext in _hstrip_extensions(shape, theta):
                nxt[ext] = nxt.get(ext, 0) + val * x ** (sum(ext) - size)
        states = nxt
    return states

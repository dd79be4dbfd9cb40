"""Littlewood-Richardson coefficients.

``c^nu_{mu,lam}`` is the number of semistandard fillings of the skew
shape ``nu/mu`` with content ``lam`` whose reverse reading word (rows
top to bottom, each row right to left) is a lattice word.

:func:`outer_product` and :func:`lr_coefficient` generate the shapes
``nu`` with ``c > 0`` directly, one letter of the content at a time, as
Buch's ``lrcalc`` does.  The ``j``'s of a filling form a horizontal
strip with row counts ``a_r``; since each row reads its ``j``'s before
its ``j-1``'s, the lattice condition is the prefix bound "``j``'s in
rows ``<= r`` are at most the ``j-1``'s in rows ``< r``".  A strip
therefore depends only on the shape so far and the previous letter's
row counts, and the generation carries ``(shape, prefix counts) ->
number of fillings`` from letter to letter, merging equal states.  Each
letter is one loop over the rows, carrying the partial strips; the rows
the lattice bound keeps empty are copied, and the last letter adds its
fillings straight into the terms, keyed by shape alone.  Since
``c^nu_{mu,lam} = c^nu_{lam,mu} = c^{nu'}_{mu',lam'}`` (Macdonald I.5),
the generation runs on the cheapest of ``(mu, lam)``, ``(lam, mu)``,
``(mu', lam')`` and ``(lam', mu')``: the content with the fewest rows
(one letter per row), then the outer shape with the fewest, and the
terms of a conjugated pair are conjugated back.  For a single ``nu`` no
row grows past ``nu``'s (``nu'``'s when conjugated).  The tests check
both against the cell-by-cell enumerator and a monomial expansion of
Schur polynomials in ``tests/reference.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .partitions import Partition, check_partition, conjugate, contains


class LRExpansion(NamedTuple):
    """Outer-product decomposition: shape -> positive multiplicity."""

    terms: dict[Partition, int]
    degree: int


@lru_cache(maxsize=None)
def _lr_cached(mu: Partition, lam: Partition, nu: Partition) -> int:
    if sum(mu) + sum(lam) != sum(nu) or not contains(mu, nu):
        return 0
    return _generate(mu, lam, nu).get(nu, 0)


def lr_coefficient(mu, lam, nu) -> int:
    """The Littlewood-Richardson coefficient ``c^nu_{mu,lam}``.

    Zero whenever the degrees do not add up or one of ``mu``, ``lam`` is
    not contained in ``nu``.  Results are memoized on the orientation
    :func:`_orient` picks, with ``nu`` conjugated along with the pair.
    """
    mu, lam, nu = check_partition(mu), check_partition(lam), check_partition(nu)
    mu, lam, conjugated = _orient(mu, lam)
    return _lr_cached(mu, lam, conjugate(nu) if conjugated else nu)


def _orient(mu: Partition, lam: Partition) -> tuple[Partition, Partition, bool]:
    """``(outer, content, conjugated)``: the pair the generation runs on.

    The content has the fewest rows of the four orientations, then the
    outer shape; ties keep the pair unconjugated and make the content
    the smaller of ``(len, shape)``, so swapping the arguments gives the
    same pair.  Row counts of a conjugate are first parts, so only the
    chosen pair is conjugated.
    """
    if (len(lam), lam) > (len(mu), mu):
        mu, lam = lam, mu
    a, b = (mu[0] if mu else 0), (lam[0] if lam else 0)
    if (min(a, b), max(a, b)) >= (len(lam), len(mu)):
        return mu, lam, False
    if b > a:
        mu, lam = lam, mu
    return conjugate(mu), conjugate(lam), True


def _generate(mu: Partition, lam: Partition, nu: Partition | None) -> dict[Partition, int]:
    """Shapes reached from ``mu`` by the lattice strips of content ``lam``.

    Maps each shape to its number of fillings, i.e. its coefficient.
    With ``nu`` (containing ``mu``), only shapes inside ``nu`` are kept.
    """
    if not lam:
        return {mu: 1}
    # (shape, prefix counts) -> fillings; the last letter keys by shape.
    states: dict = {(mu, ()): 1}
    for letter, size in enumerate(lam):
        carry = letter < len(lam) - 1
        out: dict = {}
        for (shape, bound), mult in states.items():
            old = shape + (0,)
            # bound covers shape's rows and its zeros lead: rows up to the
            # previous letter's first one take no cell and are copied.
            first = bound.count(0) + 1 if bound else 0
            # Rows from first on, bottom up: (row, part, cells it may take,
            # prefix count it may reach, cells the rows below may take).
            plan = []
            below = 0
            for r in range(len(shape), first - 1, -1):
                room = old[r - 1] - old[r] if r else size
                if nu is not None:
                    room = min(room, nu[r] - old[r]) if r < len(nu) else 0
                plan.append((r, old[r], room, bound[r - 1] if bound else size, below))
                below += room
            # Partial strips: (cells placed, grown rows, prefix counts).
            partial = [(0, shape[:first], (0,) * first)]
            for r, o, room, cap, below in reversed(plan):
                grew = []
                for done, grown, prefix in partial:
                    # The bounds on a, without min/max calls in the hot loop.
                    left = size - done
                    hi = cap - done
                    if room < hi:
                        hi = room
                    if left < hi:
                        hi = left
                    lo = left - below
                    if lo < 0:
                        lo = 0
                    for a in range(hi, lo - 1, -1):
                        d = done + a
                        if d < size:
                            grew.append((d, grown + (o + a,), prefix + (d,) if carry else ()))
                            continue
                        key = grown + (o + a,) + shape[r + 1 :]
                        if carry:
                            key = (key, prefix + (size,) * (len(key) - r))
                        out[key] = out.get(key, 0) + mult
                if not grew:
                    break
                partial = grew
        states = out
    return states


def outer_product(mu, lam) -> LRExpansion:
    """Full decomposition of the outer product of ``mu`` and ``lam``.

    Terms are the shapes of size ``|mu| + |lam|`` with a positive
    coefficient, in the reverse-lexicographic order of
    :func:`~filteralg.partitions.enumerate_partitions`.
    """
    mu, lam = check_partition(mu), check_partition(lam)
    outer, content, conjugated = _orient(mu, lam)
    terms = _generate(outer, content, None)
    if conjugated:
        terms = {conjugate(nu): c for nu, c in terms.items()}
    return LRExpansion(
        terms={nu: terms[nu] for nu in sorted(terms, reverse=True)},
        degree=sum(mu) + sum(lam),
    )

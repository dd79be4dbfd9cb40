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
number of fillings`` from letter to letter, merging equal states.  The
argument with fewer rows is the content, since the coefficient is
symmetric in ``(mu, lam)``.  For a single ``nu`` no row grows past
``nu``'s.  The tests check both against the cell-by-cell enumerator
and a monomial expansion of Schur polynomials in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .partitions import Partition, check_partition, contains


@dataclass
class LRExpansion:
    """Outer-product decomposition: shape -> positive multiplicity."""

    terms: dict[Partition, int] = field(default_factory=dict)
    degree: int = 0


@lru_cache(maxsize=None)
def _lr_cached(mu: Partition, lam: Partition, nu: Partition) -> int:
    if sum(mu) + sum(lam) != sum(nu) or not contains(mu, nu):
        return 0
    return _generate(mu, lam, nu).get(nu, 0)


def lr_coefficient(mu, lam, nu) -> int:
    """The Littlewood-Richardson coefficient ``c^nu_{mu,lam}``.

    Zero whenever the degrees do not add up or one of ``mu``, ``lam`` is
    not contained in ``nu``.  Results are memoized with the arguments in
    a canonical order, the content ``lam`` having no more rows than
    ``mu``, since the coefficient is symmetric in ``(mu, lam)``.
    """
    mu, lam, nu = check_partition(mu), check_partition(lam), check_partition(nu)
    if (len(lam), lam) > (len(mu), mu):
        mu, lam = lam, mu
    return _lr_cached(mu, lam, nu)


def _strips(
    shape: Partition,
    size: int,
    bound: tuple[int, ...] | None,
    nu: Partition | None,
) -> list[tuple[Partition, tuple[int, ...]]]:
    """Horizontal strips of ``size`` cells added to ``shape``.

    Returns ``(new shape, prefix counts)`` pairs, where ``prefix[r]`` is
    the number of added cells in rows ``<= r``, over the rows of the new
    shape.  With a ``bound`` (the previous letter's prefix counts),
    ``prefix[r]`` may not exceed ``bound[r-1]``: nothing goes in row 0,
    and past the end of ``bound`` its last entry holds.  With ``nu``
    (containing ``shape``), the new shape stays inside ``nu``.
    """
    rows = len(shape) + 1
    old = shape + (0,)
    # Cells row r may take, and the prefix count rows <= r may reach.
    room = [size] + [old[r - 1] - old[r] for r in range(1, rows)]
    if nu is not None:
        room = [min(room[r], nu[r] - old[r]) if r < len(nu) else 0 for r in range(rows)]
    if bound is None:
        cap = [size] * rows
    else:
        cap = [0] + [bound[min(r, len(bound)) - 1] for r in range(1, rows)]
    # Cells that rows >= r can still take, for pruning.
    tail = [0] * (rows + 1)
    for r in range(rows - 1, -1, -1):
        tail[r] = tail[r + 1] + room[r]
    new = list(old)
    prefix = [0] * rows
    out: list[tuple[Partition, tuple[int, ...]]] = []

    def place(r: int, done: int) -> None:
        if done == size:
            grown = tuple(new[:r]) + shape[r:]
            out.append((grown, tuple(prefix[:r]) + (size,) * (len(grown) - r)))
            return
        left = size - done
        if tail[r] < left:
            return
        hi = min(room[r], left, cap[r] - done)
        for a in range(hi, max(0, left - tail[r + 1]) - 1, -1):
            new[r] = old[r] + a
            prefix[r] = done + a
            place(r + 1, done + a)
        new[r] = old[r]

    place(0, 0)
    return out


def _generate(mu: Partition, lam: Partition, nu: Partition | None) -> dict[Partition, int]:
    """Shapes reached from ``mu`` by the lattice strips of content ``lam``.

    Maps each shape to its number of fillings, i.e. its coefficient.
    With ``nu`` (containing ``mu``), only shapes inside ``nu`` are kept.
    """
    states: dict[tuple[Partition, tuple[int, ...] | None], int] = {(mu, None): 1}
    for size in lam:
        nxt: dict[tuple[Partition, tuple[int, ...] | None], int] = {}
        for (shape, bound), mult in states.items():
            for state in _strips(shape, size, bound, nu):
                nxt[state] = nxt.get(state, 0) + mult
        states = nxt
    terms: dict[Partition, int] = {}
    for (shape, _), mult in states.items():
        terms[shape] = terms.get(shape, 0) + mult
    return terms


def outer_product(mu, lam) -> LRExpansion:
    """Full decomposition of the outer product of ``mu`` and ``lam``.

    Terms are the shapes of size ``|mu| + |lam|`` with a positive
    coefficient, in the reverse-lexicographic order of
    :func:`~filteralg.partitions.enumerate_partitions`.
    """
    mu, lam = check_partition(mu), check_partition(lam)
    if len(lam) > len(mu):
        mu, lam = lam, mu
    terms = _generate(mu, lam, None)
    return LRExpansion(
        terms={nu: terms[nu] for nu in sorted(terms, reverse=True)},
        degree=sum(mu) + sum(lam),
    )

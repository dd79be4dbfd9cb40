"""Independent references the tests check the package's fast paths against.

Each one computes a quantity the package also computes, by a route that
shares none of the package's shortcuts: standard tableaux by corner
removal, ``(k,l)``-semistandard tableaux by counting the oracle's list,
Littlewood-Richardson fillings cell by cell, Young symmetrizers by
listing their groups, membership in an ideal slice by echelon
reduction against the span of the member blocks, annihilation by the
total symmetrizers on the whole substituted value, the rank of the E⊗E
identity constraints one character at a time, and the size of a shape
below its first row.
They are meant for small inputs only.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import factorial, prod
from typing import Sequence

from filteralg.linalg import EchelonBasis, add_terms, dense_rank, intify
from filteralg.filters import Filter
from filteralg.oracle import (
    CapExceeded,
    MultilinearPoly,
    Perm,
    SuperBasis,
    Word,
    _blocks_span,
    _check_cap,
    _columns,
    _compositions,
    _ee_symmetries,
    _group_order,
    _super_tableaux,
    f_I,
    ideal_subspace,
    perm_sign,
)
from filteralg.partitions import Partition, check_partition, check_size, contains


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


def schur_dim_by_enumeration(lam, k: int, l: int) -> int:
    """Independent oracle for ``schur_dim``: literally count the tableaux
    that seed :func:`filteralg.oracle.module_W`."""
    return len(_super_tableaux(check_partition(lam), k, l))


def count_lr_fillings(mu: Partition, lam: Partition, nu: Partition) -> int:
    """Count lattice fillings of ``nu/mu`` with content ``lam`` (uncached).

    The arguments must be valid partitions.
    """
    if sum(mu) + sum(lam) != sum(nu):
        return 0
    if not contains(mu, nu) or not contains(lam, nu):
        return 0
    rows = len(nu)
    mu_pad = mu + (0,) * (rows - len(mu))
    nvals = len(lam)
    counts = [0] * (nvals + 1)
    grid = [[0] * r for r in nu]
    cells = [
        (r, c) for r in range(rows) for c in range(nu[r] - 1, mu_pad[r] - 1, -1)
    ]

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        upper = grid[r][c + 1] if c + 1 < nu[r] else nvals
        above = grid[r - 1][c] if r > 0 and c >= mu_pad[r - 1] else 0
        total = 0
        for v in range(above + 1, upper + 1):
            if counts[v] < lam[v - 1] and (v == 1 or counts[v - 1] > counts[v]):
                counts[v] += 1
                grid[r][c] = v
                total += place(idx + 1)
                counts[v] -= 1
        return total

    return place(0)


# ---------------------------------------------------------------------------
# Symmetrizers in the group algebra, listed element by element.


def compose(p: Perm, q: Perm) -> Perm:
    """(p * q)(i) = p(q(i))."""
    return tuple(p[qi - 1] for qi in q)


def _group_sum(blocks: Sequence[Sequence[int]], n: int, signed: bool) -> dict:
    """Sum of the permutations of ``1..n`` preserving each block setwise,
    one ``itertools.permutations`` tuple per block: ``R+`` of the row
    blocks, or ``C-`` of the column blocks (``signed``)."""
    out = {}
    for assignment in product(*[permutations(b) for b in blocks]):
        img = list(range(n + 1))
        for block, perm in zip(blocks, assignment):
            for src, dst in zip(block, perm):
                img[src] = dst
        p = tuple(img[1:])
        out[p] = perm_sign(p) if signed else 1
    return out


def full_symmetrizer(n: int) -> dict:
    """Sum of all permutations of ``1..n``."""
    _check_group_cap([range(1, n + 1)])
    return _group_sum([range(1, n + 1)], n, signed=False)


def sign_symmetrizer(n: int) -> dict:
    """Signed sum of all permutations of ``1..n``."""
    _check_group_cap([range(1, n + 1)])
    return _group_sum([range(1, n + 1)], n, signed=True)


# The symmetrizers list at most LISTING_CAP! permutations.
LISTING_CAP = 7


def _check_group_cap(*block_lists: Sequence[Sequence[int]]) -> None:
    """Refuse to list more than ``LISTING_CAP!`` permutations: the product
    of the orders of the block groups is checked before any is built."""
    order = prod(_group_order(blocks) for blocks in block_lists)
    if order > factorial(LISTING_CAP):
        raise CapExceeded(f"group order {order} exceeds cap {LISTING_CAP}!")


def tableau_symmetrizer(rows: Sequence[Sequence[int]]) -> dict:
    """Row sum times signed column sum for a bijective tableau filling.

    Raises :class:`CapExceeded` before enumerating when ``|R| * |C|``,
    the number of products formed, is above ``LISTING_CAP!``.
    """
    entries = [e for row in rows for e in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValueError("tableau must be a bijective filling with 1..n")
    cols = _columns(rows)
    n = len(entries)
    _check_group_cap(rows, cols)
    rplus = _group_sum(rows, n, signed=False)
    cminus = _group_sum(cols, n, signed=True)
    pairs = product(rplus.items(), cminus.items())
    return add_terms({}, ((compose(p, q), cp * cq) for (p, cp), (q, cq) in pairs))


# ---------------------------------------------------------------------------
# Identity, ideal and annihilation verdicts on whole values.


def _substitute(g: MultilinearPoly, words: Sequence[Word]) -> dict:
    """The value of ``sum c_sigma x_sigma(1) ... x_sigma(d)`` at
    ``x_i = words[i-1]``, with the coefficients scaled to integers by
    :func:`~filteralg.linalg.intify`."""
    return add_terms(
        {},
        (
            (tuple(chain.from_iterable(words[s - 1] for s in sigma)), c)
            for sigma, c in intify(g.coeffs).items()
        ),
    )


def check_annihilation_by_value(
    g: MultilinearPoly, monomials: Sequence[Word], basis: SuperBasis
) -> bool:
    """``check_annihilation`` with the value ``g(monomials)`` built and
    each of its words signed by :func:`perm_sign`: the full sum weighs a
    word by the sign of its odd letters, the signed sum also by its own
    sign, and a repeated odd (even) letter of the concatenated monomials
    kills the full (signed) sum."""
    words = [tuple(m) for m in monomials]
    k = basis.k
    full = signed = 0
    for w, c in _substitute(g, words).items():
        term = c * perm_sign(tuple(z for z in w if z > k))
        full += term
        signed += term * perm_sign(w)
    repeats = [z for z, m in Counter(chain.from_iterable(words)).items() if m > 1]
    full_killed = not full or any(z > k for z in repeats)
    return full_killed and (not signed or any(z <= k for z in repeats))


def evaluate_identity_by_span(
    g: MultilinearPoly, omega: Filter, basis: SuperBasis, n: int
) -> bool:
    """``evaluate_identity`` with each value reduced against the echelon
    span of the member blocks (``ideal_subspace``)."""
    ideal = ideal_subspace(omega, basis, n)
    words_by_len = {m: list(basis.words(m)) for m in range(1, n - g.degree + 2)}
    for comp in _compositions(n, g.degree):
        for tup in product(*[words_by_len[m] for m in comp]):
            val = _substitute(g, tup)
            if val and not ideal.contains(val):
                return False
    return True


def check_ideal_by_span(
    omega_set, basis: SuperBasis, n_max: int, sides=("left", "right")
) -> bool:
    """``check_ideal`` with each letter product reduced against the
    echelon span of the listed shapes' blocks of the next degree:
    ``z (x) v`` on the ``"left"`` side, ``v (x) z`` on the ``"right"``."""
    n_max = check_size(n_max, "n_max")
    _check_cap(basis, n_max)
    members = {check_partition(m) for m in omega_set}
    slices = {
        n: _blocks_span([lam for lam in members if sum(lam) == n], basis, n)
        for n in range(n_max + 1)
    }
    for n in range(n_max):
        target = slices[n + 1]
        for row in slices[n].rows():
            for z in basis.letters:
                products = []
                if "left" in sides:
                    products.append({(z,) + w: c for w, c in row.items()})
                if "right" in sides:
                    products.append({w + (z,): c for w, c in row.items()})
                if not all(map(target.contains, products)):
                    return False
    return True


# ---------------------------------------------------------------------------
# The E⊗E identity constraints, one character at a time.


def _walsh_hadamard(rows: list[list[int]]) -> list[list[int]]:
    """Row ``chi`` of the result is ``sum_g (-1)^popcount(chi & g) rows[g]``.

    ``len(rows)`` must be a power of two; the butterflies run in place.
    """
    h = 1
    while h < len(rows):
        for i in range(0, len(rows), 2 * h):
            for j in range(i, i + h):
                a, b = rows[j], rows[j + h]
                rows[j] = [x + y for x, y in zip(a, b)]
                rows[j + h] = [x - y for x, y in zip(a, b)]
        h *= 2
    return rows


def ee_ranks_by_character(d: int) -> list[int]:
    """The rank of ``R_theta`` for every character ``theta`` of the group of
    :func:`filteralg.oracle._ee_symmetries`, in character order.

    ``ee_identity_kernel_dim`` ranks one character per class of the pair
    permutations; this ranks all ``2^(d//2 + 1)`` of them.  The sign rows
    are ``f_I`` of every subset ``I``, odd ones included, over the
    ``G``-orbits of ``S_d`` listed in group-element order.  Each row's
    Walsh--Hadamard transforms are reduced to an echelon basis of each
    eigenspace ``V_chi``, and ``R_theta`` is ranked on the products of
    the bases of ``V_chi`` and ``V_psi`` with ``chi psi = theta``.  Their
    sum is ``d!`` minus the kernel dimension.
    """
    gens = _ee_symmetries(d)
    size = 1 << len(gens)
    words, seen = [], set()
    for sigma in permutations(range(1, d + 1)):
        if sigma not in seen:
            orbit = [sigma]
            for gen in gens:
                orbit += [gen(w) for w in orbit]
            seen.update(orbit)
            words += orbit
    spaces = [EchelonBasis() for _ in range(size)]
    for m in range(d + 1):
        for sub in combinations(range(1, d + 1), m):
            signs = [f_I(w, sub) for w in words]
            # Row g holds the signs at the g-th word of every orbit.
            rows = [signs[g::size] for g in range(size)]
            for space, row in zip(spaces, _walsh_hadamard(rows)):
                space.insert(dict(enumerate(row)))
    orbits = len(words) // size
    bases = [
        [[r.get(o, 0) for o in range(orbits)] for r in space.rows()] for space in spaces
    ]
    ranks = []
    for theta in range(size):
        products = []
        for chi in range(size):
            psi = chi ^ theta
            if psi < chi:
                continue
            for i, u in enumerate(bases[chi]):
                for v in bases[psi][i:] if psi == chi else bases[psi]:
                    products.append([x * y for x, y in zip(u, v)])
        ranks.append(dense_rank(products))
    return ranks

"""Exact brute-force engine for small tensor powers of a graded space.

Conventions, fixed once and pinned by the associativity and sign tests:

* Letters ``1..k`` are even, ``k+1..k+l`` odd; a word is a tuple of
  letters, a degree-``n`` tensor is a finitely supported map from
  length-``n`` words to exact rationals.
* Permutations are one-line tuples of images, 1-based; products compose
  as ``(p * q)(i) = p(q(i))``.
* The twisted action on a word ``z`` of length ``n`` is
  ``z * sigma = f_J(sigma) * (z_{sigma(1)}, ..., z_{sigma(n)})`` where
  ``J`` collects the positions of the odd letters of ``z`` and ``f_J``
  counts the inversions of ``sigma`` lying inside ``J``.  With the
  composition above this satisfies ``(z * p) * q = z * (p * q)``.

Everything downstream is spans of such vectors inside the full
``(k+l)^n``-dimensional degree slice, held as canonical integer echelon
bases so that subspace equality is literal comparison.  The action sends
a word to a signed word, so the isotypic blocks of a slice are mutually
orthogonal for the dot product on words, and the slice is their direct
sum.  Membership in the blocks of a set of shapes is therefore decided
on the quotient side: :func:`evaluate_identity` and :func:`check_ideal`
test a vector's dot product with every row of every other block, and
never build the span of the member blocks.  Hard caps keep
the ambient dimension ``(k+l)^n`` at ``DIM_CAP = 4096`` (or at
``FILTERALG_DIM_CAP`` when that is set), and :func:`check_annihilation`
refuses a value of total degree above ``DEGREE_CAP = 7``.  The EE
criterion (:func:`is_identity_EE`) is decided exhaustively up to degree
``EE_DEGREE_CAP = 9``, and the dimension of its identity space
(:func:`ee_identity_kernel_dim`, dense ranks of ``2^(d//2 + 1)``
blocks, one per character of an abelian symmetry group of the ``f_I``,
each over one column per orbit of that group on ``S_d``) up to
``KERNEL_DEGREE_CAP = 6``.  Each function reads its cap from the module
(and the environment) when it is called.  Exceeding a cap raises
:class:`CapExceeded`, never approximates.  The fully listed Young
symmetrizers that the tests check :func:`module_W` against live in
``tests/reference.py``.

A sum over a Young subgroup ``G`` (the permutations preserving some
blocks of positions) is taken one orbit of ``G`` on words at a time
(:func:`_orbit_sums`) instead of by listing ``G``.  :func:`module_W`
does so for the larger of a tableau's row and column groups and lists
the smaller; its seeding work is at most ``(k+l)^n`` times the order of
the smaller group, so ``DIM_CAP`` bounds it as well, and the seeds'
standard-tableau translates give the block in ``dim W`` inserts.  With
``G = S_n``, :func:`check_annihilation` does one twisted action per
term of the value and sign.

A tensor vector (and a group-algebra element) is a ``dict`` that never
stores a zero coefficient.  Sums of such vectors go through
:func:`filteralg.linalg.add_terms`, and :func:`star_group_algebra` is
the only loop applying the twisted action to a vector: the
per-permutation action, the module seeds and the annihilation check
call it.  It compiles each permutation once per call into an
``itemgetter`` and a bit mask per position, so a term costs one XOR per
odd letter; :func:`star_word` and :func:`f_I` stay as the single-word
definitions the tests check it against.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, permutations, product
from math import factorial, prod
from operator import itemgetter, xor
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .filters import Filter
from .linalg import EchelonBasis, add_terms, dense_rank, dot, intify
from .partitions import (
    Partition,
    check_alphabet,
    check_partition,
    check_size,
    enumerate_partitions,
)

DIM_CAP = 4096
DEGREE_CAP = 7
EE_DEGREE_CAP = 9
KERNEL_DEGREE_CAP = 6


class CapExceeded(RuntimeError):
    """A computation would exceed the configured exact-enumeration caps."""


Perm = tuple[int, ...]
Word = tuple[int, ...]


@dataclass(frozen=True)
class SuperBasis:
    """A homogeneous basis: ``k`` even generators then ``l`` odd ones."""

    k: int
    l: int

    def __post_init__(self):
        k, l = check_alphabet(self.k, self.l)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)

    @property
    def dim(self) -> int:
        return self.k + self.l

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(range(1, self.k + self.l + 1))

    def parity(self, letter: int) -> int:
        if not 1 <= letter <= self.dim:
            raise ValueError(f"letter {letter} outside 1..{self.dim}")
        return 0 if letter <= self.k else 1

    def words(self, n: int) -> Iterator[Word]:
        return product(self.letters, repeat=n)


def _check_cap(basis: SuperBasis, n: int) -> None:
    """Refuse an ambient ``(k+l)^n`` above ``FILTERALG_DIM_CAP``, if set,
    else above ``DIM_CAP``."""
    raw = os.environ.get("FILTERALG_DIM_CAP")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"FILTERALG_DIM_CAP must be a positive integer, got {raw!r}")
    else:
        cap = DIM_CAP
    if basis.dim**n > cap:
        raise CapExceeded(
            f"ambient dimension {basis.dim}**{n} exceeds cap {cap}"
        )


# ---------------------------------------------------------------------------
# Permutations and the sign functions.


def perm_sign(p: Perm) -> int:
    n = len(p)
    inv = sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])
    return -1 if inv & 1 else 1


def f_I(sigma: Perm, odd: Iterable[int]) -> int:
    """Sign picked up by crossings among the marked positions.

    ``odd`` is a set of values in ``1..d``; the result is ``(-1)`` to the
    number of pairs ``p < q`` with ``sigma(p), sigma(q)`` both marked and
    ``sigma(p) > sigma(q)``.
    """
    marked = frozenset(odd)
    seq = [s for s in sigma if s in marked]
    inv = sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]
    )
    return -1 if inv & 1 else 1


def star_word(word: Word, sigma: Perm, basis: SuperBasis) -> tuple[int, Word]:
    """Apply the twisted action to a single word: ``(sign, permuted word)``."""
    odd = frozenset(i + 1 for i, z in enumerate(word) if z > basis.k)
    return f_I(sigma, odd), tuple(word[s - 1] for s in sigma)


def star_group_algebra(vec: dict, element: dict, basis: SuperBasis) -> dict:
    """Apply a group-algebra element ``sum c_sigma sigma`` on the right.

    Each permutation is compiled once per call (:func:`_compiled`), so a
    word costs one ``itemgetter`` call and, when it has odd letters, an
    XOR over its odd positions; the result equals :func:`star_word`
    term by term.
    """
    out: dict = {}
    if not element:
        return out
    n = len(next(iter(element)))
    compiled = [(*_compiled(sigma), c) for sigma, c in element.items()]
    k = basis.k
    for w, a in vec.items():
        if len(w) != n:
            raise ValueError(f"degree mismatch: word {w} vs permutation of {n}")
        odd = [i for i, z in enumerate(w) if z > k]
        mask = sum(1 << i for i in odd)
        # The accumulate stays inline: this loop is the oracle's hot path.
        for permuted, below, c in compiled:
            x = 0
            for i in odd:
                x ^= below[i]
            w2 = permuted(w)
            nv = out.get(w2, 0) + (-c * a if (x & mask).bit_count() & 1 else c * a)
            if nv:
                out[w2] = nv
            else:
                out.pop(w2, None)
    return out


def _compiled(sigma: Perm) -> tuple[Callable[[Word], Word], list[int]]:
    """``sigma`` as ``(permuted, below)`` for :func:`star_group_algebra`.

    ``permuted(w)`` is ``(w[sigma(1)], ..., w[sigma(n)])``.  Bit ``j`` of
    ``below[i]`` (positions 0-based) is set when ``sigma`` places the
    value ``j + 1`` after the value ``i + 1`` although ``j < i``, so the
    inversions of ``sigma`` inside a set ``J`` of values are counted by
    ``below[i] & J`` for ``i`` in ``J``: ``f_J(sigma)`` is ``-1`` to the
    bit count of the XOR of those.  One right-to-left pass builds
    ``below``.
    """
    n = len(sigma)
    below = [0] * n
    seen = 0
    for s in reversed(sigma):
        below[s - 1] = seen & ((1 << (s - 1)) - 1)
        seen |= 1 << (s - 1)
    return _permuter(sigma), below


def _permuter(sigma: Perm) -> Callable[[Sequence], tuple]:
    """``w -> (w[sigma(1)], ..., w[sigma(n)])`` as one ``itemgetter`` call."""
    if len(sigma) < 2:
        return tuple
    return itemgetter(*[s - 1 for s in sigma])


def star_action(vec: dict, sigma: Perm, basis: SuperBasis) -> dict:
    """Twisted action of one permutation extended linearly to a tensor vector."""
    return star_group_algebra(vec, {sigma: 1}, basis)


# ---------------------------------------------------------------------------
# Young subgroups of a tableau.


def _tableau_blocks(rows: Sequence[Sequence[int]]) -> tuple[Sequence, list]:
    """Row blocks and column blocks of a tableau filling.

    The row group ``R`` and the column group ``C`` are the permutations
    preserving each row block, respectively each column block, setwise.
    """
    ncols = max((len(r) for r in rows), default=0)
    cols = [[row[j] for row in rows if len(row) > j] for j in range(ncols)]
    return rows, cols


def _group_sum(blocks: Sequence[Sequence[int]], n: int, signed: bool) -> dict:
    """Sum of the permutations of ``1..n`` preserving each block setwise:
    ``R+`` of the row blocks, or ``C-`` of the column blocks (``signed``)."""
    out = {}
    for assignment in product(*[permutations(b) for b in blocks]):
        img = list(range(n + 1))
        for block, perm in zip(blocks, assignment):
            for src, dst in zip(block, perm):
                img[src] = dst
        p = tuple(img[1:])
        out[p] = perm_sign(p) if signed else 1
    return out


def standard_tableau(lam: Partition) -> list[list[int]]:
    """The row-major standard filling of a shape."""
    rows, nxt = [], 1
    for p in lam:
        rows.append(list(range(nxt, nxt + p)))
        nxt += p
    return rows


def _standard_tableaux(lam: Partition) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every standard filling of a shape, as a tuple of rows.

    The largest entry sits in a corner, so each filling is one corner
    holding ``n`` on top of a standard filling of the shape without it.
    """
    n = sum(lam)
    if not n:
        yield ()
        return
    for i, p in enumerate(lam):
        if i + 1 < len(lam) and lam[i + 1] == p:
            continue
        rest = lam[:i] + (p - 1,) * (p > 1) + lam[i + 1 :]
        for sub in _standard_tableaux(rest):
            row = sub[i] if i < len(sub) else ()
            yield sub[:i] + (row + (n,),) + sub[i + 1 :]


# ---------------------------------------------------------------------------
# Subspaces of a degree slice.


def module_W(lam, basis: SuperBasis, n: int) -> EchelonBasis:
    """The isotypic block of the shape inside the degree-``n`` slice.

    It is ``V^n * x * Q[S_n]``, where ``x`` is ``e_T = R+ C-`` for the
    row-major standard tableau ``T`` when the row group ``R`` is at least
    as large as the column group ``C``, and ``C- R+`` otherwise.  Both
    generate the same two-sided ideal of the group algebra, so the
    canonical echelon rows do not depend on the choice.

    *Seeds.*  ``V^n * x`` is spanned by ``w * x`` over the words ``w``,
    and the symmetrizer is never expanded.  Since the action is a right
    action, ``w * x`` is two passes: the larger group ``G`` first, then
    the smaller group ``H``.  Words in one ``G``-orbit give the same
    ``w * G`` up to sign, so there is one seed per orbit, i.e. per
    choice of letter multiset in each block of ``G``, and ``w * G`` is a
    sum over the seed's distinct rearrangements times the order of its
    stabiliser.  The stabiliser cancels the seed outright when a row
    block repeats an odd letter (``G = R``) or a column block repeats an
    even letter (``G = C``); such orbits are skipped, and so are the
    terms of ``w * G`` that ``H`` cancels by the same rule.  The seeding
    therefore costs at most ``(k+l)^n`` twisted actions for the first
    pass and ``(k+l)^n * |H|`` for the second, so the cap on the ambient
    dimension ``(k+l)^n`` bounds the work as well.

    *Translates.*  ``x * Q[S_n]`` has the basis ``x * sigma_S``, one per
    standard tableau ``S`` (the standard basis of the Specht module),
    where ``sigma_S`` sends each entry of ``S`` to the entry of ``T`` in
    the same cell.  So the block is spanned by the ``f_lambda`` translates
    ``u * sigma_S`` of each row ``u`` of the seed span's basis.  That is
    ``dim W`` vectors, so every insert grows the block, and past the
    seeding the work is exactly ``dim W`` twisted actions and inserts.

    Results are cached per ``(shape, k, l)`` and must be treated as
    read-only.
    """
    lam = check_partition(lam)
    if sum(lam) != n:
        raise ValueError(f"|{lam}| != n = {n}")
    _check_cap(basis, n)
    return _module_W_cached(lam, basis.k, basis.l)


@lru_cache(maxsize=None)
def _module_W_cached(lam: Partition, k: int, l: int) -> EchelonBasis:
    basis = SuperBasis(k, l)
    n = sum(lam)
    tableau = standard_tableau(lam)
    rows, cols = _tableau_blocks(tableau)
    rows_first = _group_order(rows) >= _group_order(cols)
    first, second = (rows, cols) if rows_first else (cols, rows)
    second_sum = _group_sum(second, n, signed=rows_first)
    seeds = EchelonBasis()
    for seed, orbit_sum in _orbit_sums(basis.words(n), first, basis, not rows_first):
        v = star_group_algebra({seed: 1}, orbit_sum, basis)
        v = {w: c for w, c in v.items() if not _killed(w, second, rows_first, basis)}
        v = star_group_algebra(v, second_sum, basis)
        if v:
            seeds.insert(v)
    seed_rows = seeds.rows()
    block = EchelonBasis()
    for filling in _standard_tableaux(lam):
        # sigma_S: each entry of S goes to the entry of T in the same cell.
        cell = dict(zip(chain.from_iterable(filling), chain.from_iterable(tableau)))
        sigma = tuple(cell[i] for i in range(1, n + 1))
        for u in seed_rows:
            block.insert(star_action(u, sigma, basis))
    return block


def _group_order(blocks: Sequence[Sequence[int]]) -> int:
    """Order of the group of permutations preserving each block setwise."""
    return prod(factorial(len(b)) for b in blocks)


def _orbit_sums(
    words: Iterable[Word],
    blocks: Sequence[Sequence[int]],
    basis: SuperBasis,
    signed: bool,
) -> Iterator[tuple[Word, dict]]:
    """One ``(seed, element)`` pair per orbit of the block group on ``words``.

    The group ``G`` preserving each block rearranges the letters inside
    each block, so an orbit is named by the multiset of letters in each
    block.  The first given word of an orbit is its seed, and ``element``
    holds one permutation ``p`` of ``G`` per given word ``w`` of the
    orbit, carrying the seed onto it (``star_word(seed, p) = (e, w)``),
    with coefficient ``1`` (``G+``) or ``sign(p)`` (``G-``,
    ``signed=True``); then ``w * G± = e * element[p] * (seed * G±)``.
    Given every word of a degree, ``seed * element`` is ``seed * G±``
    divided by the order of the seed's stabiliser.  Orbits whose
    stabiliser cancels the seed (see :func:`_killed`) are left out.
    """
    orbits: dict = {}
    for w in words:
        key = tuple(tuple(sorted(w[p - 1] for p in b)) for b in blocks)
        orbits.setdefault(key, []).append(w)
    for orbit in orbits.values():
        seed = orbit[0]
        if _killed(seed, blocks, signed, basis):
            continue
        element = {}
        for w in orbit:
            p = _carrying(seed, w, blocks)
            element[p] = perm_sign(p) if signed else 1
        yield seed, element


def _killed(
    word: Word, blocks: Sequence[Sequence[int]], signed: bool, basis: SuperBasis
) -> bool:
    """Whether ``word * G+`` (or ``word * G-``, ``signed=True``) is zero.

    It is exactly when some block repeats an odd letter (``G+``) or an
    even letter (``G-``): swapping the two repeats fixes the word but
    flips the sign of its term, so the stabiliser sums to zero.
    """
    cancelling = 0 if signed else 1
    for b in blocks:
        letters = [word[p - 1] for p in b if basis.parity(word[p - 1]) == cancelling]
        if len(set(letters)) < len(letters):
            return True
    return False


def _carrying(seed: Word, word: Word, blocks: Sequence[Sequence[int]]) -> Perm:
    """A block-preserving ``p`` with ``word[i] = seed[p(i)]``: ``seed * p ~ word``."""
    img = [0] * len(seed)
    for block in blocks:
        sources: dict = {}
        for pos in block:
            sources.setdefault(seed[pos - 1], []).append(pos)
        for pos in block:
            img[pos - 1] = sources[word[pos - 1]].pop()
    return tuple(img)


def ideal_subspace(omega: Filter, basis: SuperBasis, n: int) -> EchelonBasis:
    """Degree-``n`` slice of the subspace attached to the filter members.

    A filter with an ambient must be over the basis's ``(k, l)``: its
    membership counts the adjoined ``k+1 x l+1`` rectangle.
    """
    _check_ambient(omega, basis)
    _check_cap(basis, n)
    return _blocks_span(
        [lam for lam in enumerate_partitions(n) if omega.member(lam)], basis, n
    )


def _check_ambient(omega: Filter, basis: SuperBasis) -> None:
    if omega.ambient is not None and omega.ambient != (basis.k, basis.l):
        raise ValueError(
            f"filter ambient {omega.ambient} differs from the basis ({basis.k}, {basis.l})"
        )


def _blocks_span(shapes: Iterable[Partition], basis: SuperBasis, n: int) -> EchelonBasis:
    """Sum of the ``module_W`` blocks of the given size-``n`` shapes."""
    sub = EchelonBasis()
    for lam in shapes:
        for row in module_W(lam, basis, n).rows():
            sub.insert(row)
    return sub


def _blocks_rows(shapes: Iterable[Partition], basis: SuperBasis, n: int) -> list[dict]:
    """The echelon rows of the ``module_W`` blocks of the given size-``n``
    shapes, block after block."""
    return [row for lam in shapes for row in module_W(lam, basis, n).rows()]


def _orthogonal(vec: dict, rows: Sequence[dict]) -> bool:
    """Whether ``vec`` has dot product 0 with every row."""
    return not any(dot(vec, row) for row in rows)


def check_ideal(omega_set: Iterable, basis: SuperBasis, n_max: int) -> bool:
    """Decide whether the blocks of the given shapes form a two-sided ideal.

    For each degree ``n < n_max`` and each row ``v`` of a block of a
    listed shape of size ``n``, both ``z (x) v`` and ``v (x) z`` must
    land in the degree ``n+1`` slice spanned by the listed shapes, for
    every generator ``z``.  That slice is tested from the quotient side:
    a vector lies in it iff it is orthogonal to every block of an
    unlisted shape (see :func:`evaluate_identity`).  The input need not
    be upward closed; that is the point of the check.
    """
    n_max = check_size(n_max, "n_max")
    _check_cap(basis, n_max)
    members = {check_partition(m) for m in omega_set}
    for n in range(n_max):
        sources = _blocks_rows([lam for lam in members if sum(lam) == n], basis, n)
        if not sources:
            continue
        others = _blocks_rows(
            [lam for lam in enumerate_partitions(n + 1) if lam not in members],
            basis,
            n + 1,
        )
        for row in sources:
            for z in basis.letters:
                left = {(z,) + w: c for w, c in row.items()}
                right = {w + (z,): c for w, c in row.items()}
                if not _orthogonal(left, others) or not _orthogonal(right, others):
                    return False
    return True


def generated_ideal(
    relations: Iterable[dict], basis: SuperBasis, n: int
) -> EchelonBasis:
    """Degree-``n`` slice of the two-sided ideal spanned by degree-2 relations."""
    _check_cap(basis, n)
    rels = []
    for rel in relations:
        rel = intify(rel)
        if any(len(w) != 2 for w in rel):
            raise ValueError("relations must be homogeneous of degree 2")
        for w in rel:
            for z in w:
                basis.parity(z)
        rels.append(rel)
    sub = EchelonBasis()
    if n >= 2:
        for i in range(n - 1):
            lefts = list(basis.words(i))
            rights = list(basis.words(n - 2 - i))
            for rel in rels:
                for w1 in lefts:
                    for w2 in rights:
                        sub.insert({w1 + r + w2: c for r, c in rel.items()})
    return sub


# ---------------------------------------------------------------------------
# Multilinear polynomials and identity checks.


class MultilinearPoly:
    """``sum_sigma alpha_sigma x_{sigma(1)} ... x_{sigma(d)}`` with exact coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict):
        clean = {}
        for sigma, c in coeffs.items():
            if sorted(sigma) != list(range(1, degree + 1)):
                raise ValueError(f"{sigma} is not a permutation of 1..{degree}")
            if c:
                clean[tuple(sigma)] = c
        self.degree = degree
        self.coeffs = clean

    def int_coeffs(self) -> list[tuple[Perm, int]]:
        """Coefficients scaled by the common denominator (identity-equivalent)."""
        scaled = intify(self.coeffs)
        return sorted(scaled.items())

    def __repr__(self):
        return f"MultilinearPoly(degree={self.degree}, terms={len(self.coeffs)})"


# Free polynomials in noncommuting variables: word over 0-based variable
# ids -> coefficient.  Only used to build multilinear identities.


def free_var(i: int) -> dict:
    return {(i,): 1}


def free_add(a: dict, b: dict) -> dict:
    return add_terms(dict(a), b.items())


def free_scale(a: dict, s) -> dict:
    return {w: c * s for w, c in a.items()} if s else {}


def free_mul(a: dict, b: dict) -> dict:
    return add_terms(
        {}, ((wa + wb, ca * cb) for wa, ca in a.items() for wb, cb in b.items())
    )


def free_commutator(a: dict, b: dict) -> dict:
    return free_add(free_mul(a, b), free_scale(free_mul(b, a), -1))


def multilinear_from_free(poly: dict, d: int) -> MultilinearPoly:
    """Read an already multilinear free polynomial in ``d`` distinct variables."""
    coeffs = {}
    for word, c in poly.items():
        if sorted(word) != list(range(d)):
            raise ValueError(f"monomial {word} is not multilinear in {d} variables")
        coeffs[tuple(x + 1 for x in word)] = c
    return MultilinearPoly(d, coeffs)


def multilinearize(poly: dict) -> MultilinearPoly:
    """Full polarization of a homogeneous free polynomial.

    Each variable of multidegree ``m`` is replaced by a block of ``m``
    fresh slots, summing over every order in which the slots can occupy
    the variable's positions.  The result vanishes on an algebra exactly
    when the original does (characteristic zero).
    """
    if not poly:
        raise ValueError("cannot multilinearize the zero polynomial")
    words = list(poly)
    ref = Counter(words[0])
    for w in words[1:]:
        if Counter(w) != ref:
            raise ValueError("polynomial is not multihomogeneous")
    variables = sorted(ref)
    offsets = {}
    start = 0
    for v in variables:
        offsets[v] = start
        start += ref[v]
    d = start
    coeffs: dict = {}
    for word, c in poly.items():
        pos_by_var = {v: [i for i, x in enumerate(word) if x == v] for v in variables}
        label_pools = [
            permutations(range(offsets[v] + 1, offsets[v] + 1 + ref[v]))
            for v in variables
        ]
        for assignment in product(*label_pools):
            labels = [0] * len(word)
            for v, labs in zip(variables, assignment):
                for p, lb in zip(pos_by_var[v], labs):
                    labels[p] = lb
            add_terms(coeffs, [(tuple(labels), c)])
    return MultilinearPoly(d, coeffs)


def standard_poly(d: int) -> MultilinearPoly:
    """The alternating sum over all orders of ``d`` distinct variables."""
    return MultilinearPoly(
        d, {p: perm_sign(p) for p in permutations(range(1, d + 1))}
    )


def commutator_product(j: int) -> MultilinearPoly:
    """``[x1,x2][x3,x4]...[x_{2j-1},x_{2j}]`` as a multilinear polynomial."""
    if j < 1:
        raise ValueError("need at least one commutator factor")
    poly = free_commutator(free_var(0), free_var(1))
    for i in range(1, j):
        poly = free_mul(poly, free_commutator(free_var(2 * i), free_var(2 * i + 1)))
    return multilinear_from_free(poly, 2 * j)


def popov5a() -> MultilinearPoly:
    """Multilinearization of ``[[x,y]^2, x]`` (degree 5)."""
    x, y = free_var(0), free_var(1)
    c = free_commutator(x, y)
    return multilinearize(free_commutator(free_mul(c, c), x))


def popov5b() -> MultilinearPoly:
    """``[[[x1,x2],[x3,x4]],x5]`` (already multilinear, degree 5)."""
    inner = free_commutator(
        free_commutator(free_var(0), free_var(1)),
        free_commutator(free_var(2), free_var(3)),
    )
    return multilinear_from_free(free_commutator(inner, free_var(4)), 5)


def br_cube() -> MultilinearPoly:
    """Multilinearization of ``[x,y]^3`` (degree 6)."""
    c = free_commutator(free_var(0), free_var(1))
    return multilinearize(free_mul(free_mul(c, c), c))


def s3_cubed() -> MultilinearPoly:
    """Multilinearization of the cubed degree-3 standard polynomial (degree 9)."""
    s3 = {
        tuple(p): perm_sign(tuple(x + 1 for x in p))
        for p in permutations(range(3))
    }
    return multilinearize(free_mul(free_mul(s3, s3), s3))


_NAMED_POLYS = {
    "s4": lambda: standard_poly(4),
    "popov5a": popov5a,
    "popov5": popov5a,
    "popov5b": popov5b,
    "br-cube": br_cube,
    "s3cube": s3_cubed,
}


def named_poly(name: str, max_degree: Optional[int] = None) -> MultilinearPoly:
    """Built-in polynomials: ``commutators:j``, ``popov5a``, ``popov5b``,
    ``br-cube``, ``s4``, ``s3cube``.

    A polynomial of degree above ``max_degree`` raises ``ValueError``;
    ``commutators:j`` is refused from its name, before its ``2^j``
    monomials are built.
    """
    if name.startswith("commutators:"):
        j = int(name.split(":", 1)[1])
        _check_degree(name, 2 * j, max_degree)
        return commutator_product(j)
    try:
        g = _NAMED_POLYS[name]()
    except KeyError:
        raise ValueError(f"unknown polynomial {name!r}") from None
    _check_degree(name, g.degree, max_degree)
    return g


def _check_degree(name: str, degree: int, max_degree: Optional[int]) -> None:
    if max_degree is not None and degree > max_degree:
        raise ValueError(f"{name} has degree {degree}, above the limit {max_degree}")


def _compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Tuples of ``d`` positive integers summing to ``n``."""
    if d == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - d + 2):
        for rest in _compositions(n - first, d - 1):
            yield (first,) + rest


def _terms(g: MultilinearPoly) -> list[tuple[Callable, int]]:
    """``g``'s terms as ``(permuted, c)`` for :func:`_substitute`: ``c`` is
    the coefficient scaled to an integer (identity-equivalent), and
    ``permuted(words)`` puts the words in the term's order."""
    return [(_permuter(sigma), c) for sigma, c in intify(g.coeffs).items()]


def _substitute(terms: list[tuple[Callable, int]], words: Sequence[Word]) -> dict:
    """The value of ``sum c_sigma x_sigma(1) ... x_sigma(d)`` at
    ``x_i = words[i-1]``, for the :func:`_terms` of the polynomial."""
    return add_terms({}, ((sum(permuted(words), ()), c) for permuted, c in terms))


def evaluate_identity(
    g: MultilinearPoly, omega: Filter, basis: SuperBasis, n: int
) -> bool:
    """True iff ``g`` vanishes identically on the quotient in degree ``n``.

    Every substitution of words with total length ``n`` is evaluated and
    tested for membership in the filter's degree-``n`` subspace; being
    multilinear, ``g`` vanishes on the whole algebra iff it does on
    these monomial tuples.

    Membership is tested from the quotient side.  The twisted action
    sends each word to a signed word, so every permutation acts by an
    orthogonal matrix on the word basis, and distinct isotypic blocks
    are orthogonal (Serre, *Linear Representations of Finite Groups*,
    2.6).  The degree-``n`` slice is the orthogonal direct sum of the
    blocks, so a value lies in the members' blocks iff its dot product
    with every row of every non-member block is 0.
    """
    _check_ambient(omega, basis)
    _check_cap(basis, n)
    others = _blocks_rows(
        [lam for lam in enumerate_partitions(n) if not omega.member(lam)], basis, n
    )
    terms = _terms(g)
    words_by_len = {m: list(basis.words(m)) for m in range(1, n - g.degree + 2)}
    for comp in _compositions(n, g.degree):
        for tup in product(*[words_by_len[m] for m in comp]):
            if not _orthogonal(_substitute(terms, tup), others):
                return False
    return True


def is_identity_EE(g: MultilinearPoly) -> bool:
    """Decide whether ``g`` is an identity of the square of the Grassmann algebra.

    The criterion is the vanishing of
    ``sum_sigma alpha_sigma f_{I1}(sigma) f_{I2}(sigma)`` for every pair
    of subsets ``I1, I2`` of the variable positions.  Every pair is
    decided, so either verdict is a proof.

    The product ``f_{I1} f_{I2}`` is ``-1`` exactly on the terms whose
    permutation inverts an odd number of the value pairs in
    ``P(I1) ^ P(I2)``, where ``P(I)`` is the set of pairs inside ``I``
    (see :func:`_subset_parities`).  With that set of terms as a bit mask
    ``par``, the sum is the coefficient sum minus twice the coefficients
    of ``par``; the latter is read off bit-sliced coefficient masks with
    one ``bit_count`` each.  Each distinct pair set is tested once.
    """
    d = g.degree
    if d > EE_DEGREE_CAP:
        raise CapExceeded(f"degree {d} exceeds cap {EE_DEGREE_CAP}")
    items = g.int_coeffs()
    if not items:
        return True
    # I1 == I2 gives the plain coefficient sum; with it zero, every other
    # pair vanishes iff the coefficients of the terms in ``par`` cancel.
    if sum(c for _, c in items):
        return False
    weighted = _coefficient_slices([c for _, c in items])
    subsets = list(_subset_parities([sigma for sigma, _ in items], d).items())
    seen = set()
    for i, (pairs1, par1) in enumerate(subsets):
        for pairs2, par2 in subsets[i + 1 :]:
            pairs = pairs1 ^ pairs2
            if pairs in seen:
                continue
            seen.add(pairs)
            par = par1 ^ par2
            if sum(w * (mask & par).bit_count() for w, mask in weighted):
                return False
    return True


def _bits(flags: Sequence[bool]) -> int:
    """The int whose bit ``t`` is ``flags[t]``."""
    return int("".join("1" if f else "0" for f in reversed(flags)) or "0", 2)


def _coefficient_slices(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """``(weight, mask)`` pairs with ``sum w * bit_t(mask) = coeffs[t]``.

    One mask per sign and binary digit of ``|c|``, so their number grows
    with the size of the coefficients, not with how many distinct ones
    there are.
    """
    out = []
    for sign in (1, -1):
        mags = [max(c * sign, 0) for c in coeffs]
        for j in range(max(mags).bit_length()):
            out.append((sign << j, _bits([m >> j & 1 for m in mags])))
    return out


def _subset_parities(perms: Sequence[Perm], d: int) -> dict[int, int]:
    """``f_I`` on ``perms`` as bits, for each distinct pair set ``P(I)``.

    ``f_I(sigma)`` is ``-1`` to the number of value pairs ``a < b``
    inside ``I`` that ``sigma`` inverts, i.e. places ``b`` before ``a``.
    One big-int column per value pair marks the permutations inverting
    it, and the parity of ``I`` is the XOR of the columns of its pairs.
    Keys are ``P(I)`` as a bit mask over the value pairs (every subset of
    size at most one has the empty set); values have bit ``t`` set when
    ``f_I(perms[t]) = -1``.
    """
    positions = []
    for sigma in perms:
        pos = [0] * (d + 1)
        for i, v in enumerate(sigma):
            pos[v] = i
        positions.append(pos)
    pairs = list(combinations(range(1, d + 1), 2))
    inverted = {(a, b): _bits([p[a] > p[b] for p in positions]) for a, b in pairs}
    pair_bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    out: dict[int, int] = {}
    for m in range(d + 1):
        for sub in combinations(range(1, d + 1), m):
            inside = list(combinations(sub, 2))
            key = sum(pair_bit[q] for q in inside)
            if key not in out:
                out[key] = reduce(xor, (inverted[q] for q in inside), 0)
    return out


def ee_identity_kernel_dim(d: int) -> int:
    """Dimension of the space of degree-``d`` multilinear identities.

    Rank-nullity of the subset-pair constraint matrix over the
    rationals, whose row for ``(I1, I2)`` is ``f_{I1} * f_{I2}`` over all
    of ``S_d``.  The rows are bilinear in the ``f_I``, so they span
    ``R = V * V`` for ``V`` the span of the ``f_I``.

    ``R`` is ranked one block at a time.  The group ``G`` of
    :func:`_ee_symmetries` (the swaps of the values ``2i-1, 2i`` and the
    reversal of positions, ``G = (Z/2)^m``) multiplies functions on
    ``S_d`` pointwise and sends every ``f_I`` to some ``+-f_J``: a
    relabeling gives ``f_I(pi o sigma) = +-f_{pi^-1 I}(sigma)``, the
    reversal ``f_I(sigma w0) = (-1)^C(|I|,2) f_I(sigma)``.  So ``V`` is
    the direct sum of its eigenspaces ``V_chi`` over the ``2^m``
    characters, and ``R`` the direct sum over ``theta`` of the spans
    ``R_theta`` of the products ``V_chi * V_psi`` with ``chi psi = theta``
    (Maschke's theorem for an abelian group).  An eigenvector is fixed
    by its values at one word per ``G``-orbit, so each ``R_theta`` is
    ranked on those columns only: at ``d = 6``, 16 blocks of 48 columns
    instead of one block of 720.

    Each orbit is listed in group-element order (bit ``j`` of the index
    applies generator ``j``), so one Walsh--Hadamard transform of a
    sign row over an orbit gives its projection onto every ``V_chi`` at
    the orbit's first word.  An orbit with a nontrivial stabiliser
    lists its words more than once, and the characters that are not
    trivial on the stabiliser get 0 there, as they must.
    """
    d = check_size(d, "d")
    if d > KERNEL_DEGREE_CAP:
        raise CapExceeded(f"degree {d} exceeds cap {KERNEL_DEGREE_CAP}")
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
    n = len(words)
    spaces = [EchelonBasis() for _ in range(size)]
    for par in _subset_parities(words, d).values():
        bits = format(par, f"0{n}b")[::-1]
        # Row g holds the signs at the g-th word of every orbit.
        rows = [[-1 if b == "1" else 1 for b in bits[g::size]] for g in range(size)]
        for space, row in zip(spaces, _walsh_hadamard(rows)):
            space.insert(dict(enumerate(row)))
    orbits = n // size
    bases = [
        [[r.get(o, 0) for o in range(orbits)] for r in space.rows()] for space in spaces
    ]
    rank = 0
    for theta in range(size):
        products = []
        for chi in range(size):
            psi = chi ^ theta
            if psi < chi:
                continue
            for i, u in enumerate(bases[chi]):
                for v in bases[psi][i:] if psi == chi else bases[psi]:
                    products.append([x * y for x, y in zip(u, v)])
        rank += dense_rank(products)
    return factorial(d) - rank


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


def _ee_symmetries(d: int) -> list[Callable[[Perm], Perm]]:
    """The generators of the symmetry group of the ``f_I`` in degree ``d``.

    The swaps of the values ``2i-1, 2i`` for ``i <= d // 2``, acting as
    ``sigma -> pi o sigma``, then the reversal of positions,
    ``sigma -> sigma w0``.  They commute and are involutions, and each
    sends every ``f_I`` to some ``+-f_J`` (see
    :func:`ee_identity_kernel_dim`).
    """
    gens: list[Callable[[Perm], Perm]] = []
    for i in range(1, d // 2 + 1):
        swap = {2 * i - 1: 2 * i, 2 * i: 2 * i - 1}
        gens.append(lambda sigma, swap=swap: tuple(swap.get(v, v) for v in sigma))
    gens.append(lambda sigma: sigma[::-1])
    return gens


def check_annihilation(
    g: MultilinearPoly, monomials: Sequence[Word], basis: SuperBasis
) -> bool:
    """True iff ``g(monomials)`` is killed by both total symmetrizers.

    The value, of total degree ``n``, must vanish under the full and
    the signed sums over ``S_n``, which certifies that it has no
    component in the single-row or single-column blocks.  By orbits
    (:func:`_orbit_sums` with one block), ``value * S±`` is the sum of
    the nonzero ``seed * S±`` times ``sum element[p] * e * value[w]``
    over ``(e, w) = star_word(seed, p)``, so each such scalar, the dot
    product of ``seed * element`` with the value, must be 0.
    """
    words = [tuple(m) for m in monomials]
    if len(words) != g.degree:
        raise ValueError(f"need {g.degree} monomials, got {len(words)}")
    for w in words:
        if not w:
            raise ValueError("monomials must be nonempty words")
        for z in w:
            basis.parity(z)
    n = sum(len(w) for w in words)
    if n > DEGREE_CAP:
        raise CapExceeded(f"total degree {n} exceeds cap {DEGREE_CAP}")
    value = _substitute(_terms(g), words)
    for signed in (False, True):
        for seed, element in _orbit_sums(value, [range(1, n + 1)], basis, signed):
            if dot(star_group_algebra({seed: 1}, element, basis), value):
                return False
    return True

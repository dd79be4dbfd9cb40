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
* A tensor vector (and a group-algebra element) is a ``dict`` that never
  stores a zero coefficient.  Sums of vectors go through
  :func:`filteralg.linalg.add_terms`, except in the hot loops of
  :func:`_star_compiled`, :func:`evaluate_identity` and
  :func:`check_ideal`, which add inline.

The engines:

* the action: :func:`_star_compiled` is the one loop applying it to a
  vector, behind :func:`star_group_algebra`; :func:`star_word` and
  :func:`f_I` are the single-word definitions the tests check it against;
* the blocks: :func:`module_W`, the isotypic block of a shape as a
  canonical integer echelon basis, and the slices
  :func:`ideal_subspace` and :func:`generated_ideal`;
* verdicts on the blocks, under the ambient cap :func:`_check_cap`:
  :func:`check_ideal` and :func:`evaluate_identity`;
* polynomials: :class:`MultilinearPoly` with its :class:`SignTable`, the
  free algebra, :func:`multilinearize` and the named identities;
* sign sums read off a polynomial's table: :func:`is_identity_EE` and
  :func:`check_annihilation`, and the rank of the E⊗E identities,
  :func:`ee_identity_kernel_dim`.

A sum over a Young subgroup runs over the carriers of
:func:`_carriers`.  Exceeding a cap raises :class:`CapExceeded`, never
approximates.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import accumulate, chain, combinations, permutations, product
from math import comb, factorial, prod
from operator import and_, itemgetter, mul, or_, xor
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .filters import Filter
from .linalg import EchelonBasis, add_terms, dense_rank, intify
from .partitions import (
    Partition,
    _integers,
    check_alphabet,
    check_partition,
    check_size,
    enumerate_partitions,
)

DIM_CAP = 4096
EE_DEGREE_CAP = 9
KERNEL_DEGREE_CAP = 7


class CapExceeded(RuntimeError):
    """A computation would exceed the configured exact-enumeration caps."""


Perm = tuple[int, ...]
Word = tuple[int, ...]


class _SuperBasisFields(NamedTuple):
    k: int
    l: int


class SuperBasis(_SuperBasisFields):
    """A homogeneous basis: ``k`` even generators then ``l`` odd ones.

    A named tuple ``(k, l)`` like :class:`~filteralg.filters.Filter`:
    immutable, hashable and equal by value, with the alphabet checked by
    the constructor, :meth:`_make` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, k: int, l: int) -> "SuperBasis":
        return super().__new__(cls, *check_alphabet(k, l))

    @classmethod
    def _make(cls, iterable) -> "SuperBasis":
        """Build through the constructor; ``_replace`` calls this, so it
        checks and normalizes too."""
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return self.k + self.l

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(range(1, self.k + self.l + 1))

    def parity(self, letter: int) -> int:
        (letter,) = _check_word((letter,), self)
        return 0 if letter <= self.k else 1

    def words(self, n: int) -> Iterator[Word]:
        return product(self.letters, repeat=n)


def _check_word(word: Iterable, basis: SuperBasis) -> Word:
    """``word`` as a tuple of letters of ``basis``: integers in the sense
    of ``operator.index`` and not ``bool``, the rule of
    :func:`~filteralg.partitions.check_partition`, in ``1..k+l``.
    Anything else raises ``ValueError``."""
    word = _integers(tuple(word), "letters")
    if word and (min(word) < 1 or max(word) > basis.dim):
        bad = next(z for z in word if not 1 <= z <= basis.dim)
        raise ValueError(f"letter {bad} outside 1..{basis.dim}")
    return word


def _check_perms(perms: Iterable, n: int) -> None:
    """Refuse with ``ValueError`` any of ``perms`` that is not a
    permutation of ``1..n``."""
    values = list(range(1, n + 1))
    for sigma in perms:
        if sorted(sigma) != values:
            raise ValueError(f"{sigma} is not a permutation of 1..{n}")


def _check_cap(basis: SuperBasis, n, name: str = "n") -> int:
    """The degree ``n``, checked by :func:`~filteralg.partitions.check_size`
    under ``name``, and refused with :class:`CapExceeded` when the
    ambient ``(k+l)^n`` exceeds ``DIM_CAP``, read at each call."""
    n = check_size(n, name)
    # dim**n >= 2**n > cap once n reaches cap's bit length: refuse a huge n
    # without taking the power.
    if (basis.dim >= 2 and n >= DIM_CAP.bit_length()) or basis.dim**n > DIM_CAP:
        raise CapExceeded(f"ambient dimension {basis.dim}**{n} exceeds cap {DIM_CAP}")
    return n


# ---------------------------------------------------------------------------
# Permutations and the sign functions.


def perm_sign(p: Perm) -> int:
    """``(-1)`` to the number of strict inversions of a sequence: pairs
    ``a < b`` with ``p[a] > p[b]``; equal values never count."""
    n = len(p)
    inv = sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])
    return -1 if inv & 1 else 1


def f_I(sigma: Perm, odd: Iterable[int]) -> int:
    """Sign picked up by crossings among the marked positions.

    ``odd`` is a set of values in ``1..d``; the result is ``(-1)`` to the
    number of pairs ``p < q`` with ``sigma(p), sigma(q)`` both marked and
    ``sigma(p) > sigma(q)``: the sign of the marked subsequence.
    """
    marked = frozenset(odd)
    return perm_sign(tuple(s for s in sigma if s in marked))


def star_word(word: Word, sigma: Perm, basis: SuperBasis) -> tuple[int, Word]:
    """Apply the twisted action to a single word: ``(sign, permuted word)``."""
    odd = frozenset(i + 1 for i, z in enumerate(word) if z > basis.k)
    return f_I(sigma, odd), tuple(word[s - 1] for s in sigma)


def star_group_algebra(vec: dict, element: dict, basis: SuperBasis) -> dict:
    """Apply a group-algebra element ``sum c_sigma sigma`` on the right.

    Each permutation is compiled once per call (:func:`_compiled`), so a
    word costs one ``itemgetter`` call and, when it has odd letters, an
    XOR over its odd positions; the result equals :func:`star_word`
    term by term.  The keys of ``element`` must be permutations of one
    ``1..n``, and the words of ``vec`` words of ``basis`` of length ``n``.
    """
    if not element:
        return {}
    n = len(next(iter(element)))
    _check_perms(element, n)
    for w in vec:
        if len(_check_word(w, basis)) != n:
            raise ValueError(f"degree mismatch: word {w} vs permutation of {n}")
    return _star_compiled(vec, [(*_compiled(sigma), c) for sigma, c in element.items()], basis.k)


def _star_compiled(vec: dict, compiled: list[tuple[Callable, list[int], object]], k: int) -> dict:
    """The loop of :func:`star_group_algebra` over an element already
    compiled into ``(permuted, below, c)`` triples (see :func:`_compiled`),
    so that a caller applying one element to many vectors compiles it
    once.  ``k`` is the number of even letters.  Every word must have
    the permutations' length; the caller checks that, where a vector
    comes from outside (:func:`star_group_algebra`)."""
    out: dict = {}
    for w, a in vec.items():
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


def _columns(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The column blocks of a tableau filling given by its rows.

    The row group ``R`` and the column group ``C`` are the permutations
    preserving each row, respectively each column, setwise.
    """
    ncols = max((len(r) for r in rows), default=0)
    return [[row[j] for row in rows if len(row) > j] for j in range(ncols)]


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

    *Seeds.*  ``V^n * x`` has dimension ``s_lambda(k|l)``, and the seeds
    ``w * x`` are a basis of it, ``w`` running over the row readings of
    the ``(k,l)``-semistandard fillings (Berele-Regev).  The action is a
    right action, so ``w * x`` is two passes: the larger group ``G``,
    then the smaller ``H`` on the whole result.  ``w * G`` is the sum
    over the distinct rearrangements of ``w`` in the blocks of ``G``
    (:func:`_carriers`), times the order of its stabiliser, which is
    nonzero: it would be 0 only if a block repeated an odd letter
    (``G = R``) or an even one (``G = C``), and a semistandard filling
    repeats neither.  ``H`` is listed as the carriers of ``(1, ..., n)``.
    The orbits are disjoint, so the passes cost at most ``(k+l)^n`` and
    ``(k+l)^n * |H|`` twisted actions.  No basis of the seeds' span is
    built.

    *Translates.*  ``x * Q[S_n]`` has the basis ``x * sigma_S``, one per
    standard tableau ``S`` (the standard basis of the Specht module),
    where ``sigma_S`` sends each entry of ``S`` to the entry of ``T`` in
    the same cell.  So the block is spanned by the ``f_lambda`` translates
    ``u * sigma_S`` of each seed ``u``: ``dim W`` vectors, a basis iff
    the seeds are independent.  The inserts are the check: a translate
    that does not grow the block raises ``AssertionError``.  Past the
    seeding the work is exactly ``dim W`` twisted actions and inserts,
    with each ``sigma_S`` compiled once for all the seeds it moves.

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
    n = sum(lam)
    rows = standard_tableau(lam)
    cols = _columns(rows)
    rows_first = _group_order(rows) >= _group_order(cols)
    first, second = (rows, cols) if rows_first else (cols, rows)
    second_sum = [
        (*_compiled(p), perm_sign(p) if rows_first else 1)
        for p in _carriers(tuple(range(1, n + 1)), second)
    ]
    seeds = []
    for seed in _super_tableaux(lam, k, l):
        orbit_sum = [
            (*_compiled(p), 1 if rows_first else perm_sign(p)) for p in _carriers(seed, first)
        ]
        seeds.append(_star_compiled(_star_compiled({seed: 1}, orbit_sum, k), second_sum, k))
    block = EchelonBasis()
    for filling in _standard_tableaux(lam):
        # sigma_S: each entry of S goes to the entry of T in the same cell.
        cell = dict(zip(chain.from_iterable(filling), chain.from_iterable(rows)))
        translate = [(*_compiled(tuple(cell[i] for i in range(1, n + 1))), 1)]
        for u in seeds:
            if not block.insert(_star_compiled(u, translate, k)):
                raise AssertionError(
                    f"the {len(seeds)} semistandard seeds of {lam} are linearly dependent"
                )
    return block


def _group_order(blocks: Sequence[Sequence[int]]) -> int:
    """Order of the group of permutations preserving each block setwise."""
    return prod(factorial(len(b)) for b in blocks)


def _super_tableaux(lam: Partition, k: int, l: int) -> list[Word]:
    """Row readings of the ``(k,l)``-semistandard fillings, in lex order.

    Unprimed letters ``1..k`` increase weakly along rows and strictly down
    columns, primed ones ``k+1..k+l`` the other way round.  Cells fill in
    row-major order.
    """
    top = k + l + 1
    words: list[Word] = [()]
    start = 0
    for r, p in enumerate(lam):
        above = start - lam[r - 1] if r else 0
        for c in range(p):
            grown = []
            for w in words:
                lo = 1
                if c:
                    left = w[start + c - 1]
                    lo = left + (left > k)
                if r:
                    up = w[above + c]
                    lo = max(lo, up + (up <= k))
                grown.extend(w + (v,) for v in range(lo, top))
            words = grown
        start += p
    return words


def _carriers(seed: Word, blocks: Sequence[Sequence[int]]) -> Iterator[Perm]:
    """One carrier ``p`` per distinct rearrangement ``w`` of ``seed``
    inside the blocks: ``p`` preserves each block, ``w[i] = seed[p(i)]``
    (so ``seed * p = +-w``), and equal letters keep their order.  Each
    letter in turn takes a combination of the free positions of a block.

    On a word of distinct letters the carriers are the whole group:
    :func:`module_W` lists its smaller group that way, and
    :func:`multilinearize` the orders of its slot blocks.
    """
    per_block = []
    for block in blocks:
        sources: dict = {}
        for pos in block:
            sources.setdefault(seed[pos - 1], []).append(pos)
        moves = [(tuple(block), ())]
        for src in sources.values():
            moves = [
                (tuple(p for p in free if p not in chosen), pairs + tuple(zip(chosen, src)))
                for free, pairs in moves
                for chosen in combinations(free, len(src))
            ]
        per_block.append([pairs for _, pairs in moves])
    for choice in product(*per_block):
        img = [0] * len(seed)
        for pairs in choice:
            for pos, src in pairs:
                img[pos - 1] = src
        yield tuple(img)


def ideal_subspace(omega: Filter, basis: SuperBasis, n: int) -> EchelonBasis:
    """Degree-``n`` slice of the subspace attached to the filter members.

    A filter with an ambient must be over the basis's ``(k, l)``: its
    membership counts the adjoined ``k+1 x l+1`` rectangle.
    """
    _check_ambient(omega, basis)
    n = _check_cap(basis, n)
    members = [lam for lam in enumerate_partitions(n) if omega.member(lam)]
    sub = EchelonBasis()
    for row in _blocks_rows(members, basis, n):
        sub.insert(row)
    return sub


def _check_ambient(omega: Filter, basis: SuperBasis) -> None:
    if omega.ambient is not None and omega.ambient != (basis.k, basis.l):
        raise ValueError(
            f"filter ambient {omega.ambient} differs from the basis ({basis.k}, {basis.l})"
        )


def _blocks_rows(shapes: Iterable[Partition], basis: SuperBasis, n: int) -> list[dict]:
    """The echelon rows of the ``module_W`` blocks of the given size-``n``
    shapes, block after block."""
    return [row for lam in shapes for row in module_W(lam, basis, n).rows()]


def _column_index(rows: Iterable[dict]) -> dict[Word, list[tuple[int, int]]]:
    """The rows by column: ``word -> [(row number, coefficient)]``, one
    entry per row whose support holds the word."""
    columns: dict = {}
    for r, row in enumerate(rows):
        for w, a in row.items():
            columns.setdefault(w, []).append((r, a))
    return columns


def check_ideal(omega_set: Iterable, basis: SuperBasis, n_max: int) -> bool:
    """Decide whether the blocks of the given shapes form a two-sided ideal.

    For each degree ``n < n_max`` and each row ``v`` of a block of a
    listed shape of size ``n``, ``z (x) v`` must land in the degree
    ``n+1`` slice ``U`` spanned by the listed shapes, for every
    generator ``z``.  That slice is tested from the quotient side: a
    vector lies in it iff it is orthogonal to every block of an unlisted
    shape (see :func:`evaluate_identity`), and the rows of those blocks
    are indexed by column once per degree.  The input need not be upward
    closed; that is the point of the check.

    *One side suffices.*  The reversal ``w0`` of the ``n+1`` positions
    lies in ``S_(n+1)``, so it keeps ``U``, a sum of isotypic blocks.
    For a letter ``z`` of parity ``p`` and a word ``w`` with ``o`` odd
    letters, ``(z w) * w0 = (-1)^(p o) (w * w0') z``, with ``w0'`` the
    reversal of ``n`` positions, so ``(z (x) v) * w0 = +-(v * w0') (x)
    z`` for a vector ``v`` of one letter content, the sign fixed by that
    content.  The action keeps letter content, so a block ``W_lam`` is
    the sum of its letter-content parts, and ``v -> v * w0'`` maps each
    part onto itself.  Hence if ``z (x) v`` lies in ``U`` for every
    ``v`` in ``W_lam``, so does ``v (x) z``, and the converse holds the
    same way; by linearity the rows of the block decide both.  The
    tests keep the two-sided span check as the reference.
    """
    n_max = _check_cap(basis, n_max, "n_max")
    members = {check_partition(m) for m in omega_set}
    for n in range(n_max):
        sources = _blocks_rows([lam for lam in members if sum(lam) == n], basis, n)
        if not sources:
            continue
        get = _column_index(
            _blocks_rows(
                [lam for lam in enumerate_partitions(n + 1) if lam not in members],
                basis,
                n + 1,
            )
        ).get
        for row in sources:
            for z in basis.letters:
                sums: dict = {}
                for w, c in row.items():
                    for r, a in get((z,) + w, ()):
                        sums[r] = sums.get(r, 0) + c * a
                if any(sums.values()):
                    return False
    return True


def generated_ideal(
    relations: Iterable[dict], basis: SuperBasis, n: int
) -> EchelonBasis:
    """Degree-``n`` slice of the two-sided ideal spanned by degree-2 relations."""
    n = _check_cap(basis, n)
    rels = []
    for rel in relations:
        rel = intify(rel)
        if any(len(w) != 2 for w in rel):
            raise ValueError("relations must be homogeneous of degree 2")
        for w in rel:
            _check_word(w, basis)
        rels.append(rel)
    sub = EchelonBasis()
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
    """``sum_sigma alpha_sigma x_{sigma(1)} ... x_{sigma(d)}`` with exact coefficients.

    ``coeffs`` is a read-only mapping, so the sign table built from it on
    first use (:meth:`sign_table`) stays valid for the object's life.
    """

    __slots__ = ("degree", "_coeffs", "_signs")

    def __init__(self, degree: int, coeffs: Mapping):
        self.degree = check_size(degree, "degree")
        _check_perms(coeffs, self.degree)
        self._coeffs = MappingProxyType({tuple(s): c for s, c in coeffs.items() if c})
        self._signs: Optional[SignTable] = None

    @property
    def coeffs(self) -> Mapping[Perm, object]:
        """The nonzero coefficients by permutation (read-only)."""
        return self._coeffs

    def sign_table(self) -> SignTable:
        """The terms' :class:`SignTable`, built on the first call.

        The coefficients are scaled to integers by ``intify``
        (identity-equivalent), and term ``t`` is the ``t``-th of them.
        The table lays the variables in byte lanes
        (:func:`_inversion_columns`), so a polynomial of more than 255
        variables raises :class:`CapExceeded`.
        """
        if self.degree > 255:
            raise CapExceeded(
                f"degree {self.degree} exceeds the sign table's limit of 255 variables"
            )
        if self._signs is None:
            scaled = intify(self.coeffs)
            self._signs = SignTable(
                sum(scaled.values()),
                _coefficient_slices(list(scaled.values())),
                _inversion_columns(list(scaled), self.degree),
            )
        return self._signs

    def __repr__(self):
        return f"MultilinearPoly(degree={self.degree}, terms={len(self.coeffs)})"


class SignTable(NamedTuple):
    """A polynomial's terms as bit columns, for sums of signed coefficients.

    Bit ``t`` of every mask stands for the term ``t``.  ``total`` is the
    coefficient sum, ``slices`` the :func:`_coefficient_slices` of the
    coefficients, and ``columns[(a, b)]``, for variables ``a < b``, marks
    the terms that put ``x_b`` before ``x_a`` (:func:`_inversion_columns`).
    """

    total: int
    slices: list[tuple[int, int]]
    columns: dict[tuple[int, int], int]

    def signed_sum(self, flips: int) -> int:
        """``sum_t c_t * (-1)^bit_t(flips)``: the total minus twice the
        coefficients under ``flips``, one ``bit_count`` per slice."""
        return self.total - 2 * sum(w * (mask & flips).bit_count() for w, mask in self.slices)


# Free polynomials in noncommuting variables: word over 0-based variable
# ids -> coefficient.  Only used to build multilinear identities.


def free_var(i: int) -> dict:
    return {(i,): 1}


def free_mul(a: dict, b: dict) -> dict:
    return add_terms(
        {}, ((wa + wb, ca * cb) for wa, ca in a.items() for wb, cb in b.items())
    )


def free_commutator(a: dict, b: dict) -> dict:
    return add_terms(free_mul(a, b), ((w, -c) for w, c in free_mul(b, a).items()))


def multilinear_from_free(poly: dict, d: int) -> MultilinearPoly:
    """Read an already multilinear free polynomial in the ``d`` variables
    ``0..d-1``; :class:`MultilinearPoly` checks each term."""
    return MultilinearPoly(d, {tuple(x + 1 for x in word): c for word, c in poly.items()})


def multilinearize(poly: dict) -> MultilinearPoly:
    """Full polarization of a homogeneous free polynomial.

    Each variable of multidegree ``m`` is replaced by a block of ``m``
    fresh slots, summing over every order in which the slots can occupy
    the variable's positions.  The result vanishes on an algebra exactly
    when the original does (characteristic zero).

    The orders are the permutations of the slots preserving each block,
    listed once as the carriers of ``(1, ..., d)`` (:func:`_carriers`).
    A word puts the ``j``-th slot of each variable's block at that
    variable's ``j``-th position, and each order relabels those slots.
    """
    if not poly:
        raise ValueError("cannot multilinearize the zero polynomial")
    words = list(poly)
    ref = Counter(words[0])
    for w in words[1:]:
        if Counter(w) != ref:
            raise ValueError("polynomial is not multihomogeneous")
    variables = sorted(ref)
    ends = list(accumulate((ref[v] for v in variables), initial=0))
    d = ends[-1]
    blocks = [range(a + 1, b + 1) for a, b in zip(ends, ends[1:])]
    orders = list(_carriers(tuple(range(1, d + 1)), blocks))
    coeffs: dict = {}
    for word, c in poly.items():
        slots = {v: iter(block) for v, block in zip(variables, blocks)}
        relabel = _permuter([next(slots[x]) for x in word])
        add_terms(coeffs, ((relabel(p), c) for p in orders))
    return MultilinearPoly(d, coeffs)


def standard_poly(d: int) -> MultilinearPoly:
    """The alternating sum over all orders of ``d`` distinct variables.

    Each sign is the parity of the term's Lehmer code: ``permutations``
    runs in lex order, and so do the codes, digit ``i`` (0-based) in
    ``0..d-1-i``, and the digits sum to the inversion count.
    """
    codes = product(*[range(d - i) for i in range(d)])
    return MultilinearPoly(
        d,
        {p: -1 if sum(code) & 1 else 1 for p, code in zip(permutations(range(1, d + 1)), codes)},
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
    s3 = {tuple(x - 1 for x in p): c for p, c in standard_poly(3).coeffs.items()}
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

    The rows of the non-member blocks are indexed by column once per
    call (:func:`_column_index`).  A value's terms are then added into
    one sum per row, each term's word touching only the rows that hold
    it, so the value is never built and no row it misses is read.

    The tuples whose lengths form one composition of ``n`` are exactly
    the splittings of the words of length ``n`` at the composition's
    cuts.  So each term is compiled once per composition into one
    ``itemgetter`` that reads its value straight off the concatenated
    word, and the loop runs over ``basis.words(n)``.
    """
    _check_ambient(omega, basis)
    n = _check_cap(basis, n)
    get = _column_index(
        _blocks_rows([lam for lam in enumerate_partitions(n) if not omega.member(lam)], basis, n)
    ).get
    terms = intify(g.coeffs).items()
    for comp in _compositions(n, g.degree):
        ends = list(accumulate(comp, initial=0))
        # The term's value at the composition's tuple, read from the
        # concatenated word: the positions of x_sigma(1), x_sigma(2), ...
        compiled = [
            (_permuter([p for s in sigma for p in range(ends[s - 1] + 1, ends[s] + 1)]), c)
            for sigma, c in terms
        ]
        for word in basis.words(n):
            sums: dict = {}
            for permuted, c in compiled:
                for r, a in get(permuted(word), ()):
                    sums[r] = sums.get(r, 0) + c * a
            if any(sums.values()):
                return False
    return True


def is_identity_EE(g: MultilinearPoly) -> bool:
    """Decide whether ``g`` is an identity of the square of the Grassmann algebra.

    The criterion is the vanishing of
    ``B(I1, I2) = sum_sigma alpha_sigma f_{I1}(sigma) f_{I2}(sigma)`` for
    every pair of subsets ``I1, I2`` of the variable positions.  ``B`` is
    bilinear in ``f_{I1}`` and ``f_{I2}``, and every ``f_I`` of odd size
    is a signed sum of ``f_J`` of even size (Lemma 1 of
    :func:`_even_subset_parities`), so it is enough to decide the pairs
    of even subsets: 2,016 pairs instead of 7,050 distinct pair sets at
    degree 7.  Every such pair is decided,
    so either verdict is a proof.

    The product ``f_{I1} f_{I2}`` is ``-1`` exactly on the terms whose
    permutation inverts an odd number of the value pairs in
    ``P(I1) ^ P(I2)``, where ``P(I)`` is the set of pairs inside ``I``.
    With that set of terms as a bit mask ``par``, the sum is the
    coefficient sum minus twice the coefficients of ``par``, read off
    ``g``'s :class:`SignTable` (:meth:`SignTable.signed_sum`).
    Distinct pairs of even subsets have distinct pair sets
    ``P(I1) ^ P(I2)`` at every degree up to the cap (tested), so no pair
    repeats the work of another.
    """
    d = g.degree
    if d > EE_DEGREE_CAP:
        raise CapExceeded(f"degree {d} exceeds cap {EE_DEGREE_CAP}")
    signs = g.sign_table()
    # I1 == I2 gives the plain coefficient sum; with it zero, every other
    # pair vanishes iff the coefficients of the terms in ``par`` cancel
    # (the inlined half of :meth:`SignTable.signed_sum`).
    if signs.total:
        return False
    slices = signs.slices
    parities = list(_even_subset_parities(signs.columns, d).values())
    for i, par1 in enumerate(parities):
        for par2 in parities[i + 1 :]:
            par = par1 ^ par2
            if sum(w * (mask & par).bit_count() for w, mask in slices):
                return False
    return True


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_LANES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(flags: Sequence[bool]) -> int:
    """The int whose bit ``t`` is ``flags[t]``."""
    return int(bytes(flags[::-1]).translate(_BIT_DIGITS) or b"0", 2)


def _coefficient_slices(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """``(weight, mask)`` pairs with ``sum w * bit_t(mask) = coeffs[t]``.

    One mask per sign and binary digit of ``|c|``, so their number grows
    with the size of the coefficients, not with how many distinct ones
    there are.
    """
    out = []
    positive = [c if c > 0 else 0 for c in coeffs]
    negative = [-c if c < 0 else 0 for c in coeffs]
    for sign, mags in ((1, positive), (-1, negative)):
        for j in range(max(mags, default=0).bit_length()):
            out.append((sign << j, _bits([m >> j & 1 for m in mags])))
    return out


def _even_subset_parities(
    columns: Mapping[tuple[int, int], int], d: int
) -> dict[tuple[int, ...], int]:
    """``f_I`` as bits, for each subset ``I`` of ``1..d`` of even size.

    ``f_I(sigma)`` is ``-1`` to the number of value pairs ``a < b``
    inside ``I`` that ``sigma`` inverts, i.e. places ``b`` before ``a``.
    ``columns`` holds one big-int column per value pair, marking the
    permutations that invert it (:func:`_inversion_columns`), and the
    parity of ``I`` is the XOR of the columns of its pairs.  Keys are
    the subsets ``I`` as increasing tuples, ``()`` included; values have
    bit ``t`` set when ``f_I`` is ``-1`` at the ``t``-th permutation.

    The odd subsets are left out because they add nothing to the span
    ``V`` of the ``f_I``.  *Lemma 1:* for ``I = {i_1 < ... < i_r}`` with
    ``r`` odd, ``f_I = sum_j (-1)^(j-1) f_{I - i_j}``.  Let ``p_j`` be
    the place of ``i_j`` in ``sigma``'s pattern on ``I``.  Dropping
    ``i_j`` removes the inversions it takes part in, which are
    ``p_j - j`` mod 2, so the right side is
    ``f_I(sigma) sum_j (-1)^(p_j - 1)``; the ``p_j`` run over ``1..r``,
    and that sum is 1 for odd ``r``.
    """
    return {
        sub: reduce(xor, (columns[q] for q in combinations(sub, 2)), 0)
        for m in range(0, d + 1, 2)
        for sub in combinations(range(1, d + 1), m)
    }


def _inversion_columns(perms: Sequence[Perm], d: int) -> dict[tuple[int, int], int]:
    """One big-int column per value pair ``a < b``: bit ``t`` is set when
    ``perms[t]`` inverts the pair, i.e. places ``b`` before ``a``.

    The columns are built from position bit planes: bit ``t`` of
    ``place[v - 1][p]`` is set when ``perms[t]`` puts the value ``v`` at
    position ``p``.  A plane is one ``bytes.translate`` of the values at
    position ``p`` (a slice of the permutations laid end to end, so
    ``d`` must stay below 256, which :meth:`MultilinearPoly.sign_table`
    checks) and one ``int(..., 2)``.  ``sigma``
    inverts ``a < b`` iff ``b`` sits at some position before ``a``'s,
    so the column of ``(a, b)`` is the OR over positions ``q`` of
    ``place[a - 1][q]`` AND the OR of ``place[b - 1][p]`` for ``p < q``.
    """
    # Reversed, so that perms[t] lands on bit t of int(..., 2).
    flat = bytes(chain.from_iterable(perms))[::-1]
    at_position = [flat[d - 1 - p :: d] for p in range(d)]
    place = []
    for v in range(1, d + 1):
        digits = b"0" * v + b"1" + b"0" * (255 - v)
        place.append([int(col.translate(digits) or b"0", 2) for col in at_position])
    # earlier[v - 1][q]: perms placing v at some position before q.
    earlier = [list(accumulate(planes[:-1], or_, initial=0)) for planes in place]
    return {
        (a, b): reduce(or_, map(and_, place[a - 1], earlier[b - 1]), 0)
        for a, b in combinations(range(1, d + 1), 2)
    }


def ee_identity_kernel_dim(d: int) -> int:
    """Dimension of the space of degree-``d`` multilinear identities.

    Rank-nullity of the subset-pair constraint matrix over the
    rationals, whose row for ``(I1, I2)`` is ``f_{I1} * f_{I2}`` over all
    of ``S_d``.  The rows are bilinear in the ``f_I``, so they span
    ``R = V * V`` for ``V`` the span of the ``f_I``, which the even
    subsets alone span (Lemma 1 of :func:`_even_subset_parities`).

    ``R`` is ranked one block at a time.  The group ``G`` of
    :func:`_ee_symmetries` (the swaps of the values ``2i-1, 2i`` and the
    reversal of positions, ``G = (Z/2)^(m+1)`` with ``m = d // 2``)
    multiplies functions on ``S_d`` pointwise and sends every ``f_I`` to
    some ``+-f_J``: a relabeling gives ``f_I(pi o sigma) =
    +-f_{pi^-1 I}(sigma)``, the reversal ``f_I(sigma w0) =
    (-1)^C(|I|,2) f_I(sigma)``.  So ``V`` is the direct sum of its
    eigenspaces ``V_chi`` over the characters of ``G``, and ``R`` the
    direct sum over ``theta`` of the spans ``R_theta`` of the products
    ``V_chi * V_psi`` with ``chi psi = theta`` (Maschke's theorem for an
    abelian group).  An eigenvector is fixed by its values at one word
    per ``G``-orbit, so each ``R_theta`` is ranked on those columns only.

    Each orbit is listed in group-element order (bit ``j`` of the index
    applies generator ``j``), so the Walsh--Hadamard transform ``sum_g
    chi(g) f_I(g sigma_o)`` of a sign row over an orbit gives its
    projection onto every ``V_chi`` at the orbit's first word.  An orbit
    with a nontrivial stabiliser lists its words more than once, and the
    characters that are not trivial on the stabiliser get 0 there, as
    they must.  The transform is read off counts of ``-1`` signs held in
    one byte lane per orbit: with ``count_o`` of them over ``G`` and
    ``kept_o`` over the kernel of ``chi``, it is ``|G| [chi = 1] +
    2 count_o - 4 kept_o``.  So each character costs one sum of lane
    ints, and a transform that is 0 at every orbit is dropped by one
    comparison of ints, before its row is built.  A swap sends
    ``f_I`` to ``+-f_J`` with ``J`` the swapped subset, whose
    projections are those of ``f_I`` up to sign, so ``V_chi`` is spanned
    by the nonzero transforms of one even subset per swap orbit: the
    subsets in which no pair ``{2i-1, 2i}`` holds ``2i`` alone (14 at
    ``d = 6``, with 32 nonzero rows in all).  The rank of the products
    does not need those rows to be independent.

    *Lemma 2:* relabeling the values by a permutation ``pi`` of the pairs
    ``{2i-1, 2i}`` commutes with the reversal, sends each ``f_I`` to some
    ``+-f_J`` and conjugates swap ``i`` to swap ``pi(i)``.  So it maps
    ``R_theta`` onto ``R_{theta o pi}``, and the rank of ``R_theta``
    depends only on the number ``w`` of swap bits of ``theta`` and on its
    reversal bit.  One ``theta`` per ``(w, reversal bit)`` is ranked and
    counted ``C(m, w)`` times: ``2(m+1)`` dense ranks instead of
    ``2^(m+1)``, 8 instead of 16 at ``d = 6``.

    *Lemma 3:* let ``pi`` swap two pairs whose bits in ``theta`` agree
    (:func:`_ee_class_ranks` picks them), so ``theta o pi = theta`` and
    ``T: h -> h o pi`` maps ``R_theta`` onto itself.  ``T`` is an
    involution, so ``R_theta`` is the direct sum of its images under
    ``1 + T`` and ``1 - T``, and its rank is the sum of theirs.  On the
    columns ``T`` is a signed permutation: if ``pi o sigma_o = g
    sigma_o2`` then column ``o`` of ``h o pi`` is ``theta(g)`` times
    column ``o2`` of ``h``, with ``o2`` and ``g`` read off the first
    occurrence of ``pi o sigma_o`` in the orbit listing.  (A column whose
    stabiliser ``theta`` does not fix is 0 in every row, whatever ``g``
    is taken.)  The two images are ranked on one column per couple
    ``{o, o2}``, ``h[o] +- theta(g) h[o2]``, and the fixed columns whose
    sign matches: about half the columns each, 27 + 21 of 48 at ``d =
    6``.  ``T`` maps ``V_chi`` onto ``V_chi'``, ``'`` swapping the two
    bits, so the images of ``V_chi' * V_psi'`` are those of ``V_chi *
    V_psi`` up to sign, and one ``(chi, psi)`` per couple is multiplied
    out.  A ``theta`` with no two equal swap bits (``d <= 3``, or ``w =
    1`` at ``d = 4, 5``) takes ``pi`` the identity: the ``1 - T`` image
    is 0 and the ``1 + T`` image is ``R_theta``.

    For ``1 <= d <= 7``, and at ``d = 8`` (34,132, an earlier rank), the
    value is ``d! - c_d`` with ``c_d = C(2d, d)/2 - 2^d + d + 1``: a
    candidate codimension sequence of E⊗E, fitted, not proven.
    """
    d = check_size(d, "d")
    if d > KERNEL_DEGREE_CAP:
        raise CapExceeded(f"degree {d} exceeds cap {KERNEL_DEGREE_CAP}")
    m = d // 2
    ranks = _ee_class_ranks(d)
    return factorial(d) - sum(
        comb(m, (theta & ((1 << m) - 1)).bit_count()) * rank for theta, rank in ranks.items()
    )


def _ee_class_ranks(d: int) -> dict[int, int]:
    """The rank of ``R_theta`` for one character ``theta`` per class of
    :func:`ee_identity_kernel_dim` (Lemma 2), keyed by ``theta``: the
    first ``w`` swap bits set for each ``w <= d // 2``, with and without
    the reversal bit.  Each is ranked as two blocks (Lemma 3)."""
    gens = _ee_symmetries(d)
    size = 1 << len(gens)
    # first[sigma]: the index of sigma's first occurrence in ``words``.
    words: list[Perm] = []
    first: dict[Perm, int] = {}
    for sigma in permutations(range(1, d + 1)):
        if sigma not in first:
            orbit = [sigma]
            for gen in gens:
                orbit += [gen(w) for w in orbit]
            for i, w in enumerate(orbit, len(words)):
                first.setdefault(w, i)
            words += orbit
    n = len(words)
    m = d // 2
    orbits = n // size
    ones = int.from_bytes(b"\x01" * orbits, "little")
    kernels = [[g for g in range(size) if not (chi & g).bit_count() & 1] for chi in range(size)]
    rows: list[list[list[int]]] = [[] for _ in range(size)]
    for sub, par in _even_subset_parities(_inversion_columns(words, d), d).items():
        if any(2 * i in sub and 2 * i - 1 not in sub for i in range(1, m + 1)):
            continue
        bits = format(par, f"0{n}b")[::-1].encode().translate(_LANES)
        # Byte o of plane g is 1 when f_I is -1 at the g-th word of orbit o.
        # No lane below exceeds 4 |G| (64 at d = 7), so none carries.
        planes = [int.from_bytes(bits[g::size], "little") for g in range(size)]
        count = sum(planes)
        doubled = [2 * c for c in count.to_bytes(orbits, "little")]
        for chi, kernel in enumerate(kernels):
            base = size if chi == 0 else 0
            kept = sum(planes[g] for g in kernel)
            if 4 * kept != 2 * count + base * ones:
                kept_bytes = kept.to_bytes(orbits, "little")
                rows[chi].append([base + c - 4 * k for c, k in zip(doubled, kept_bytes)])
    # (o2, g) with pi o sigma_o = g sigma_o2, for each orbit o, by swap.
    moves: dict[tuple[int, int], list[tuple[int, int]]] = {}
    ranks = {}
    for w, reversal in product(range(m + 1), (0, 1)):
        theta = (1 << w) - 1 | reversal << m
        # pi swaps the pairs of swap bits a and b, where theta agrees;
        # with no such bits a == b and pi is the identity.
        a, b = (0, 1) if w >= 2 else (m - 2, m - 1) if w <= m - 2 else (0, 0)
        if (a, b) not in moves:
            va, vb = 2 * a + 1, 2 * b + 1
            pi = {va: vb, va + 1: vb + 1, vb: va, vb + 1: va + 1}
            moves[a, b] = [
                divmod(first[tuple(pi.get(v, v) for v in words[o])], size)
                for o in range(0, n, size)
            ]
        couples = [
            (o, o2, -1 if (theta & g).bit_count() & 1 else 1)
            for o, (o2, g) in enumerate(moves[a, b])
            if o <= o2
        ]
        plus = [(o, o2, s) for o, o2, s in couples if o < o2 or s > 0]
        minus = [(o, o2, -s) for o, o2, s in couples if o < o2 or s < 0]
        flip = 1 << a | 1 << b
        products = []
        for chi in range(size):
            psi = chi ^ theta
            if psi < chi:
                continue
            # V_chi * V_psi and its image under pi project alike.
            chi2, psi2 = (x ^ flip if (x >> a ^ x >> b) & 1 else x for x in (chi, psi))
            if (chi, psi) > (min(chi2, psi2), max(chi2, psi2)):
                continue
            for i, u in enumerate(rows[chi]):
                for v in rows[psi][i:] if psi == chi else rows[psi]:
                    products.append(list(map(mul, u, v)))
        ranks[theta] = sum(
            dense_rank([[p[o] + s * p[o2] for o, o2, s in cols] for p in products])
            for cols in (plus, minus)
        )
    return ranks


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
        swap = list(range(d + 1))
        swap[2 * i - 1], swap[2 * i] = 2 * i, 2 * i - 1
        gens.append(lambda sigma, swap=swap: tuple([swap[v] for v in sigma]))
    gens.append(lambda sigma: sigma[::-1])
    return gens


def check_annihilation(
    g: MultilinearPoly, monomials: Sequence[Word], basis: SuperBasis
) -> bool:
    """True iff ``g(monomials)`` is killed by both total symmetrizers.

    The value, of total degree ``n``, must vanish under the full and the
    signed sums ``S+``, ``S-`` over ``S_n``: then it has no component in
    the single-row or single-column blocks.  Each word ``w`` of the value
    rearranges ``w0``, the monomials concatenated: ``w = f_J(p) * w0 * p``
    for the ``p`` with ``w[i] = w0[p(i)]`` keeping equal letters in order.
    As ``p * S+ = S+`` and ``p * S- = sign(p) * S-``, ``value * S+`` is
    ``sum value[w] * f_J(p)`` times ``w0 * S+``, which is 0 iff ``w0``
    repeats an odd letter, and ``value * S-`` is ``sum value[w] * sign(p)
    * f_J(p)`` times ``w0 * S-``, 0 iff ``w0`` repeats an even letter.
    ``p`` inverts the pairs of distinct letters that ``w`` orders unlike
    ``w0``, and a pair of equal odd letters counts in both ``sign(p)``
    and ``f_J(p)``; so up to one sign fixed by ``w0``, the factors are
    the parity of the strict inversions among ``w``'s odd letters, and
    in the signed sum also among all of ``w``'s letters.

    Both sums are read off ``g``'s :class:`SignTable`; no value is
    built.  The term ``sigma`` concatenates the monomials in its order,
    and it puts monomial ``j`` before monomial ``i < j`` exactly when
    its bit is set in column ``(i, j)``.  The strict inversions of its
    word are those inside each monomial, which are ``w0``'s, plus those
    between each pair of monomials.  Each unequal letter pair between
    ``i`` and ``j`` is inverted in exactly one of their two orders, so
    putting ``j`` first changes the parity of the inversions between
    them by the number of unequal letter pairs.  So, up to the sign of
    ``w0``, a term's factor in the full sum is ``-1`` to the number of
    its inverted monomial pairs with an odd count of unequal odd-letter
    pairs, and in the signed sum to those with an odd count of unequal
    pairs plus unequal odd-letter pairs.  Each sum is the coefficient
    total minus twice the coefficients under the XOR of those columns
    (:meth:`SignTable.signed_sum`).  No twisted action is made, and the
    work is one table per polynomial and the letter pairs of the
    ``C(d, 2)`` monomial pairs per call, so a value of any total degree
    is decided.  A ``w0`` that repeats both an odd and an even letter
    is killed by both sums, and is decided before the table is read.
    """
    words = [tuple(m) for m in monomials]
    if len(words) != g.degree:
        raise ValueError(f"need {g.degree} monomials, got {len(words)}")
    if not all(words):
        raise ValueError("monomials must be nonempty words")
    w0 = _check_word(sum(words, ()), basis)
    k = basis.k
    repeats = [z for z, m in Counter(w0).items() if m > 1]
    odd_repeat = any(z > k for z in repeats)
    even_repeat = any(z <= k for z in repeats)
    if odd_repeat and even_repeat:
        return True
    signs = g.sign_table()
    full_flips = signed_flips = 0
    for (i, j), column in signs.columns.items():
        unequal = [(x, y) for x in words[i - 1] for y in words[j - 1] if x != y]
        odd = sum(x > k and y > k for x, y in unequal)
        if odd & 1:
            full_flips ^= column
        if (len(unequal) + odd) & 1:
            signed_flips ^= column
    full_killed = odd_repeat or not signs.signed_sum(full_flips)
    return full_killed and (even_repeat or not signs.signed_sum(signed_flips))

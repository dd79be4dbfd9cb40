"""Upward-closed sets of partitions presented by minimal generators.

A :class:`Filter` is the set of all shapes containing at least one
generator.  Generators are normalized to the antichain of
containment-minimal elements, so equal filters compare equal.  With an
``ambient=(k, l)`` the ``(k+1) x (l+1)`` rectangle is adjoined as a free
generator: every shape containing it indexes a zero block of the tensor
power, so the quotient algebra is unchanged.  A filter is an immutable
named tuple ``(generators, ambient)``, normalized on construction, and
:meth:`Filter._require_ambient` is the one check that a graded operation
has an ambient to work in.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional

from .partitions import (
    Partition,
    check_alphabet,
    check_partition,
    check_size,
    contains,
    enumerate_avoiding,
)


def _minimal_antichain(gens: Iterable[Partition]) -> tuple[Partition, ...]:
    ordered = sorted(set(gens), key=lambda m: (sum(m), tuple(-p for p in m)))
    keep: list[Partition] = []
    for g in ordered:
        if not any(contains(h, g) for h in keep):
            keep.append(g)
    return tuple(keep)


class _FilterFields(NamedTuple):
    generators: tuple[Partition, ...]
    ambient: Optional[tuple[int, int]]


class Filter(_FilterFields):
    """An upward-closed set of partitions with optional graded ambient.

    A named tuple ``(generators, ambient)``: immutable, hashable, and
    equal by value, also to a plain tuple of its fields.  The
    constructor checks the fields and normalizes them, and so do
    :meth:`_make` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, generators: Iterable = (), ambient=None) -> "Filter":
        gens = [check_partition(g) for g in generators]
        if ambient is not None:
            try:
                k, l = ambient
            except (TypeError, ValueError):
                raise ValueError(
                    f"ambient must be a pair (k, l), got {ambient!r}"
                ) from None
            k, l = check_alphabet(k, l)
            ambient = (k, l)
            gens.append(((l + 1),) * (k + 1))
        return super().__new__(cls, _minimal_antichain(gens), ambient)

    @classmethod
    def _make(cls, iterable) -> "Filter":
        """Build through the constructor; ``_replace`` calls this, so it
        checks and normalizes too."""
        return cls(*iterable)

    def _require_ambient(self) -> tuple[int, int]:
        """The ambient ``(k, l)``; the one check every graded operation makes."""
        if self.ambient is None:
            raise ValueError("this needs a filter with an ambient: give k and l")
        return self.ambient

    # -- membership and set structure --------------------------------------

    def member(self, lam) -> bool:
        """True iff some generator is contained in ``lam``."""
        lam = check_partition(lam)
        return any(contains(g, lam) for g in self.generators)

    def union(self, other: "Filter") -> "Filter":
        """Filter generated by both generator sets; ambients must agree."""
        if self.ambient is not None and other.ambient is not None:
            if self.ambient != other.ambient:
                raise ValueError(
                    f"ambient mismatch: {self.ambient} vs {other.ambient}"
                )
        ambient = self.ambient if self.ambient is not None else other.ambient
        return Filter(self.generators + other.generators, ambient)

    def complement_at(self, n: int) -> list[Partition]:
        """Non-members of size ``n`` inside the ambient hook, canonical order.

        The ambient rectangle is one of the generators, so the walk over
        the shapes avoiding them (:func:`enumerate_avoiding`) stays inside
        the hook and yields exactly the non-members; no shape is
        membership-tested.
        """
        self._require_ambient()
        n = check_size(n, "n")
        return [lam for lam in enumerate_avoiding(self.generators, n) if sum(lam) == n]

    # -- growth invariants ---------------------------------------------------

    def hr(self) -> int:
        """Least ``a`` such that every split ``a1 + a2 = a`` admits a
        hook-rectangle ``D(a1, a2, b)`` in the filter for some ``b``.

        A generator ``mu`` sits inside ``D(a1, a2, b)`` for large ``b``
        exactly when its rows after the first ``a1`` fit under ``a2``,
        so the search is a closed-form scan; the ambient rectangle
        guarantees ``a = k + l + 1`` always works.
        """
        k, l = self._require_ambient()
        for a in range(0, k + l + 2):
            if all(self._split_ok(a1, a - a1) for a1 in range(a + 1)):
                return a
        raise AssertionError("ambient rectangle bound violated")

    def _split_ok(self, a1: int, a2: int) -> bool:
        return any(
            (mu[a1] if a1 < len(mu) else 0) <= a2 for mu in self.generators
        )

    def exp_growth(self) -> int:
        """Integer exponential growth rate of the quotient algebra."""
        a = self.hr()
        return a - 1 if a >= 1 else 0

    # -- polynomial identity criteria -----------------------------------------

    def is_pi_classical(self) -> Optional[int]:
        """Least ``c`` with the square ``(c, c)`` a member, if any.

        Only meaningful for purely even ambients; the witness ``c``
        bounds the commutator identity degree via
        :func:`classical_identity_degree`.
        """
        k, l = self._require_ambient()
        if l != 0:
            raise ValueError("classical test requires an ambient with l == 0")
        candidates = [
            max(mu[0] if mu else 0, 1)
            for mu in self.generators
            if len(mu) <= 2
        ]
        return min(candidates, default=None)

    def is_pi_super(self) -> Optional[int]:
        """Least ``b >= 2`` with ``(b,b)``, ``(b,1^(b-1))`` and ``(2^b)`` all members.

        Each of the three shapes grows with ``b``, so each condition
        holds from some ``b`` on: the least, over the generators ``g``
        it can contain at all, of the ``b`` from which it contains ``g``.

        * The square ``(b,b)`` contains ``g`` exactly when ``g`` has at
          most two rows, each of length at most ``b``: from ``b = g_1``.
        * The hook ``(b,1^(b-1))`` contains ``g`` exactly when ``g_2 <=
          1`` and ``g`` fits in its first row and column: from ``b =
          max(g_1, len g)``.
        * The column ``(2^b)`` contains ``g`` exactly when ``g_1 <= 2``
          and ``g`` has at most ``b`` rows: from ``b = len g``.

        The answer is the largest of 2 and the three thresholds, and
        ``None`` when some shape contains no generator for any ``b``.
        """
        self._require_ambient()
        square, hook, column = [], [], []
        for mu in self.generators:
            first, second = (mu + (0, 0))[:2]
            if len(mu) <= 2:
                square.append(first)
            if second <= 1:
                hook.append(max(first, len(mu)))
            if first <= 2:
                column.append(len(mu))
        if not (square and hook and column):
            return None
        return max(2, min(square), min(hook), min(column))

    def nilpotency_bound(self) -> Optional[int]:
        """Least ``N`` with the complement empty at every size ``>= N``.

        Present exactly when the filter contains a single row ``(b1)``
        and a single column ``(1^b2)`` (``hr <= 1``).  Every non-member
        then fits in the ``(b2-1) x (b1-1)`` rectangle, so one walk over
        the non-members up to that size finds the largest, and ``N`` is
        one more than its size (``0`` when every shape is a member).
        Non-members form an order ideal, so every smaller size has one
        too.
        """
        if self.hr() > 1:
            return None
        gens = self.generators
        if () in gens:
            return 0
        b1 = min(mu[0] for mu in gens if len(mu) == 1)
        b2 = min(len(mu) for mu in gens if mu[0] == 1)
        sizes = map(sum, enumerate_avoiding(gens, (b1 - 1) * (b2 - 1)))
        return max(sizes, default=-1) + 1

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        data: dict = {}
        if self.ambient is not None:
            data["k"], data["l"] = self.ambient
        data["generators"] = [list(g) for g in self.generators]
        return data

    @classmethod
    def from_json(cls, data) -> "Filter":
        """Inverse of :meth:`to_json`; a malformed document raises ``ValueError``.

        Only the document's shape is checked here; the constructor checks
        ``k``, ``l`` and the parts (:func:`check_alphabet`,
        :func:`check_partition`), so JSON ``true`` or ``2.0`` is refused
        there.
        """
        if not isinstance(data, dict):
            raise ValueError("filter file must hold a JSON object")
        if ("k" in data) != ("l" in data):
            raise ValueError("filter file must give both k and l or neither")
        ambient = (data["k"], data["l"]) if "k" in data else None
        gens = data.get("generators", [])
        if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
            raise ValueError("generators must be a list of lists of integers")
        return cls(gens, ambient)

    @classmethod
    def load(cls, path) -> "Filter":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")


def classical_identity_degree(c: int, k: int) -> int:
    """Number of commutator factors in the guaranteed identity for a
    purely even ambient of dimension ``k`` with square witness ``c``."""
    if c < 1 or k < 1:
        raise ValueError("c and k must be positive")
    return c * (k - 1) + 1

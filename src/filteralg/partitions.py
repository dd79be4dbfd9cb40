"""Integer partitions as weakly decreasing tuples.

A partition is a plain ``tuple[int, ...]`` with positive, weakly
decreasing parts; ``()`` is the empty partition.  These helpers are the
index layer for the whole package: validation of shapes and of the
alphabet sizes ``(k, l)``, diagram containment, conjugation, hook
membership, hook-rectangular shapes, enumeration and the walk over the
shapes that avoid a set of generators.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Sequence

Partition = tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate an iterable of parts and return it as a partition tuple.

    A part must be an integer in the sense of ``operator.index`` and not
    a ``bool``; anything else (``2.7``, ``"3"``) raises ``ValueError``
    rather than being truncated or parsed.
    """
    lam = _integers(tuple(parts), "parts")
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"parts must be positive integers, got {p}")
        if i and lam[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {lam}")
    return lam


def check_alphabet(k, l) -> tuple[int, int]:
    """Validate the numbers ``k`` of even and ``l`` of odd letters.

    Each must be a nonnegative integer in the sense of ``operator.index``
    and not a ``bool``, as a part must be in :func:`check_partition`;
    anything else raises ``ValueError``.
    """
    k, l = _integers((k, l), "k and l")
    if k < 0 or l < 0:
        raise ValueError(f"k and l must be nonnegative, got k={k}, l={l}")
    return k, l


def check_size(n, name: str) -> int:
    """Validate a size bound ``name``: a nonnegative integer, not a ``bool``.

    The rule is that of :func:`check_alphabet`; anything else raises a
    ``ValueError`` that names the argument.
    """
    (n,) = _integers((n,), name)
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")
    return n


def _integers(values: tuple, what: str) -> tuple[int, ...]:
    if bool in map(type, values):
        raise ValueError(f"{what} must be integers, got {values}")
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values}") from None


def parse_partition(text: str) -> Partition:
    """Parse ``'3,2,2,1'`` or the exponent shorthand ``'3,2^2,1'``.

    ``''`` and ``'()'`` denote the empty partition.  Surrounding
    parentheses are accepted and exponents are expanded on the spot, so
    the round trip through :func:`format_partition` is canonical.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s:
        return ()
    parts: list[int] = []
    for item in s.split(","):
        item = item.strip()
        if "^" in item:
            base_s, _, exp_s = item.partition("^")
            base, exp = int(base_s), int(exp_s)
            if exp < 0:
                raise ValueError(f"negative exponent in {text!r}")
            parts.extend([base] * exp)
        else:
            parts.append(int(item))
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    """Canonical comma-separated text with exponents expanded."""
    return ",".join(str(p) for p in lam)


def display_partition(lam: Partition) -> str:
    """Parenthesized form used in human-readable output, e.g. ``(3,1)``."""
    return "(" + format_partition(lam) + ")"


def contains(mu: Partition, lam: Partition) -> bool:
    """True iff the diagram of ``mu`` fits inside the diagram of ``lam``."""
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def conjugate(lam: Partition) -> Partition:
    """Transpose the diagram: column lengths become row lengths."""
    # Columns lam[i]+1 .. lam[i-1] have height i; walk the rows bottom-up.
    out: list[int] = []
    below = 0
    for i in range(len(lam), 0, -1):
        out += [i] * (lam[i - 1] - below)
        below = lam[i - 1]
    return tuple(out)


def in_hook(lam: Partition, k: int, l: int) -> bool:
    """True iff row ``k+1`` of ``lam`` has length at most ``l``."""
    return (lam[k] if k < len(lam) else 0) <= l


def hook_rectangle(a1: int, a2: int, b: int) -> Partition:
    """The shape with ``a1`` rows of length ``b`` over ``b-a1`` rows of length ``a2``.

    Both the first row and the first column have length ``b`` (when the
    corresponding count is positive), and the size is
    ``(a1+a2)*b - a1*a2``.
    """
    if b < a1 or b < a2:
        raise ValueError(f"need b >= a1 and b >= a2, got a1={a1}, a2={a2}, b={b}")
    return (b,) * a1 + ((a2,) * (b - a1) if a2 else ())


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` in reverse-lexicographic order.

    ``n`` is checked by :func:`check_size` when the call is made, not
    when the iteration first runs.
    """
    n = check_size(n, "n")
    return _descend(n, n)


def _descend(n: int, max_part: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n), 0, -1):
        for rest in _descend(n - first, first):
            yield (first,) + rest


def enumerate_avoiding(
    generators: Sequence[Partition], n_max: int
) -> Iterator[Partition]:
    """Every partition of size at most ``n_max`` containing no generator.

    The shapes come in reverse-lexicographic preorder (each prefix
    before its extensions, larger parts first), so those of one size
    appear in the order of :func:`enumerate_partitions`.  The shapes
    avoiding the generators form an order ideal, and the walk never
    leaves it: at row ``r`` the new part stays below ``g[r]`` for every
    generator ``g`` with exactly ``r+1`` rows whose first ``r`` rows
    already fit under the prefix, so no visited prefix contains a
    generator and nothing is enumerated only to be thrown away.
    ``n_max`` is checked when the walk is made, not when it first runs.
    """
    n_max = check_size(n_max, "n_max")
    gens = [tuple(g) for g in generators]
    if () in gens:
        return iter(())
    return _avoid((), n_max, n_max, gens)


def _avoid(
    prefix: Partition, budget: int, max_part: int, alive: list[Partition]
) -> Iterator[Partition]:
    # ``alive``: the generators longer than the prefix whose first rows
    # fit under it.
    yield prefix
    row = len(prefix)
    cap = min(max_part, budget)
    for g in alive:
        if len(g) == row + 1 and g[row] <= cap:
            cap = g[row] - 1
    for part in range(cap, 0, -1):
        still = [g for g in alive if len(g) > row + 1 and g[row] <= part]
        yield from _avoid(prefix + (part,), budget - part, part, still)

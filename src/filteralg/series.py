"""Graded dimension series of the quotient algebras and growth verification.

``d_n`` is the dimension of the degree-``n`` slice of the quotient:
the sum of ``w_dim`` over the non-member shapes of size ``n`` inside
the ambient hook.  :func:`series` never enumerates a member.  It takes
the thin non-members, those that do not cover the ``k x l`` corner,
from one walk over the shapes that avoid the generators and the corner
rectangle (the ambient rectangle is a generator, so the walk stays in
the hook), and prices each with ``_w_dim``.  The others it takes as
pairs of an arm and a leg, the two short partitions left when the
corner is removed, from walks over arms and legs.  This module owns the
Berele--Regev corner factorization: each pair adds its block dimension
from ``k*l`` corner hooks and the one-alphabet weights
``_w_dim(mu, m, 0)`` of its arm and leg (:func:`_add_corner_shapes`),
without building the shape.  :func:`dim_quotient` prices the
non-members of one size one by one with ``_w_dim``, which takes the
determinant of the whole shape, and is the reference for it.
Everything is exact integers; floats appear only in the final slope
statistic of a growth report.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .dims import _w_dim
from .filters import Filter
from .partitions import (
    Partition,
    check_size,
    conjugate,
    contains,
    enumerate_avoiding,
)


def dim_quotient(omega: Filter, n: int) -> int:
    """Dimension of the degree-``n`` slice of the quotient algebra."""
    k, l = omega._require_ambient()
    return sum(_w_dim(lam, k, l) for lam in omega.complement_at(n))


class DimensionSeries(NamedTuple):
    filter: Filter
    k: int
    l: int
    values: tuple[int, ...]  # d_0 .. d_n_max


def series(omega: Filter, n_max: int) -> DimensionSeries:
    """The sequence ``d_0 .. d_{n_max}``: thin shapes, then arm/leg pairs."""
    k, l = omega._require_ambient()
    n_max = check_size(n_max, "n_max")
    values = [0] * (n_max + 1)
    corner = (l,) * k if l else ()
    for lam in enumerate_avoiding(omega.generators + (corner,), n_max):
        values[sum(lam)] += _w_dim(lam, k, l)
    if n_max >= k * l:
        _add_corner_shapes(values, omega.generators, k, l)
    return DimensionSeries(filter=omega, k=k, l=l, values=tuple(values))


CornerSide = tuple[int, int, tuple[int, ...]]


def _corner_side(mu: Partition, m: int) -> CornerSide:
    """What :func:`_add_corner_shapes` needs of an arm (``m = k``) or a leg (``m = l``).

    That is ``|mu|``, ``w(mu, m, 0) = f_mu s_mu(1^m)`` and the offsets
    ``mu_i + m - 1 - i`` for ``i < m``, ``mu`` padded with zeros; ``mu``
    must have at most ``m`` parts.
    """
    padded = mu + (0,) * (m - len(mu))
    offsets = tuple(p + m - 1 - i for i, p in enumerate(padded))
    return sum(mu), _w_dim(mu, m, 0), offsets


def _arm(lam: Partition, k: int, l: int) -> Partition:
    """The first ``k`` rows of ``lam`` less ``l`` cells each."""
    return tuple(p - l for p in lam[:k] if p > l)


def _add_corner_shapes(
    values: list[int], gens: tuple[Partition, ...], k: int, l: int
) -> None:
    """Add the non-members that cover the ``k x l`` corner to ``values``.

    Such a shape ``lam`` is the pair of its arm ``alpha`` (at most ``k``
    parts) and its leg ``beta`` (at most ``l`` parts): rows ``l +
    alpha_i`` for ``i < k`` over the conjugate of ``beta``.  It contains
    ``g`` exactly when ``alpha`` contains ``g``'s arm and, if ``g`` has
    more than ``k`` rows, ``beta`` contains ``conjugate(g[k:])``.  So the
    arms are one walk, and for each arm the legs are a walk that avoids
    the legs of the long generators whose arms it contains; that leg
    list, sorted by size, is made once per set of such generators.

    The hook of an arm cell stays inside the arm and that of a leg cell
    inside the leg, so they are ``alpha``'s and ``beta``'s own hooks;
    only the corner cell ``(i, j)`` mixes, with hook ``alpha_i + beta_j
    + (k-i) + (l-j) - 1`` (0-indexed), one more than the sum of the two
    :func:`_corner_side` offsets.  With the Berele--Regev factorization
    ``s_lam(1^k|1^l) = 2^(kl) s_alpha(1^k) s_beta(1^l)`` this gives

        w = |lam|! 2^(kl) w(alpha, k, 0) w(beta, l, 0)
            / (|alpha|! |beta|! prod(corner hooks)),

    an exact division over ``k*l`` small corner factors, taken inline
    for each pair with the arm's factors hoisted.
    """
    kl = k * l
    budget = len(values) - 1 - kl
    fact = [1]
    for i in range(1, len(values)):
        fact.append(fact[-1] * i)
    arm_gens = [_arm(g, k, l) for g in gens if len(g) <= k] + [(1,) * (k + 1)]
    long_gens = [(_arm(g, k, l), conjugate(g[k:])) for g in gens if len(g) > k]
    leg_lists: dict[tuple[Partition, ...], list[CornerSide]] = {}
    for alpha in enumerate_avoiding(arm_gens, budget):
        alive = tuple(leg for arm, leg in long_gens if contains(arm, alpha))
        legs = leg_lists.get(alive)
        if legs is None:
            walk = enumerate_avoiding(alive + ((1,) * (l + 1),), budget)
            legs = leg_lists[alive] = sorted(
                (_corner_side(beta, l) for beta in walk), key=itemgetter(0)
            )
        a_size, a_w, a_offsets = _corner_side(alpha, k)
        a_hooks = [x + 1 for x in a_offsets]
        a_num = a_w << kl
        a_den = fact[a_size]
        for b_size, b_w, b_offsets in legs:
            size = a_size + b_size
            if size > budget:
                break
            corner = a_den * fact[b_size]
            for x in a_hooks:
                for y in b_offsets:
                    corner *= x + y
            values[size + kl] += fact[size + kl] * a_num * b_w // corner


class GrowthReport(NamedTuple):
    alpha: int
    slope: float | None  # log(d_N)/N, None when d_N = 0
    passed: bool
    n_max: int
    d_last: int

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "slope": self.slope, "verdict": self.verdict}


def verify_growth(omega: Filter, n_max: int) -> GrowthReport:
    """Compare the computed series against the predicted growth exponent.

    * exponent 0: the series must vanish from the nilpotency bound on;
    * exponent 1: every ``d_n`` must stay under ``(n+1)^((k+1)(l+1))``;
    * exponent >= 2: the empirical slope ``log(d_N)/N`` must match
      ``log(alpha)`` within 15 percent, which absorbs the polynomial
      factor in front of ``alpha^n`` at moderate ``N``.
    """
    k, l = omega._require_ambient()
    alpha = omega.exp_growth()
    ser = series(omega, n_max)
    d_last = ser.values[-1]
    slope = math.log(d_last) / n_max if d_last > 0 and n_max > 0 else None
    if alpha == 0:
        bound = omega.nilpotency_bound()
        passed = bound is not None and all(
            ser.values[n] == 0 for n in range(min(bound, n_max + 1), n_max + 1)
        )
    elif alpha == 1:
        cap_exp = (k + 1) * (l + 1)
        passed = all(
            ser.values[n] <= (n + 1) ** cap_exp for n in range(n_max + 1)
        )
    else:
        passed = slope is not None and abs(slope / math.log(alpha) - 1) <= 0.15
    return GrowthReport(
        alpha=alpha, slope=slope, passed=passed, n_max=n_max, d_last=d_last
    )

"""Graded dimension series of the quotient algebras and growth verification.

``d_n`` is the dimension of the degree-``n`` slice of the quotient:
the sum of ``w_dim`` over the non-member shapes of size ``n`` inside
the ambient hook.  :func:`series` takes them all from one walk over the
shapes that avoid the filter's generators (the ambient rectangle is one
of them), so it never enumerates a member and never re-validates a
shape it generated.  Everything is exact integers; floats appear only
in the final slope statistic of a growth report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dims import _w_dim
from .filters import Filter
from .partitions import enumerate_avoiding


def dim_quotient(omega: Filter, n: int) -> int:
    """Dimension of the degree-``n`` slice of the quotient algebra."""
    if omega.ambient is None:
        raise ValueError("dim_quotient requires an ambient (k, l)")
    k, l = omega.ambient
    return sum(_w_dim(lam, k, l) for lam in omega.complement_at(n))


@dataclass
class DimensionSeries:
    filter: Filter
    k: int
    l: int
    values: tuple[int, ...]  # d_0 .. d_n_max


def series(omega: Filter, n_max: int) -> DimensionSeries:
    """The sequence ``d_0 .. d_{n_max}``, from one walk over the non-members."""
    if omega.ambient is None:
        raise ValueError("series requires an ambient (k, l)")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    k, l = omega.ambient
    values = [0] * (n_max + 1)
    for lam in enumerate_avoiding(omega.generators, n_max):
        values[sum(lam)] += _w_dim(lam, k, l)
    return DimensionSeries(filter=omega, k=k, l=l, values=tuple(values))


@dataclass
class GrowthReport:
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


def _log_int(d: int) -> float:
    """Natural log of a positive integer, safe for huge values."""
    if d.bit_length() <= 900:
        return math.log(d)
    shift = d.bit_length() - 60
    return math.log(d >> shift) + shift * math.log(2)


def verify_growth(omega: Filter, n_max: int) -> GrowthReport:
    """Compare the computed series against the predicted growth exponent.

    * exponent 0: the series must vanish from the nilpotency bound on;
    * exponent 1: every ``d_n`` must stay under ``(n+1)^((k+1)(l+1))``;
    * exponent >= 2: the empirical slope ``log(d_N)/N`` must match
      ``log(alpha)`` within 15 percent, which absorbs the polynomial
      factor in front of ``alpha^n`` at moderate ``N``.
    """
    if omega.ambient is None:
        raise ValueError("verify_growth requires an ambient (k, l)")
    k, l = omega.ambient
    alpha = omega.exp_growth()
    ser = series(omega, n_max)
    d_last = ser.values[-1]
    slope = _log_int(d_last) / n_max if d_last > 0 and n_max > 0 else None
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

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CATALOG_SPECS
from filteralg.dims import f_lambda, w_dim
from filteralg.filters import Filter
from filteralg.oracle import SuperBasis, check_ideal
from filteralg.partitions import (
    enumerate_avoiding,
    enumerate_partitions,
    hook_rectangle,
    in_hook,
)
from filteralg.series import dim_quotient, series, verify_growth
from reference import partitions_by_recursion


def test_dim_quotient_examples():
    assert [dim_quotient(Filter([(1, 1)], (2, 0)), n) for n in range(6)] == [
        1,
        2,
        3,
        4,
        5,
        6,
    ]
    assert dim_quotient(Filter([(2,)], (3, 0)), 2) == 3
    assert dim_quotient(Filter([()], (2, 1)), 5) == 0
    with pytest.raises(ValueError):
        dim_quotient(Filter([(2,)]), 2)


def test_series_full_tensor_algebra():
    s = series(Filter([(2, 2)], (1, 1)), 6)
    assert s.values == (1, 2, 4, 8, 16, 32, 64)


@pytest.mark.parametrize("k, l", [(k, l) for k in (1, 2, 3) for l in (1, 2, 3)])
def test_series_of_whole_hook_is_berele_regev(k, l):
    # Excluding only the ambient rectangle keeps every shape of the hook
    # H(k,l), so sum f_lambda s_lambda(k,l) = (k+l)^n: the Berele-Regev
    # sum far beyond test_hook_decomposition_sums' n <= 7.
    values = series(Filter([(l + 1,) * (k + 1)], (k, l)), 22).values
    assert values == tuple((k + l) ** n for n in range(23))


def test_series_symmetric_times_wedge():
    # one even and one odd generator with the commuting relations: the
    # degree-n slice is spanned by t^n and t^(n-1)u
    s = series(Filter([(1, 1)], (1, 1)), 4)
    assert s.values == (1, 2, 2, 2, 2)


@pytest.mark.parametrize("k", [2, 300])
def test_series_wedge_of_plane(k):
    # The exterior and symmetric algebras of a k-dimensional V; at k = 2
    # the exterior one is (1, 2, 1, 0, 0).
    wedge = series(Filter([(2,)], (k, 0)), 4)
    assert wedge.values == tuple(math.comb(k, n) for n in range(5))
    sym = series(Filter([(1, 1)], (k, 0)), 4)
    assert sym.values == tuple(math.comb(n + k - 1, n) for n in range(5))


def test_series_of_columns_past_the_recursion_limit():
    # Only the columns (1^n) avoid (2); over (1, 2) each is the block of
    # dimension 2n + 1, and the column of 1100 rows needs no recursion.
    values = series(Filter([(2,)], (1, 2)), 1100).values
    assert values == tuple(2 * n + 1 for n in range(1101))


def test_series_against_oracle_dimensions():
    from filteralg.oracle import SuperBasis, ideal_subspace

    for gens, ambient in [([(1, 1)], (1, 1)), ([(2,)], (2, 0)), ([(2, 1)], (1, 1))]:
        f = Filter(gens, ambient)
        basis = SuperBasis(*ambient)
        vals = series(f, 4).values
        for n in range(5):
            ideal_dim = ideal_subspace(f, basis, n).dim
            assert vals[n] == basis.dim**n - ideal_dim, (gens, ambient, n)


def test_complementarity(catalog):
    for f in catalog:
        k, l = f.ambient
        for n in range(13):
            ideal = sum(
                w_dim(lam, k, l)
                for lam in enumerate_partitions(n)
                if in_hook(lam, k, l) and f.member(lam)
            )
            assert dim_quotient(f, n) + ideal == (k + l) ** n, (f, n)


def test_monotone_under_inclusion(catalog):
    for f1 in catalog:
        for f2 in catalog:
            if f1.ambient != f2.ambient:
                continue
            if all(f2.member(g) for g in f1.generators):
                for n in range(13):
                    assert dim_quotient(f1, n) >= dim_quotient(f2, n)


def test_degree_zero_value():
    assert series(Filter([(2,)], (1, 1)), 2).values[0] == 1
    # the whole lattice as filter kills everything, including degree zero
    assert series(Filter([()], (1, 1)), 3).values == (0, 0, 0, 0)


@pytest.mark.parametrize(
    "a1,a2,gens,ambient",
    [
        (1, 0, [(1, 1)], (2, 0)),
        (1, 1, [(2, 2)], (1, 1)),
        (2, 0, [(1, 1, 1)], (2, 0)),
    ],
)
def test_excluded_rectangle_bounds_series_below(a1, a2, gens, ambient):
    f = Filter(gens, ambient)
    for b in range(max(a1, a2, 1), 7):
        d = hook_rectangle(a1, a2, b)
        assert not f.member(d)
        n = sum(d)
        assert dim_quotient(f, n) >= f_lambda(d), (b, n)


def test_verify_growth_exponential():
    rep = verify_growth(Filter([(2, 2)], (1, 1)), 30)
    assert rep.alpha == 2
    assert rep.passed
    assert abs(rep.slope - math.log(2)) < 1e-12


def test_verify_growth_polynomial():
    rep = verify_growth(Filter([(1, 1)], (2, 0)), 30)
    assert rep.alpha == 1
    assert rep.passed


def test_verify_growth_nilpotent():
    rep = verify_growth(Filter([(3,), (1, 1)], (1, 0)), 10)
    assert rep.alpha == 0
    assert rep.passed
    assert rep.slope is None


def test_growth_report_json():
    rep = verify_growth(Filter([(2, 2)], (1, 1)), 20)
    data = rep.to_json()
    assert data["verdict"] == "PASS"
    assert set(data) == {"alpha", "slope", "verdict"}


# The old path, kept as the reference for the pruned walk: enumerate the
# whole ambient hook and membership-test every shape.


def _complement_by_filtering(f, n):
    k, l = f.ambient
    return [
        lam
        for lam in partitions_by_recursion(n, n)
        if in_hook(lam, k, l) and not f.member(lam)
    ]


def _nilpotency_by_scan(f):
    if f.hr() > 1:
        return None
    gens = f.generators
    if () in gens:
        return 0
    b1 = min(mu[0] for mu in gens if len(mu) == 1)
    b2 = min(len(mu) for mu in gens if mu[0] == 1)
    n = (b1 - 1) * (b2 - 1) + 1
    while n > 0 and not _complement_by_filtering(f, n - 1):
        n -= 1
    return n


def _assert_walk_matches_filtering(f, n_max):
    k, l = f.ambient
    values = series(f, n_max).values
    for n in range(n_max + 1):
        expected = _complement_by_filtering(f, n)
        assert f.complement_at(n) == expected, (f, n)
        assert values[n] == sum(w_dim(lam, k, l) for lam in expected), (f, n)
    assert f.nilpotency_bound() == _nilpotency_by_scan(f), f


small_partitions = st.lists(st.integers(1, 4), max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@given(
    gens=st.lists(small_partitions, max_size=4),
    k=st.integers(0, 3),
    l=st.integers(0, 3),
)
def test_walk_matches_hook_enumeration(gens, k, l):
    _assert_walk_matches_filtering(Filter(gens, (k, l)), 10)


@pytest.mark.parametrize("gens, ambient", CATALOG_SPECS)
def test_walk_matches_hook_enumeration_on_catalog(gens, ambient):
    _assert_walk_matches_filtering(Filter(gens, ambient), 12)


def test_negative_size_is_rejected():
    f = Filter([(2,)], (1, 1))
    with pytest.raises(ValueError, match="n must be nonnegative"):
        f.complement_at(-1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        dim_quotient(f, -1)


@pytest.mark.parametrize("bad", [True, False, 2.5, 2.0, "3", None])
def test_size_arguments_must_be_integers(bad):
    # A bool or a float is not a size, even one that int() would accept.
    f = Filter([(2,)], (1, 1))
    calls = [
        (lambda: series(f, bad), "n_max"),
        (lambda: verify_growth(f, bad), "n_max"),
        (lambda: dim_quotient(f, bad), "n"),
        (lambda: f.complement_at(bad), "n"),
        (lambda: enumerate_avoiding(f.generators, bad), "n_max"),
        (lambda: enumerate_partitions(bad), "n"),
        (lambda: check_ideal([(1, 1)], SuperBasis(1, 0), bad), "n_max"),
    ]
    for call, name in calls:
        with pytest.raises(ValueError, match=f"^{name} must be integers"):
            call()


# Generators that reach below row k, so the leg walk has work to do; the
# per-shape dim_quotient (complement_at and _w_dim) is the reference.
# In the first two, (3,2,1)'s leg and the short (2,2) decide every corner
# shape; (4,3,2,1,1)'s leg (3,1) is not its rows below k, (2,1,1).
@pytest.mark.parametrize(
    "gens, ambient, n_max",
    [
        ([(3, 2, 1), (5, 1, 1, 1)], (2, 2), 30),
        ([(2, 2), (3, 1, 1)], (2, 2), 30),
        ([(4, 3, 2, 1, 1)], (2, 2), 30),
        ([(3, 3, 3), (4, 4)], (2, 3), 20),
        ([(4, 2, 2, 1)], (3, 2), 16),
    ],
)
def test_arm_leg_sum_matches_per_shape_reference(gens, ambient, n_max):
    f = Filter(gens, ambient)
    reference = tuple(dim_quotient(f, n) for n in range(n_max + 1))
    for n in range(n_max + 1):
        assert series(f, n).values == reference[: n + 1], (f, n)


medium_partitions = st.lists(st.integers(1, 5), max_size=5).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@settings(deadline=None, max_examples=300)
@example(gens=[(3, 2, 1), (5, 1, 1, 1)], k=2, l=2, n_max=16)
@example(gens=[(5, 5, 3, 3, 1)], k=3, l=3, n_max=16)
@example(gens=[(2, 2, 2, 2, 2), (4, 3)], k=0, l=3, n_max=16)
@example(gens=[(5, 4, 4, 2, 1)], k=3, l=0, n_max=16)
@given(
    gens=st.lists(medium_partitions, max_size=4),
    k=st.integers(0, 3),
    l=st.integers(0, 3),
    n_max=st.integers(0, 16),
)
def test_arm_leg_sum_matches_per_shape_reference_random(gens, k, l, n_max):
    f = Filter(gens, (k, l))
    values = series(f, n_max).values
    assert values == tuple(dim_quotient(f, n) for n in range(n_max + 1)), f

import random
from fractions import Fraction

import pytest

from filteralg import dims
from filteralg.dims import f_lambda, hs_eval, schur_dim, w_dim
from filteralg.filters import Filter
from filteralg.lr import lr_coefficient, outer_product
from filteralg.oracle import SuperBasis
from filteralg.partitions import check_alphabet, conjugate, enumerate_partitions, in_hook
from reference import f_lambda_by_recursion, iter_super_tableaux, schur_dim_by_enumeration


def all_partitions_upto(n_max):
    return [lam for n in range(n_max + 1) for lam in enumerate_partitions(n)]


def test_f_lambda_examples():
    assert f_lambda((2, 1)) == 2
    assert f_lambda((7,)) == 1
    assert f_lambda((1,) * 7) == 1
    assert f_lambda(()) == 1
    assert sum(f_lambda(lam) ** 2 for lam in enumerate_partitions(4)) == 24


def test_non_integer_parts_rejected():
    # f_lambda((3.5, 1)) used to be f_lambda((3, 1)) == 3.
    for call in (lambda: f_lambda((3.5, 1)), lambda: w_dim((2.0,), 1, 0),
                 lambda: outer_product((2,), (True,))):
        with pytest.raises(ValueError):
            call()


def test_f_lambda_against_corner_recursion():
    for lam in all_partitions_upto(12):
        assert f_lambda(lam) == f_lambda_by_recursion(lam), lam


def test_regular_representation_identity():
    from math import factorial

    for n in range(9):
        assert sum(f_lambda(lam) ** 2 for lam in enumerate_partitions(n)) == factorial(n)


def test_schur_dim_examples():
    assert schur_dim((2, 1), 2, 0) == 2
    assert schur_dim((1, 1, 1), 2, 0) == 0
    assert schur_dim((2,), 2, 0) == 3
    assert schur_dim((2, 1), 1, 1) == 2
    assert schur_dim((), 2, 1) == 1


def test_schur_dim_of_hooks_in_minimal_superspace():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            if in_hook(lam, 1, 1):
                assert schur_dim(lam, 1, 1) == 2
                assert schur_dim_by_enumeration(lam, 1, 1) == 2


def test_schur_dim_vanishes_outside_hook():
    for lam in all_partitions_upto(8):
        for k in range(3):
            for l in range(3):
                assert (schur_dim(lam, k, l) == 0) == (not in_hook(lam, k, l))


def test_schur_dim_against_enumeration():
    for lam in all_partitions_upto(6):
        for k in range(3):
            for l in range(3):
                assert schur_dim(lam, k, l) == schur_dim_by_enumeration(lam, k, l)


@pytest.mark.parametrize(
    "lam",
    [(4, 3), (3, 3, 1), (4, 4), (3, 3, 2), (2, 2, 2, 2), (5, 1, 1, 1), (8,), (1,) * 8,
     # thin shapes with long first rows: the bounded subshape sum, and at
     # (2,3) its routing through the conjugate at (3,2)
     (7, 1), (6, 1, 1, 1), (8, 1, 1)],
)
def test_schur_dim_against_enumeration_large(lam):
    for k, l in [(2, 0), (3, 0), (0, 2), (1, 1), (2, 1), (2, 2), (2, 3), (3, 2)]:
        assert schur_dim(lam, k, l) == schur_dim_by_enumeration(lam, k, l)


def test_schur_dim_duality():
    for lam in all_partitions_upto(8):
        for k in range(4):
            for l in range(4):
                assert schur_dim(lam, k, l) == schur_dim(conjugate(lam), l, k)


def test_hook_decomposition_sums():
    for k in range(3):
        for l in range(3):
            for n in range(8):
                total = sum(
                    w_dim(lam, k, l)
                    for lam in enumerate_partitions(n)
                    if in_hook(lam, k, l)
                )
                assert total == (k + l) ** n, (k, l, n)


def test_hook_character_sum():
    for n in range(1, 17):
        assert (
            sum(f_lambda(lam) for lam in enumerate_partitions(n) if in_hook(lam, 1, 1))
            == 2 ** (n - 1)
        )


def test_w_dim_against_recursion_and_enumeration():
    # |lam| <= 9 is the first size at which every ambient up to (3,3) has
    # shapes covering its corner, which take the arm/leg/corner kernel.
    for lam in all_partitions_upto(9):
        f = f_lambda_by_recursion(lam)
        for k in range(4):
            for l in range(4):
                assert dims._w_dim(lam, k, l) == f * schur_dim_by_enumeration(lam, k, l), (lam, k, l)


def test_w_dim_blocks_sum_to_the_degree_slice():
    # The blocks decompose V^(x)n, so their dimensions over all shapes of
    # size n sum to (k+l)^n; shapes outside the hook must contribute 0.
    for n in range(15):
        shapes = list(enumerate_partitions(n))
        for k in range(4):
            for l in range(4):
                if k + l == 0:
                    continue
                assert sum(dims._w_dim(lam, k, l) for lam in shapes) == (k + l) ** n, (n, k, l)
                for lam in shapes:
                    if not in_hook(lam, k, l):
                        assert dims._w_dim(lam, k, l) == 0, (lam, k, l)


def test_w_dim_outside_hook_skips_f_lambda():
    # Row k+1 longer than l: the block is empty, and f_lambda (a product
    # over every cell) is never evaluated for it.
    def calls():
        info = dims._f_hook.cache_info()
        return info.hits + info.misses

    before = calls()
    for lam, k, l in [((40, 40, 40), 1, 2), ((9, 9, 9, 9), 2, 2), ((5, 4), 0, 3), ((3, 3), 1, 0)]:
        assert w_dim(lam, k, l) == 0
    assert calls() == before


def test_w_dim_examples():
    assert w_dim((2,), 2, 0) == 3
    assert w_dim((1, 1), 2, 0) == 1
    assert w_dim((2, 1), 1, 1) == 4
    lam = (7, 7, 7, 2, 2, 2, 2)
    assert w_dim(lam, 2, 1) == f_lambda(lam) * schur_dim(lam, 2, 1)


@pytest.mark.parametrize("k, l", [(-2, 1), (-1, 0), (0, -1), (2, -3)])
def test_negative_alphabet_sizes_rejected(k, l):
    for fn in (schur_dim, w_dim):
        with pytest.raises(ValueError):
            fn((3,), k, l)
    with pytest.raises(ValueError):
        Filter([(3,)], (k, l))
    with pytest.raises(ValueError):
        SuperBasis(k, l)


@pytest.mark.parametrize("k, l", [(2.7, 1), (2.0, 0), ("2", 0), (True, 0), (1, False), (None, 1)])
def test_non_integer_alphabet_sizes_rejected(k, l):
    # int() used to give schur_dim((2, 1), 2.7, 1) == 8, accept "2" and
    # True, and turn the ambient (2.5, 0) into (2, 0).
    with pytest.raises(ValueError):
        check_alphabet(k, l)
    for fn in (schur_dim, w_dim):
        with pytest.raises(ValueError):
            fn((2, 1), k, l)
    with pytest.raises(ValueError):
        Filter([(3,)], (k, l))
    with pytest.raises(ValueError):
        SuperBasis(k, l)


def test_alphabet_sizes_accept_index_types():
    class Two:
        def __index__(self):
            return 2

    assert check_alphabet(Two(), 0) == (2, 0)
    assert SuperBasis(Two(), 1) == SuperBasis(2, 1)
    assert Filter([(3,)], (Two(), 1)).ambient == (2, 1)
    assert schur_dim((2, 1), Two(), 1) == schur_dim((2, 1), 2, 1)


def test_hs_eval_examples():
    assert hs_eval((1,), (Fraction(1, 2),), (Fraction(1, 3),)) == Fraction(5, 6)
    assert hs_eval((2,), (2,), (3,)) == 10
    assert hs_eval((), (), ()) == 1


def test_hs_eval_at_ones_counts_tableaux():
    for lam in all_partitions_upto(6):
        for k in range(3):
            for l in range(3):
                assert hs_eval(lam, (1,) * k, (1,) * l) == schur_dim(lam, k, l)


def _weighted_tableau_sum(lam, xs, ys):
    k = len(xs)
    total = Fraction(0)
    for tab in iter_super_tableaux(lam, k, len(ys)):
        weight = Fraction(1)
        for row in tab:
            for v in row:
                weight *= xs[v - 1] if v <= k else ys[v - k - 1]
        total += weight
    return total


def test_hs_eval_against_weighted_enumeration():
    rng = random.Random(11)
    points = [
        (
            tuple(Fraction(rng.randint(-3, 5), rng.randint(1, 4)) for _ in range(2)),
            tuple(Fraction(rng.randint(-3, 5), rng.randint(1, 4)) for _ in range(2)),
        )
        for _ in range(2)
    ]
    # Zero, negative and plain-int coordinates, over more ambients.
    points += [
        ((0, Fraction(-2, 3)), (3, Fraction(1, 2))),
        ((-1,), (0, Fraction(5, 2))),
        ((2,), (-3, Fraction(-1, 4))),
        ((0, -2, Fraction(3, 4)), ()),
        ((1, Fraction(-1, 6), 5), ()),
        ((), (Fraction(2, 5), 0, -1)),
        ((), (4, -2, Fraction(-7, 3))),
    ]
    for lam in all_partitions_upto(5):
        for xs, ys in points:
            got = hs_eval(lam, xs, ys)
            assert isinstance(got, Fraction)
            assert got == _weighted_tableau_sum(lam, xs, ys), (lam, xs, ys)


def test_product_identity_small():
    rng = random.Random(3)
    points = [
        (
            tuple(Fraction(rng.randint(-4, 6), rng.randint(1, 5)) for _ in range(2)),
            tuple(Fraction(rng.randint(-4, 6), rng.randint(1, 5)) for _ in range(1)),
        )
        for _ in range(2)
    ]
    shapes = all_partitions_upto(3)
    for mu in shapes:
        for lam in shapes:
            exp = outer_product(mu, lam)
            for xs, ys in points:
                lhs = hs_eval(mu, xs, ys) * hs_eval(lam, xs, ys)
                rhs = sum(
                    (c * hs_eval(nu, xs, ys) for nu, c in exp.terms.items()),
                    Fraction(0),
                )
                assert lhs == rhs, (mu, lam, xs, ys)


def test_lr_coefficient_zero_terms_do_not_contribute():
    # spot check that the expansion in the product identity is complete:
    # adding explicit zero terms changes nothing
    xs, ys = (Fraction(2), Fraction(1, 2)), (Fraction(3),)
    mu, lam = (2, 1), (1, 1)
    lhs = hs_eval(mu, xs, ys) * hs_eval(lam, xs, ys)
    rhs = sum(
        (
            lr_coefficient(mu, lam, nu) * hs_eval(nu, xs, ys)
            for nu in enumerate_partitions(5)
        ),
        Fraction(0),
    )
    assert lhs == rhs

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and per-criterion timings.
"""

import random
import time
from fractions import Fraction
from itertools import product

from filteralg.dims import f_lambda, hs_eval, w_dim
from filteralg.filters import Filter, classical_identity_degree
from filteralg.lr import outer_product
from filteralg.oracle import (
    SuperBasis,
    br_cube,
    check_annihilation,
    check_ideal,
    commutator_product,
    ee_identity_kernel_dim,
    evaluate_identity,
    generated_ideal,
    ideal_subspace,
    is_identity_EE,
    module_W,
    popov5a,
    popov5b,
)
from filteralg.partitions import contains, enumerate_partitions, in_hook
from filteralg.series import verify_growth


def _report(name, ok, started):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, name


def all_partitions_upto(n_max):
    return [lam for n in range(n_max + 1) for lam in enumerate_partitions(n)]


def test_criterion_1_hook_decomposition():
    t0 = time.perf_counter()
    ok = True
    for k in range(3):
        for l in range(3):
            for n in range(11):
                total = sum(
                    w_dim(lam, k, l)
                    for lam in enumerate_partitions(n)
                    if in_hook(lam, k, l)
                )
                ok = ok and total == (k + l) ** n
    _report("1 hook decomposition sums", ok, t0)


def test_criterion_2_hook_character_sum():
    t0 = time.perf_counter()
    ok = all(
        sum(f_lambda(lam) for lam in enumerate_partitions(n) if in_hook(lam, 1, 1))
        == 2 ** (n - 1)
        for n in range(1, 17)
    )
    _report("2 hook character sum", ok, t0)


def test_criterion_3_product_identity():
    t0 = time.perf_counter()
    rng = random.Random(20260810)

    def point(size):
        return tuple(
            Fraction(rng.randint(-4, 6), rng.randint(1, 5)) for _ in range(size)
        )

    shapes = all_partitions_upto(4)
    ok = True
    for k in range(3):
        for l in range(3):
            points = [(point(k), point(l)) for _ in range(5)]
            for mu in shapes:
                for lam in shapes:
                    exp = outer_product(mu, lam)
                    for xs, ys in points:
                        lhs = hs_eval(mu, xs, ys) * hs_eval(lam, xs, ys)
                        rhs = sum(
                            (c * hs_eval(nu, xs, ys) for nu, c in exp.terms.items()),
                            Fraction(0),
                        )
                        ok = ok and lhs == rhs
    _report("3 product identity at rational points", ok, t0)


def test_criterion_4_oracle_matches_formulas():
    t0 = time.perf_counter()
    ok = True
    for k, l in [(2, 0), (1, 1), (2, 1)]:
        basis = SuperBasis(k, l)
        for n in range(6):
            for lam in enumerate_partitions(n):
                ok = ok and module_W(lam, basis, n).dim == w_dim(lam, k, l)
    _report("4 oracle blocks match dimension formulas", ok, t0)


def test_criterion_5_filter_iff_ideal():
    t0 = time.perf_counter()
    filter_gens = [
        [()],
        [(1,)],
        [(2,)],
        [(1, 1)],
        [(2, 1)],
        [(3,)],
        [(1, 1, 1)],
        [(2,), (1, 1)],
        [(3,), (1, 1)],
        [(2,), (1, 1, 1)],
    ]
    non_filters = [[(1, 1)], [(2,)], [(1,), (2,)]]
    ok = True
    for ambient in [(2, 0), (1, 1)]:
        basis = SuperBasis(*ambient)
        for gens in filter_gens:
            f = Filter(gens, ambient)
            members = [
                lam
                for n in range(4)
                for lam in enumerate_partitions(n)
                if f.member(lam)
            ]
            ok = ok and check_ideal(members, basis, 3)
        for bad in non_filters:
            ok = ok and not check_ideal(bad, basis, 3)
    _report("5 filter iff two-sided ideal", ok, t0)


def test_criterion_6_classical_pi_instance():
    t0 = time.perf_counter()
    f = Filter([(2, 2)], (2, 0))
    basis = SuperBasis(2, 0)
    degree = classical_identity_degree(2, 2)
    ok = degree == 3
    ok = ok and evaluate_identity(commutator_product(degree), f, basis, 6)
    ok = ok and not evaluate_identity(commutator_product(1), f, basis, 2)
    _report("6 classical identity instance", ok, t0)


def test_criterion_7_super_pi_suite():
    t0 = time.perf_counter()
    ok = ee_identity_kernel_dim(4) == 0
    ok = ok and is_identity_EE(popov5a())
    ok = ok and is_identity_EE(popov5b())
    g = br_cube()
    ok = ok and is_identity_EE(g)
    basis = SuperBasis(1, 1)
    for tup in product([(1,), (2,)], repeat=6):
        ok = ok and check_annihilation(g, tup, basis)
    _report("7 Grassmann-square identity suite", ok, t0)


def test_criterion_8_growth_table():
    t0 = time.perf_counter()
    table = [
        (Filter([(1, 1)], (2, 0)), 1),
        (Filter([(1, 1, 1)], (2, 0)), 2),
        (Filter([(2, 2)], (1, 1)), 2),
        (Filter([(3,), (1, 1)], (1, 0)), 0),
    ]
    for k in range(3):
        for l in range(3):
            table.append((Filter([((l + 1),) * (k + 1)], (k, l)), k + l))
    ok = True
    for f, expected in table:
        ok = ok and f.exp_growth() == expected
        ok = ok and verify_growth(f, 30).passed
    _report("8 growth exponents and verification", ok, t0)


def test_criterion_9_sym_wedge_reconstruction():
    t0 = time.perf_counter()
    basis = SuperBasis(2, 0)
    sym_rel = [{(1, 2): 1, (2, 1): -1}]
    wedge_rel = [{(i, j): 1, (j, i): 1} for i in (1, 2) for j in (1, 2) if i <= j]
    ok = True
    for n in range(2, 5):
        ok = ok and generated_ideal(sym_rel, basis, n) == ideal_subspace(
            Filter([(1, 1)], (2, 0)), basis, n
        )
        ok = ok and generated_ideal(wedge_rel, basis, n) == ideal_subspace(
            Filter([(2,)], (2, 0)), basis, n
        )
    _report("9 symmetric/wedge ideal reconstruction", ok, t0)


def test_criterion_10_minimization():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    shapes = all_partitions_upto(8)
    probe = all_partitions_upto(12)
    ok = True
    for _ in range(20):
        gens = rng.sample(shapes, rng.randint(1, 7))
        f = Filter(gens)
        ok = ok and Filter(f.generators).generators == f.generators
        ok = ok and all(
            not contains(a, b)
            for a in f.generators
            for b in f.generators
            if a != b
        )
        ok = ok and all(
            f.member(lam) == any(contains(g, lam) for g in gens) for lam in probe
        )
    _report("10 generator minimization", ok, t0)

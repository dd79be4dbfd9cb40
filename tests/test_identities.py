from itertools import product

import pytest

from filteralg.oracle import (
    CapExceeded,
    MultilinearPoly,
    SuperBasis,
    br_cube,
    check_annihilation,
    commutator_product,
    ee_identity_kernel_dim,
    is_identity_EE,
    is_identity_EE_sampled,
    multilinearize,
    named_poly,
    popov5a,
    popov5b,
    s3_cubed,
    standard_poly,
)

B11 = SuperBasis(1, 1)


def test_multilinearize_shapes():
    assert popov5a().degree == 5
    assert popov5b().degree == 5
    assert br_cube().degree == 6
    assert s3_cubed().degree == 9
    assert standard_poly(4).degree == 4
    assert commutator_product(3).degree == 6
    assert len(standard_poly(4).coeffs) == 24


def test_multilinearize_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        multilinearize({(0, 1): 1, (0, 0): 1})


def test_named_poly_lookup():
    assert named_poly("commutators:2").degree == 4
    assert named_poly("popov5").degree == 5
    assert named_poly("br-cube").degree == 6
    with pytest.raises(ValueError):
        named_poly("nope")


def test_is_identity_examples():
    assert is_identity_EE(popov5a())
    assert is_identity_EE(popov5b())
    assert is_identity_EE(br_cube())
    assert not is_identity_EE(standard_poly(4))
    assert not is_identity_EE(commutator_product(1))
    assert not is_identity_EE(commutator_product(2))


def test_is_identity_degree_cap():
    with pytest.raises(CapExceeded):
        is_identity_EE(s3_cubed())


def test_sampled_check():
    assert is_identity_EE_sampled(s3_cubed(), samples=40, seed=1)
    assert not is_identity_EE_sampled(standard_poly(4), samples=40, seed=1)


def test_kernel_dims():
    assert ee_identity_kernel_dim(2) == 0
    assert ee_identity_kernel_dim(3) == 0
    assert ee_identity_kernel_dim(4) == 0
    # regression constant computed once by this implementation
    assert ee_identity_kernel_dim(5) == 20
    with pytest.raises(CapExceeded):
        ee_identity_kernel_dim(7)


def test_kernel_d2_constraints_by_hand():
    # two constraints: alpha_1 + alpha_2 = 0 and alpha_1 - alpha_2 = 0
    assert not is_identity_EE(MultilinearPoly(2, {(1, 2): 1, (2, 1): -1}))
    assert not is_identity_EE(MultilinearPoly(2, {(1, 2): 1, (2, 1): 1}))


def test_annihilation_br_cube_single_letters():
    g = br_cube()
    for tup in product([(1,), (2,)], repeat=6):
        assert check_annihilation(g, tup, B11), tup


def test_annihilation_popov_mixed_monomials():
    g = popov5a()
    tuples = [
        ((1, 2), (1,), (2,), (1,), (2,)),
        ((2, 1), (2,), (1,), (1,), (1,)),
        ((1,), (1,), (2, 2), (2,), (1,)),
    ]
    for tup in tuples:
        assert check_annihilation(g, tup, B11), tup


def test_annihilation_consistency_with_identity_check():
    for g in (popov5b(), commutator_product(1)):
        holds = is_identity_EE(g)
        if holds:
            for tup in product([(1,), (2,)], repeat=g.degree):
                assert check_annihilation(g, tup, B11)


def test_s4_has_annihilation_witness():
    # the failure needs enough independent letters: four distinct even
    # generators expose it immediately
    s4 = standard_poly(4)
    basis = SuperBasis(4, 0)
    assert not check_annihilation(s4, [(1,), (2,), (3,), (4,)], basis)
    # with only one even and one odd generator every length-4 value is
    # annihilated, identity or not
    assert all(
        check_annihilation(s4, tup, B11) for tup in product([(1,), (2,)], repeat=4)
    )


def test_annihilation_input_validation():
    g = standard_poly(4)
    with pytest.raises(ValueError):
        check_annihilation(g, [(1,), (2,)], B11)
    with pytest.raises(CapExceeded):
        check_annihilation(g, [(1, 1), (1, 1), (1, 1), (1, 1)], B11)


def test_annihilation_uses_its_own_degree_cap():
    # full_symmetrizer(8) is refused, but check_annihilation honours the
    # cap it is given: a repeated odd letter kills the full sum and a
    # repeated even letter the signed one.
    word = (1, 2, 1, 2, 1, 2, 1, 2)
    assert check_annihilation(standard_poly(1), [word], B11, cap=8)
    with pytest.raises(CapExceeded):
        check_annihilation(standard_poly(1), [word], B11)

import random
from itertools import chain, combinations, permutations, product
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from filteralg import oracle
from filteralg.linalg import EchelonBasis, add_terms, dense_rank, intify
from filteralg.oracle import (
    _ee_class_ranks,
    _ee_symmetries,
    _even_subset_parities,
    _inversion_columns,
    CapExceeded,
    MultilinearPoly,
    SuperBasis,
    br_cube,
    check_annihilation,
    commutator_product,
    ee_identity_kernel_dim,
    f_I,
    free_commutator,
    free_mul,
    free_var,
    is_identity_EE,
    multilinear_from_free,
    multilinearize,
    named_poly,
    perm_sign,
    popov5a,
    popov5b,
    s3_cubed,
    standard_poly,
    star_group_algebra,
)
from reference import (
    check_annihilation_by_value,
    compose,
    ee_ranks_by_character,
    full_symmetrizer,
    multilinearize_by_listing,
    sign_symmetrizer,
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


def test_poly_coefficients_are_read_only():
    # The sign table is built from the coefficients once, so the
    # coefficients cannot change under it.
    g = commutator_product(1)
    with pytest.raises(AttributeError):
        g.coeffs = {(1, 2): 5}
    with pytest.raises(TypeError):
        g.coeffs[(1, 2)] = 5
    with pytest.raises(TypeError):
        del g.coeffs[(1, 2)]
    assert dict(g.coeffs) == {(1, 2): 1, (2, 1): -1}
    assert g.sign_table() is g.sign_table()


def test_standard_poly_signs_are_perm_signs():
    # standard_poly reads each sign off the term's Lehmer code.
    for d in range(8):
        expected = {p: perm_sign(p) for p in permutations(range(1, d + 1))}
        assert dict(standard_poly(d).coeffs) == expected


def test_poly_terms_must_be_permutations():
    # A short tuple, a repeated value and a value outside 1..d.
    for sigma in [(1, 2), (1, 2, 2), (1, 2, 4)]:
        with pytest.raises(ValueError):
            MultilinearPoly(3, {(1, 2, 3): 1, sigma: 1})


def test_multilinearize_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        multilinearize({(0, 1): 1, (0, 0): 1})


def _named_free_polys():
    """The free polynomials behind the named multilinearizations, with
    s3 signed by ``perm_sign`` rather than read off ``standard_poly``."""
    x, y = free_var(0), free_var(1)
    c = free_commutator(x, y)
    cube = free_mul(free_mul(c, c), c)
    s3 = {p: perm_sign(tuple(v + 1 for v in p)) for p in permutations(range(3))}
    return {
        "popov5a": (free_commutator(free_mul(c, c), x), popov5a),
        "br-cube": (cube, br_cube),
        "br-cube*x7": (free_mul(cube, free_var(2)), None),
        "s3cube": (free_mul(free_mul(s3, s3), s3), s3_cubed),
    }


@pytest.mark.parametrize("name", ["popov5a", "br-cube", "br-cube*x7", "s3cube"])
def test_multilinearize_matches_listing_on_named_polys(name):
    free, named = _named_free_polys()[name]
    expected = dict(multilinearize_by_listing(free).coeffs)
    assert dict(multilinearize(free).coeffs) == expected
    if named is not None:
        assert dict(named().coeffs) == expected


@st.composite
def _multihomogeneous(draw):
    """Rearrangements of one drawn letter content (variables may repeat
    and need not be 0..r-1), each with a drawn nonzero coefficient."""
    content = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    words = draw(st.lists(st.permutations(content).map(tuple), min_size=1, max_size=6))
    return {w: draw(_coefficients) for w in words}


@settings(deadline=None)
@given(_multihomogeneous())
@example({(0, 0, 1): 1})
@example({(3, 1, 3, 3): 2, (1, 3, 3, 3): -3})
def test_multilinearize_matches_listing(poly):
    g = multilinearize(poly)
    assert g.degree == len(next(iter(poly)))
    assert dict(g.coeffs) == dict(multilinearize_by_listing(poly).coeffs)


def test_multilinearize_pins_a_repeated_variable():
    assert dict(multilinearize({(0, 0, 1): 1}).coeffs) == {(1, 2, 3): 1, (2, 1, 3): 1}


def test_multilinear_from_free_checks_each_term():
    # A repeated variable and a variable outside 0..d-1.
    for word in [(0, 0, 2), (0, 1, 3)]:
        with pytest.raises(ValueError):
            multilinear_from_free({(0, 1, 2): 1, word: 1}, 3)
    # The zero polynomial is a degree-d polynomial with no terms.
    zero = multilinear_from_free({}, 3)
    assert zero.degree == 3 and dict(zero.coeffs) == {}
    lie = free_commutator(free_commutator(free_var(0), free_var(1)), free_var(2))
    assert dict(multilinear_from_free(lie, 3).coeffs) == {
        (1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 2): -1, (3, 2, 1): 1,
    }


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


def test_sampled_check():
    # The two verdicts a random-substitution spot check used to give at
    # degree 9 and 4; every subset pair is decided, so both are proofs.
    assert is_identity_EE(s3_cubed())
    assert not is_identity_EE(standard_poly(4))


def test_is_identity_degree_cap():
    # Degree 9 is decided exhaustively, so both verdicts are proofs.
    g = s3_cubed()
    # g minus twice one of its terms: a single monomial is never an
    # identity, so neither is this.
    sigma, c = next(iter(g.coeffs.items()))
    assert not is_identity_EE(MultilinearPoly(9, {**g.coeffs, sigma: -c}))
    # Swapping two opposite coefficients keeps the coefficient sum at
    # zero, so here the subset pairs decide.
    tau = next(t for t, ct in g.coeffs.items() if ct == -c)
    assert not is_identity_EE(MultilinearPoly(9, {**g.coeffs, sigma: -c, tau: c}))
    with pytest.raises(CapExceeded):
        is_identity_EE(commutator_product(5))


def _subsets(d):
    return [frozenset(s) for m in range(d + 1) for s in combinations(range(1, d + 1), m)]


def _direct_verdict(g):
    """The criterion summed term by term from ``f_I`` values: the old path."""
    items = intify(g.coeffs).items()
    fvals = [[f_I(sigma, sub) for sigma, _ in items] for sub in _subsets(g.degree)]
    for i, f1 in enumerate(fvals):
        for f2 in fvals[i:]:
            if sum(c * a * b for (_, c), a, b in zip(items, f1, f2)):
                return False
    return True


def _kernel_dim_over_all_pairs(d):
    """Rank of the rows ``f_I1 * f_I2`` of every subset pair: the old matrix."""
    perms = list(permutations(range(1, d + 1)))
    fvals = [[f_I(sigma, sub) for sigma in perms] for sub in _subsets(d)]
    rows = [[a * b for a, b in zip(f1, f2)] for i, f1 in enumerate(fvals) for f2 in fvals[i:]]
    return factorial(d) - dense_rank(rows)


def _kernel_dim_basis_products(d):
    """Rank of the products of a basis of the sign rows over all of ``S_d``.

    The sign rows are ``f_I`` of every subset ``I``, odd ones included;
    the basis is the rows that enlarge an echelon basis, and only the
    distinct products are ranked, in one block of ``d!`` columns.
    """
    perms = list(permutations(range(1, d + 1)))
    spanned, basis = EchelonBasis(), []
    for sub in _subsets(d):
        row = [f_I(sigma, sub) for sigma in perms]
        if spanned.insert(dict(enumerate(row))):
            basis.append(row)
    products = dict.fromkeys(
        tuple(x * y for x, y in zip(a, b)) for i, a in enumerate(basis) for b in basis[i:]
    )
    return factorial(d) - dense_rank(list(products))


_coefficients = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
)


@st.composite
def _polys(draw):
    """Degree <= 5: sums of renamed popov identities, groups of terms
    with opposite coefficients, and a few stray terms."""
    d = draw(st.integers(1, 5))
    coeffs: dict = {}
    if d == 5:
        for _ in range(draw(st.integers(0, 3))):
            base = draw(st.sampled_from([popov5a(), popov5b()]))
            # Renaming x_i -> x_pi(i) sends the monomial of sigma to pi * sigma.
            pi = tuple(draw(st.permutations(range(1, 6))))
            c = draw(_coefficients)
            add_terms(coeffs, ((compose(pi, s), c * a) for s, a in base.coeffs.items()))
    perm = st.permutations(range(1, d + 1)).map(tuple)
    for _ in range(draw(st.integers(0, 3))):
        c = draw(_coefficients)
        plus = draw(st.lists(perm, max_size=4))
        minus = draw(st.lists(perm, min_size=len(plus), max_size=len(plus)))
        add_terms(coeffs, [(s, c) for s in plus] + [(s, -c) for s in minus])
    add_terms(coeffs, ((s, draw(_coefficients)) for s in draw(st.lists(perm, max_size=2))))
    return MultilinearPoly(d, coeffs)


@settings(deadline=None)
@given(_polys())
@example(br_cube())  # an identity at degree 6
@example(commutator_product(3))  # not one, at degree 6
def test_parity_masks_match_direct_sum(g):
    # The reference sums over every subset pair, odd subsets included.
    assert is_identity_EE(g) == _direct_verdict(g)


@pytest.mark.parametrize("d", range(1, 7))
def test_odd_subset_signs_expand_over_even_ones(d):
    # f_I = sum_j (-1)^(j-1) f_{I - i_j} for I = {i_1 < ... < i_r}, r odd.
    perms = list(permutations(range(1, d + 1)))
    for sub in _subsets(d):
        if len(sub) % 2:
            ordered = sorted(sub)
            for sigma in perms:
                expansion = sum(
                    (-1) ** j * f_I(sigma, ordered[:j] + ordered[j + 1 :])
                    for j in range(len(ordered))
                )
                assert f_I(sigma, sub) == expansion, (sorted(sub), sigma)


@pytest.mark.parametrize("d", range(1, 7))
def test_even_subset_signs_have_rank_half_the_subsets(d):
    perms = list(permutations(range(1, d + 1)))
    rows = [[f_I(sigma, sub) for sigma in perms] for sub in _subsets(d) if len(sub) % 2 == 0]
    assert dense_rank(rows) == 2 ** (d - 1)
    # _even_subset_parities holds exactly those rows, keyed by subset.
    parities = _even_subset_parities(_inversion_columns(perms, d), d)
    assert sorted(parities) == sorted(tuple(sorted(sub)) for sub in _subsets(d) if len(sub) % 2 == 0)
    for sub, par in parities.items():
        assert [-1 if par >> t & 1 else 1 for t in range(len(perms))] == [
            f_I(sigma, sub) for sigma in perms
        ]


@pytest.mark.parametrize("d", [7, 8, 9])
def test_subset_parities_match_f_I_on_permutation_lists(d):
    # Lists of drawn permutations, not all of S_d: repeats, one
    # permutation and no permutation at all.
    rng = random.Random(d)
    drawn = [tuple(rng.sample(range(1, d + 1), d)) for _ in range(30)]
    evens = sorted(tuple(sorted(sub)) for sub in _subsets(d) if len(sub) % 2 == 0)
    for perms in (drawn, drawn[:7] * 2 + drawn[3:5], drawn[:1], []):
        parities = _even_subset_parities(_inversion_columns(perms, d), d)
        assert sorted(parities) == evens
        for sub, par in parities.items():
            assert par >> len(perms) == 0
            assert [-1 if par >> t & 1 else 1 for t in range(len(perms))] == [
                f_I(sigma, sub) for sigma in perms
            ], (perms, sub)


def test_even_subset_pairs_have_distinct_pair_sets():
    # is_identity_EE decides each pair of even subsets once; no two pairs
    # share the set P(I1) ^ P(I2) of value pairs their product depends on.
    for d in range(oracle.EE_DEGREE_CAP + 1):
        evens = [sub for sub in _subsets(d) if len(sub) % 2 == 0]
        pair_sets = [frozenset(combinations(sorted(sub), 2)) for sub in evens]
        xors = [a ^ b for i, a in enumerate(pair_sets) for b in pair_sets[i + 1 :]]
        assert len(set(xors)) == len(xors) == len(evens) * (len(evens) - 1) // 2


@pytest.mark.parametrize("d", [4, 5, 6])
def test_kernel_ranks_depend_only_on_the_class_of_the_character(d):
    # A permutation of the pairs {2i-1, 2i} maps R_theta onto R_{theta o pi},
    # so the rank of R_theta depends only on how many swap bits theta has
    # and on its reversal bit.
    ranks = ee_ranks_by_character(d)
    m = d // 2
    classes: dict = {}
    for theta, rank in enumerate(ranks):
        key = ((theta & ((1 << m) - 1)).bit_count(), theta >> m)
        classes.setdefault(key, set()).add(rank)
    assert len(classes) == 2 * (m + 1)
    assert all(len(v) == 1 for v in classes.values()), classes
    assert factorial(d) - sum(ranks) == ee_identity_kernel_dim(d)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_kernel_split_ranks_match_the_unsplit_ranks(d):
    # Each class representative is ranked as the images of 1 + T and
    # 1 - T for a pair swap T that fixes it; their sum is the rank of the
    # whole class, ranked unsplit by the reference.
    ranks = ee_ranks_by_character(d)
    split = _ee_class_ranks(d)
    assert len(split) == 2 * (d // 2 + 1)
    for theta, rank in split.items():
        assert rank == ranks[theta], theta


def test_kernel_dims():
    assert ee_identity_kernel_dim(2) == 0
    assert ee_identity_kernel_dim(3) == 0
    assert ee_identity_kernel_dim(4) == 0
    # regression constants, computed by the rank over every subset pair
    assert ee_identity_kernel_dim(5) == 20
    assert ee_identity_kernel_dim(6) == 315
    with pytest.raises(CapExceeded):
        ee_identity_kernel_dim(8)


@pytest.mark.parametrize("d", range(1, 6))
def test_kernel_basis_products_match_all_subset_pairs(d):
    assert ee_identity_kernel_dim(d) == _kernel_dim_over_all_pairs(d)


@pytest.mark.parametrize("d", range(7))
def test_kernel_blocks_match_basis_products(d):
    assert ee_identity_kernel_dim(d) == _kernel_dim_basis_products(d)


def _codim_fit(d):
    """Candidate codimension sequence of E⊗E: C(2d, d)/2 - 2^d + d + 1."""
    return comb(2 * d, d) // 2 - 2**d + d + 1


@pytest.mark.parametrize("d", range(1, 7))
def test_kernel_dims_fit_the_closed_form(d):
    assert ee_identity_kernel_dim(d) == factorial(d) - _codim_fit(d)


def test_kernel_degree_7_under_raised_cap():
    assert ee_identity_kernel_dim(7) == 3444 == factorial(7) - _codim_fit(7)


@pytest.mark.parametrize("d", [-1, True, False, "3", 2.0])
def test_kernel_refuses_bad_degree(d):
    with pytest.raises(ValueError, match="^d must"):
        ee_identity_kernel_dim(d)


def _maps_each_f_I_to_a_signed_f_J(gen, d):
    """True iff ``f_I(gen(sigma)) = +-f_J(sigma)`` over ``S_d`` for every
    ``I``, with ``J`` and the sign depending on ``I`` only."""
    perms = list(permutations(range(1, d + 1)))
    rows = {tuple(f_I(sigma, sub) for sigma in perms) for sub in _subsets(d)}
    return all(
        row in rows or tuple(-x for x in row) in rows
        for row in (tuple(f_I(gen(sigma), sub) for sigma in perms) for sub in _subsets(d))
    )


@pytest.mark.parametrize("d", range(1, 6))
def test_kernel_symmetries_permute_the_sign_rows(d):
    gens = _ee_symmetries(d)
    assert len(gens) == d // 2 + 1
    perms = list(permutations(range(1, d + 1)))
    for g, h in product(gens, repeat=2):
        assert all(g(h(sigma)) == h(g(sigma)) for sigma in perms)
        assert all(g(g(sigma)) == sigma for sigma in perms)
    for gen in gens:
        assert _maps_each_f_I_to_a_signed_f_J(gen, d)
    # A position swap is no such symmetry, so the check can tell.
    swap = lambda sigma: sigma[1::-1] + sigma[2:]
    assert _maps_each_f_I_to_a_signed_f_J(swap, d) == (d < 3)


@pytest.mark.parametrize("d", range(4, 7))
def test_pair_transpositions_permute_the_sign_rows(d):
    # The kernel splits each class by relabeling the values with a swap of
    # two pairs {2a-1, 2a} and {2b-1, 2b}; every such swap must send each
    # f_I to some +-f_J.
    for a, b in combinations(range(1, d // 2 + 1), 2):
        pi = {2 * a - 1: 2 * b - 1, 2 * a: 2 * b, 2 * b - 1: 2 * a - 1, 2 * b: 2 * a}
        relabel = lambda sigma, pi=pi: tuple(pi.get(v, v) for v in sigma)
        assert _maps_each_f_I_to_a_signed_f_J(relabel, d), (a, b)


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


_ANNIHILATION_BASES = [SuperBasis(*kl) for kl in [(1, 1), (2, 1), (0, 2), (1, 2), (3, 0)]]


@st.composite
def _annihilation_cases(draw):
    """A basis, a polynomial and monomials of total degree at most 6."""
    basis = draw(st.sampled_from(_ANNIHILATION_BASES))
    g = draw(st.one_of(_polys(), st.sampled_from([br_cube(), popov5b()])))
    letters = st.integers(1, basis.dim)
    spare = 6 - g.degree
    monomials = []
    for _ in range(g.degree):
        word = draw(st.lists(letters, min_size=1, max_size=1 + spare))
        spare -= len(word) - 1
        monomials.append(tuple(word))
    return basis, g, monomials


@settings(deadline=None)
@given(_annihilation_cases())
@example((B11, br_cube(), [(1,), (2,), (1,), (2,), (2,), (1,)]))
@example((SuperBasis(2, 1), commutator_product(1), [(1,), (2,)]))
@example((SuperBasis(0, 2), commutator_product(1), [(1,), (1, 2)]))
# Nonzero only through the signed sum, with the odd letter repeated.
@example((B11, commutator_product(1), [(2,), (1, 2)]))
# Nonzero through the full sum, with two distinct odd letters.
@example((SuperBasis(0, 2), commutator_product(1), [(1,), (2,)]))
def test_annihilation_matches_total_symmetrizers(case):
    # The reference expands S_n: the value is starred with every
    # permutation of the full and the signed sum.
    basis, g, monomials = case
    value = add_terms(
        {},
        (
            (tuple(chain.from_iterable(monomials[s - 1] for s in sigma)), c)
            for sigma, c in g.coeffs.items()
        ),
    )
    n = sum(map(len, monomials))
    expected = not any(
        star_group_algebra(value, sym(n), basis)
        for sym in (full_symmetrizer, sign_symmetrizer)
    )
    assert check_annihilation(g, monomials, basis) == expected


def test_annihilation_makes_no_twisted_action(monkeypatch):
    # The verdict is a sign sum over the value's words: no term is starred.
    def refuse(*args):
        raise AssertionError("check_annihilation applied the twisted action")

    monkeypatch.setattr(oracle, "star_group_algebra", refuse)
    basis = SuperBasis(7, 0)
    assert not check_annihilation(standard_poly(7), [(i,) for i in range(1, 8)], basis)
    tup = [(1,), (2,), (3,), (4,), (5,), (6, 7)]
    assert check_annihilation(commutator_product(3), tup, basis)


def test_repeated_annihilation_agrees_with_a_fresh_polynomial():
    # Verdicts on one polynomial object reuse its sign table; each
    # must equal the verdict on a freshly built copy and the reference's.
    cases = [
        (popov5a, B11, list(product([(1,), (2,)], repeat=5)) + [[(1, 2), (1,), (2,), (1,), (2,)]]),
        (lambda: standard_poly(4), SuperBasis(4, 0), list(product([(1,), (2,), (3,), (4,)], repeat=4))),
        # Total degrees 4 to 8.
        (lambda: commutator_product(2), SuperBasis(2, 1), list(product([(1,), (3,), (2, 3)], repeat=4))),
    ]
    verdicts = set()
    for make, basis, tuples in cases:
        g = make()
        for tup in tuples:
            verdict = check_annihilation(g, tup, basis)
            assert verdict == check_annihilation(make(), tup, basis), tup
            assert verdict == check_annihilation_by_value(g, tup, basis), tup
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_annihilation_of_the_benchmark_tuples_matches_the_value():
    # Every br-cube tuple of single letters over (1,1), most of which repeat
    # both an odd and an even letter, and every popov5a tuple with one
    # two-letter monomial among single letters.
    cases = [(br_cube(), list(product([(1,), (2,)], repeat=6)))]
    mixed = []
    for pos in range(5):
        for singles in product([(1,), (2,)], repeat=4):
            for pair in product((1, 2), repeat=2):
                mixed.append([*singles[:pos], pair, *singles[pos:]])
    cases.append((popov5a(), mixed))
    for g, tuples in cases:
        for tup in tuples:
            assert check_annihilation(g, tup, B11) == check_annihilation_by_value(g, tup, B11), tup
    assert len(cases[0][1]) == 64 and len(mixed) == 320


def test_annihilation_matches_the_value_sign_sum():
    # Every monomial tuple of total degree at most 6: the sign sums read
    # off the inversion columns equal those of the built value.
    polys = [
        standard_poly(3), standard_poly(4), commutator_product(1), commutator_product(2), popov5b()
    ]
    verdicts = set()
    for basis in (SuperBasis(2, 0), SuperBasis(0, 2), B11, SuperBasis(2, 1)):
        for g in polys:
            for n in range(g.degree, 7):
                for word in basis.words(n):
                    for cuts in combinations(range(1, n), g.degree - 1):
                        ends = (0, *cuts, n)
                        tup = [word[a:b] for a, b in zip(ends, ends[1:])]
                        verdict = check_annihilation(g, tup, basis)
                        assert verdict == check_annihilation_by_value(g, tup, basis), (basis, g, tup)
                        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_ee_and_annihilation_share_one_sign_table(monkeypatch):
    # The inversion columns are built once per polynomial, whichever
    # verdict asks first.
    builds = []
    build = oracle._inversion_columns

    def counted(perms, d):
        builds.append(d)
        return build(perms, d)

    monkeypatch.setattr(oracle, "_inversion_columns", counted)
    g = popov5b()
    assert is_identity_EE(g)
    assert check_annihilation(g, [(1,), (2,), (1,), (2,), (2,)], B11)
    assert check_annihilation(g, [(1, 2), (2,), (1,), (2,), (1,)], B11)
    assert builds == [5]


def test_zero_polynomial_passes_both_verdicts():
    # Its sign table has no terms and no coefficient slices.
    zero = MultilinearPoly(3, {(1, 2, 3): 0})
    assert is_identity_EE(zero)
    assert check_annihilation(zero, [(1,), (2,), (3,)], SuperBasis(3, 0))


def test_annihilation_input_validation():
    g = standard_poly(4)
    with pytest.raises(ValueError):
        check_annihilation(g, [(1,), (2,)], B11)
    with pytest.raises(ValueError):
        check_annihilation(g, [(1,), (2,), (), (1,)], B11)
    with pytest.raises(ValueError):
        check_annihilation(g, [(1,), (2,), (3,), (1,)], B11)
    # A letter must be an integer and not a bool, even in range.
    for letter in [1.5, True, "1"]:
        with pytest.raises(ValueError, match="letters must be integers"):
            check_annihilation(commutator_product(1), [(letter,), (2,)], B11)
    # Total degree 8 gets a verdict.
    tup = [(1, 1), (1, 1), (1, 1), (1, 1)]
    assert check_annihilation(g, tup, B11) == check_annihilation_by_value(g, tup, B11)


def test_annihilation_at_any_total_degree():
    # Total degrees 8 to 40, far past any listing of S_n.  Distinct
    # letters leave both verdicts to the sign sums; letters drawn with
    # repeats also reach the rules for a repeated odd or even letter.
    assert check_annihilation(standard_poly(1), [(1, 2, 1, 2, 1, 2, 1, 2)], B11)
    rng = random.Random(29)
    polys = [standard_poly(3), standard_poly(4), commutator_product(2), popov5b(), br_cube()]
    verdicts = set()
    for n in range(8, 41):
        basis = SuperBasis(n // 2, n - n // 2)
        for g in polys:
            for distinct in (True, False):
                if distinct:
                    w0 = rng.sample(basis.letters, n)
                else:
                    w0 = rng.choices(basis.letters, k=n)
                ends = (0, *sorted(rng.sample(range(1, n), g.degree - 1)), n)
                tup = [tuple(w0[a:b]) for a, b in zip(ends, ends[1:])]
                verdict = check_annihilation(g, tup, basis)
                assert verdict == check_annihilation_by_value(g, tup, basis), (n, g, tup)
                verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("d", [255, 256])
def test_sign_table_limit_is_255_variables(d):
    # The sign table lays the variables in byte lanes: 255 of them still
    # decide, and 256 are refused up front.
    g = MultilinearPoly(d, {tuple(range(1, d + 1)): 1})
    monomials = [(1,)] * d
    if d == 255:
        assert check_annihilation(g, monomials, SuperBasis(1, 0)) is False
    else:
        with pytest.raises(CapExceeded, match="255 variables"):
            check_annihilation(g, monomials, SuperBasis(1, 0))

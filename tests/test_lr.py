from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from filteralg import lr
from filteralg.dims import f_lambda
from filteralg.lr import _generate, lr_coefficient, outer_product
from filteralg.oracle import _super_tableaux
from filteralg.partitions import conjugate, contains, enumerate_partitions
from reference import count_lr_fillings


def all_partitions_upto(n_max):
    return [lam for n in range(n_max + 1) for lam in enumerate_partitions(n)]


# -- independent oracle: expand products of Schur polynomials monomially ----

_schur_cache = {}


def schur_monomials(lam, nvars):
    """Schur polynomial as a dict exponent-vector -> coefficient."""
    key = (lam, nvars)
    if key not in _schur_cache:
        out = {}
        for word in _super_tableaux(lam, nvars, 0):
            exp = [0] * nvars
            for v in word:
                exp[v - 1] += 1
            k = tuple(exp)
            out[k] = out.get(k, 0) + 1
        _schur_cache[key] = out
    return _schur_cache[key]


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def expand_in_schur_basis(poly, nvars):
    """Peel a symmetric polynomial into Schur terms by leading exponents."""
    poly = dict(poly)
    result = {}
    while poly:
        lead = max(poly)
        assert all(lead[i] >= lead[i + 1] for i in range(nvars - 1)), lead
        shape = tuple(p for p in lead if p)
        c = poly[lead]
        result[shape] = c
        for e, ce in schur_monomials(shape, nvars).items():
            nv = poly.get(e, 0) - c * ce
            if nv:
                poly[e] = nv
            else:
                poly.pop(e, None)
    return result


def outer_product_by_polynomials(mu, lam):
    nvars = sum(mu) + sum(lam)
    if nvars == 0:
        return {(): 1}
    prod = poly_mul(schur_monomials(mu, nvars), schur_monomials(lam, nvars))
    return expand_in_schur_basis(prod, nvars)


# -- example values -----------------------------------------------------------


def test_coefficient_examples():
    assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (1,), (4,)) == 0
    assert lr_coefficient((), (), ()) == 1
    assert lr_coefficient((2,), (1,), (2, 2)) == 0


def test_outer_product_examples():
    assert outer_product((1,), (1,)).terms == {(2,): 1, (1, 1): 1}
    assert outer_product((2, 1), ()).terms == {(2, 1): 1}
    assert outer_product((), (2, 1)).terms == {(2, 1): 1}
    assert outer_product((), ()).terms == {(): 1}
    assert outer_product((2, 1), (1,)).terms == {
        (3, 1): 1,
        (2, 2): 1,
        (2, 1, 1): 1,
    }


def test_expansion_degree_and_containment():
    exp = outer_product((2, 1), (2, 1))
    assert exp.degree == 6
    for nu, c in exp.terms.items():
        assert c >= 1
        assert sum(nu) == 6
        assert contains((2, 1), nu)


def test_against_polynomial_oracle():
    pairs = [
        ((2, 1), (2, 1)),
        ((2,), (2, 2)),
        ((1, 1), (2, 1)),
        ((3,), (1, 1, 1)),
        ((2, 2), (1, 1)),
    ]
    for mu, lam in pairs:
        assert outer_product(mu, lam).terms == outer_product_by_polynomials(mu, lam)


_SHAPES_UPTO_7 = all_partitions_upto(7)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(_SHAPES_UPTO_7), st.sampled_from(_SHAPES_UPTO_7))
@example((), ())
@example((), (3, 1))
@example((2, 2, 1), ())
@example((1, 1, 1, 1, 1, 1, 1), (7,))
def test_generated_expansion_matches_enumerator(mu, lam):
    # The generated terms are exactly the nonzero per-shape counts, in the
    # order enumerate_partitions lists the shapes, and do not depend on
    # which argument is taken as the content.
    n = sum(mu) + sum(lam)
    expected = {}
    for nu in enumerate_partitions(n):
        c = count_lr_fillings(mu, lam, nu)
        if c:
            expected[nu] = c
    exp = outer_product(mu, lam)
    assert list(exp.terms.items()) == list(expected.items())
    assert exp.degree == n
    swapped = outer_product(lam, mu)
    assert list(swapped.terms.items()) == list(exp.terms.items())
    assert swapped.degree == n


def test_symmetry_exhaustive():
    shapes = all_partitions_upto(5)
    for mu in shapes:
        for lam in shapes:
            n = sum(mu) + sum(lam)
            for nu in enumerate_partitions(n):
                # raw enumerator on both orders, bypassing the cache
                assert count_lr_fillings(mu, lam, nu) == count_lr_fillings(
                    lam, mu, nu
                ), (mu, lam, nu)


def test_coefficient_matches_enumerator_exhaustive():
    # Every nu of size |mu| + |lam|, most of which miss mu or lam, and
    # every nu one cell short or one cell over.
    shapes = all_partitions_upto(5)
    for mu in shapes:
        for lam in shapes:
            n = sum(mu) + sum(lam)
            for size in (n - 1, n, n + 1):
                for nu in enumerate_partitions(max(size, 0)):
                    assert lr_coefficient(mu, lam, nu) == count_lr_fillings(
                        mu, lam, nu
                    ), (mu, lam, nu)
                    # The generation bounded by nu reaches no other shape.
                    if size == n and contains(mu, nu):
                        assert set(_generate(mu, lam, nu)) <= {nu}, (mu, lam, nu)


def test_conjugation_symmetry():
    # Both sides share one cache entry, so each is checked against the
    # enumerator rather than against the other.
    shapes = all_partitions_upto(5)
    for mu in shapes:
        for lam in shapes:
            n = sum(mu) + sum(lam)
            for nu in enumerate_partitions(n):
                conj = conjugate(mu), conjugate(lam), conjugate(nu)
                expected = count_lr_fillings(mu, lam, nu)
                assert lr_coefficient(mu, lam, nu) == expected, (mu, lam, nu)
                assert lr_coefficient(*conj) == count_lr_fillings(*conj) == expected, conj


@pytest.fixture
def conjugated(monkeypatch):
    """The shapes ``filteralg.lr`` conjugates, in call order."""
    seen = []

    def recording(lam):
        seen.append(lam)
        return conjugate(lam)

    monkeypatch.setattr(lr, "conjugate", recording)
    return seen


def test_long_row_is_not_conjugated(conjugated):
    # (2,1) as the content is one row short of (50,)' and needs two
    # letters; conjugating (50,) would cost 50 rows.
    exp = outer_product((50,), (2, 1))
    assert list(exp.terms) == [(52, 1), (51, 2), (51, 1, 1), (50, 2, 1)]
    assert lr_coefficient((50,), (2, 1), (52, 1)) == 1
    assert conjugated == []


def test_conjugated_orientation_matches_enumerator(conjugated):
    # Columns are shorter than rows here, so the generation runs on the
    # conjugate pair and conjugates its terms back.
    mu, lam = (1,) * 7, (1,) * 6
    expected = {}
    for nu in enumerate_partitions(13):
        c = count_lr_fillings(mu, lam, nu)
        if c:
            expected[nu] = c
    assert list(outer_product(mu, lam).terms.items()) == list(expected.items())
    assert mu in conjugated
    del conjugated[:]
    triple = (2, 1, 1), (2, 1, 1), (3, 2, 2, 1)
    assert lr_coefficient(*triple) == count_lr_fillings(*triple) == 2
    assert (3, 2, 2, 1) in conjugated


def test_dimension_identity():
    shapes = all_partitions_upto(3)
    for mu in shapes:
        for lam in shapes:
            if sum(mu) + sum(lam) > 6:
                continue
            exp = outer_product(mu, lam)
            lhs = sum(c * f_lambda(nu) for nu, c in exp.terms.items())
            rhs = f_lambda(mu) * f_lambda(lam) * comb(sum(mu) + sum(lam), sum(mu))
            assert lhs == rhs, (mu, lam)


_SHAPES_8_TO_10 = [lam for n in (8, 9, 10) for lam in enumerate_partitions(n)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(_SHAPES_8_TO_10), st.sampled_from(_SHAPES_8_TO_10))
@example((8,), (1,) * 10)
@example((4, 3, 2, 1), (4, 3, 2, 1))
def test_products_at_benchmark_sizes(mu, lam):
    # The sizes of the benchmark's products, past the enumerator's reach:
    # the degree count, containment, both symmetries, and the nu-bounded
    # route of lr_coefficient on a few terms of each expansion.
    exp = outer_product(mu, lam)
    n = sum(mu) + sum(lam)
    assert exp.degree == n
    total = sum(c * f_lambda(nu) for nu, c in exp.terms.items())
    assert total == comb(n, sum(mu)) * f_lambda(mu) * f_lambda(lam)
    assert all(c > 0 and contains(mu, nu) and contains(lam, nu) for nu, c in exp.terms.items())
    assert list(outer_product(lam, mu).terms.items()) == list(exp.terms.items())
    conj = outer_product(conjugate(mu), conjugate(lam)).terms
    assert conj == {conjugate(nu): c for nu, c in exp.terms.items()}
    terms = list(exp.terms.items())
    for nu, c in terms[:: max(1, len(terms) // 4)]:
        assert lr_coefficient(mu, lam, nu) == c, (mu, lam, nu)


def test_some_factor_always_reaches_a_supershape():
    # for every nested pair mu inside nu there is a complementary shape
    # whose product with mu hits nu
    for n in range(9):
        for nu in enumerate_partitions(n):
            for m in range(n + 1):
                for mu in enumerate_partitions(m):
                    if not contains(mu, nu):
                        continue
                    assert any(
                        lr_coefficient(mu, lam, nu) > 0
                        for lam in enumerate_partitions(n - m)
                    ), (mu, nu)


def test_single_row_products_are_multiplicity_free():
    shapes = all_partitions_upto(5)
    for mu in shapes:
        for r in range(1, 5):
            exp = outer_product(mu, (r,))
            for nu, c in exp.terms.items():
                assert c == 1
                # nu/mu is a horizontal strip: interleaving rows
                mu_pad = mu + (0,) * (len(nu) - len(mu))
                assert all(
                    nu[i] >= mu_pad[i] and (i == 0 or mu_pad[i - 1] >= nu[i])
                    for i in range(len(nu))
                ), (mu, nu)

import hashlib
import random
import time
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from filteralg.dims import f_lambda, schur_dim, w_dim
from filteralg.filters import Filter
from filteralg.linalg import EchelonBasis, intify
from filteralg.oracle import (
    CapExceeded,
    MultilinearPoly,
    Perm,
    SuperBasis,
    _standard_tableaux,
    check_ideal,
    commutator_product,
    evaluate_identity,
    f_I,
    free_commutator,
    free_var,
    generated_ideal,
    ideal_subspace,
    module_W,
    multilinear_from_free,
    perm_sign,
    standard_tableau,
    star_action,
    star_group_algebra,
    standard_poly,
    star_word,
)
from filteralg.partitions import contains, enumerate_partitions, in_hook
from reference import (
    LISTING_CAP,
    c_stat,
    check_ideal_by_span,
    compose,
    evaluate_identity_by_span,
    full_symmetrizer,
    sign_symmetrizer,
    tableau_symmetrizer,
)

B20 = SuperBasis(2, 0)
B11 = SuperBasis(1, 1)
B21 = SuperBasis(2, 1)


def test_f_I_examples():
    assert f_I((3, 1, 2), frozenset()) == 1
    assert f_I((2, 1), {1, 2}) == -1
    assert f_I((2, 3, 1), {1, 3}) == -1
    assert f_I((1, 2, 3), {1, 2, 3}) == 1


def test_perm_sign_counts_strict_inversions():
    # Equal values never form an inversion.
    assert perm_sign((2, 1, 2)) == -1
    assert perm_sign((1, 1)) == 1
    assert perm_sign((2, 2, 1, 1)) == 1


def test_star_action_signs():
    swap = (2, 1)
    assert star_action({(1, 2): 1}, swap, B20) == {(2, 1): 1}
    # two odd letters anticommute
    assert star_action({(2, 2): 1}, swap, B11) == {(2, 2): -1}
    assert star_action({(1, 2): 1}, swap, B11) == {(2, 1): 1}


def test_star_action_degree_mismatch():
    with pytest.raises(ValueError):
        star_action({(1, 1): 1}, (1, 2, 3), B20)


def test_star_action_associativity_random():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 5)
        basis = SuperBasis(rng.randint(0, 2), rng.randint(0, 2))
        if basis.dim == 0:
            continue
        word = tuple(rng.choice(basis.letters) for _ in range(n))
        perms = list(permutations(range(1, n + 1)))
        tau, pi = rng.choice(perms), rng.choice(perms)
        v = {word: 1}
        lhs = star_action(star_action(v, tau, basis), pi, basis)
        rhs = star_action(v, compose(tau, pi), basis)
        assert lhs == rhs, (word, tau, pi, basis)


def test_star_action_associativity_exhaustive_n3():
    perms = list(permutations((1, 2, 3)))
    for word in product(B21.letters, repeat=3):
        for tau in perms:
            for pi in perms:
                v = {word: 1}
                lhs = star_action(star_action(v, tau, B21), pi, B21)
                rhs = star_action(v, compose(tau, pi), B21)
                assert lhs == rhs


def test_symmetrizers():
    assert full_symmetrizer(2) == {(1, 2): 1, (2, 1): 1}
    assert sign_symmetrizer(2) == {(1, 2): 1, (2, 1): -1}
    assert tableau_symmetrizer([[1, 2]]) == {(1, 2): 1, (2, 1): 1}
    assert tableau_symmetrizer([[1], [2]]) == {(1, 2): 1, (2, 1): -1}
    with pytest.raises(ValueError):
        tableau_symmetrizer([[1, 3]])


def test_symmetrizers_refuse_groups_above_the_cap():
    # 12! permutations would take hours to list; the order is checked first.
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        tableau_symmetrizer([list(range(1, 13))])
    with pytest.raises(CapExceeded):
        tableau_symmetrizer([[1, 2, 3, 4], [5, 6, 7, 8]])  # |R| * |C| = 9216
    with pytest.raises(CapExceeded):
        full_symmetrizer(LISTING_CAP + 1)
    with pytest.raises(CapExceeded):
        sign_symmetrizer(12)
    assert time.perf_counter() - start < 5
    assert len(full_symmetrizer(LISTING_CAP)) == factorial(LISTING_CAP)


def test_antisymmetrizer_pins_the_odd_sign():
    # an odd-odd tensor hit by 1 - (12) must produce the anticommutator
    e = tableau_symmetrizer([[1], [2]])
    assert star_group_algebra({(2, 2): 1}, e, B11) == {(2, 2): 2}
    out = star_group_algebra({(1, 2): 1}, e, SuperBasis(0, 2))
    assert out == {(1, 2): 1, (2, 1): 1}
    # and even letters get the usual alternating behaviour
    out = star_group_algebra({(1, 2): 1}, e, B20)
    assert out == {(1, 2): 1, (2, 1): -1}


@st.composite
def _action_inputs(draw):
    k = draw(st.integers(0, 2))
    l = draw(st.integers(0 if k else 1, 2))
    n = draw(st.integers(1, 4))
    letters = st.integers(1, k + l)
    words = st.tuples(*[letters] * n)
    # Coefficients from a small set, over few words, so that terms cancel.
    coeffs = st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)])
    vec = draw(st.dictionaries(words, coeffs, max_size=6))
    perms = st.permutations(range(1, n + 1)).map(tuple)
    element = draw(st.dictionaries(perms, st.sampled_from([1, -1, 2]), max_size=6))
    return SuperBasis(k, l), vec, element


@given(_action_inputs())
@example((B20, {(1, 1): Fraction(1, 2)}, sign_symmetrizer(2)))
def test_star_group_algebra_matches_reference(inputs):
    basis, vec, element = inputs
    ref: dict = {}
    for w, a in vec.items():
        for sigma, c in element.items():
            sgn, w2 = star_word(w, sigma, basis)
            ref[w2] = ref.get(w2, 0) + sgn * c * a
    out = star_group_algebra(vec, element, basis)
    assert out == {w: c for w, c in ref.items() if c}
    for sigma in element:
        assert star_action(vec, sigma, basis) == star_group_algebra(vec, {sigma: 1}, basis)


def test_module_dims_examples():
    assert module_W((2,), B20, 2).dim == 3
    assert module_W((1, 1), B11, 2).dim == 2
    assert module_W((1, 1, 1), B20, 3).dim == 0
    assert module_W((), SuperBasis(1, 0), 0).dim == 1


def test_module_requires_matching_degree():
    with pytest.raises(ValueError):
        module_W((2, 1), B20, 2)


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        module_W((1,) * 13, B20, 13)


def test_cap_read_from_environment_when_called(monkeypatch):
    # 3**3 = 27 words exceed a cap of 8; "x" is not a positive integer.
    monkeypatch.setenv("FILTERALG_DIM_CAP", "8")
    with pytest.raises(CapExceeded):
        module_W((2, 1), B21, 3)
    monkeypatch.setenv("FILTERALG_DIM_CAP", "x")
    with pytest.raises(ValueError, match="FILTERALG_DIM_CAP"):
        module_W((2, 1), B21, 3)
    monkeypatch.delenv("FILTERALG_DIM_CAP")
    assert module_W((2, 1), B21, 3).dim == w_dim((2, 1), 2, 1)


def test_decomposition_against_formulas():
    for basis in (B20, B11, B21):
        for n in range(5):
            total = 0
            for lam in enumerate_partitions(n):
                sub = module_W(lam, basis, n)
                assert sub.dim == w_dim(lam, basis.k, basis.l), (lam, basis)
                total += sub.dim
            assert total == basis.dim**n


def test_module_independent_of_tableau_choice():
    def column_tableau(lam):
        from filteralg.partitions import conjugate

        rows = [[0] * p for p in lam]
        nxt = 1
        for j in range(lam[0] if lam else 0):
            for i in range(conjugate(lam)[j]):
                rows[i][j] = nxt
                nxt += 1
        return rows

    for lam in [(2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        n = sum(lam)
        for basis in (B20, B11):
            e_row = tableau_symmetrizer(standard_tableau(lam))
            e_col = tableau_symmetrizer(column_tableau(lam))
            span_row = _span_of(e_row, basis, n)
            span_col = _span_of(e_col, basis, n)
            assert span_row == span_col, (lam, basis)


def _adjacent_transpositions(n: int) -> list[Perm]:
    out = []
    for i in range(1, n):
        img = list(range(1, n + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        out.append(tuple(img))
    return out


def _span_of(e, basis, n):
    """The reference block: ``w * e`` for every word ``w``, saturated
    under the adjacent transpositions until nothing new appears."""
    from filteralg.linalg import EchelonBasis

    ech = EchelonBasis()
    pending = []
    for w in basis.words(n):
        v = star_group_algebra({w: 1}, e, basis)
        if v and ech.insert(v):
            pending.append(v)
    while pending:
        v = pending.pop()
        for t in _adjacent_transpositions(n):
            moved = star_action(v, t, basis)
            if ech.insert(moved):
                pending.append(moved)
    return ech


# sha256 of the canonical echelon rows of every block with |lam| <= 5,
# and separately of every block with |lam| = 6, recorded from the code
# that applied the expanded tableau symmetrizer to every word; equal
# dimensions alone would not prove equal subspaces.
MODULE_ROW_DIGESTS = {
    (2, 0): (
        "1bcf9698fc407582c3c1b9c6e82be1356a82323f8fc743f2731e64e44023c992",
        "8f8d0699a57018587b2f26ebb51af2c3f20443f12dfac53cf328dbdfeb7bba21",
    ),
    (1, 1): (
        "5d040114f645d3069ee34a7d2e1db16bd23e1b07a32d2573c230030d029ebfed",
        "8667aeb29452f86d56845b0599dd8cf83ffe78e4b6429681b62a2c849ab9bad5",
    ),
    (2, 1): (
        "08b5f0868018c5573c6b31e9ca16fab05873e328d6727ea9091b6d9e7fb11ee8",
        "4371c59492fe1263b8a27af18d51febae94e1358a71720c22a3c9821b8e68838",
    ),
}


def _rows_digest(blocks, basis):
    h = hashlib.sha256()
    for lam in blocks:
        rows = module_W(lam, basis, sum(lam)).rows()
        h.update(repr((lam, [sorted(r.items()) for r in rows])).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kl", sorted(MODULE_ROW_DIGESTS))
def test_module_rows_pinned(kl):
    basis = SuperBasis(*kl)
    upto5 = [lam for n in range(6) for lam in enumerate_partitions(n)]
    assert _rows_digest(upto5, basis) == MODULE_ROW_DIGESTS[kl][0]
    assert _rows_digest(enumerate_partitions(6), basis) == MODULE_ROW_DIGESTS[kl][1]


def test_large_block_rows_pinned():
    assert (
        _rows_digest([(5, 3)], B20)
        == "b992bedc3123ac4ed0ef1109f8777e923053564cba13a65f286c733f95adb7aa"
    )


@st.composite
def _block_inputs(draw):
    n = draw(st.integers(0, 5))
    lam = draw(st.sampled_from(list(enumerate_partitions(n))))
    k = draw(st.integers(0, 3))
    l = draw(st.integers(0, 3 - k))
    return lam, SuperBasis(k, l)


@settings(deadline=None)
@given(_block_inputs())
@example(((3, 1, 1), B21))  # |R| = |C|: the row group acts first
@example(((2, 2, 1), SuperBasis(0, 3)))  # |C| > |R|: the column group first
def test_module_matches_expanded_symmetrizer(inputs):
    # The reference applies the expanded R+ C- to every word.
    lam, basis = inputs
    n = sum(lam)
    ref = _span_of(tableau_symmetrizer(standard_tableau(lam)), basis, n)
    assert module_W(lam, basis, n).rows() == ref.rows()


@pytest.mark.parametrize(
    "lam, kl", [((12,), (2, 0)), ((1,) * 12, (0, 2)), ((6,) + (1,) * 6, (1, 1))]
)
def test_cap_bounds_module_work(lam, kl, monkeypatch):
    # An expanded symmetrizer would apply all 12! permutations to each word.
    # Every twisted action goes through _star_compiled, which applies each
    # compiled permutation to each word of the vector.
    from filteralg import oracle

    terms = 0
    star = oracle._star_compiled

    def counted(vec, compiled, k):
        nonlocal terms
        terms += len(vec) * len(compiled)
        assert terms <= 200_000, "module_W work is not bounded by the ambient"
        return star(vec, compiled, k)

    monkeypatch.setattr(oracle, "_star_compiled", counted)
    start = time.perf_counter()
    assert module_W(lam, SuperBasis(*kl), 12).dim == w_dim(lam, *kl)
    assert terms > 0
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "lam, kl",
    [((), (1, 0)), ((3, 2, 1), (2, 1)), ((2, 2, 1), (0, 3)), ((5, 3), (2, 0))]
    + [(lam, (1, 1)) for lam in enumerate_partitions(5)],
)
def test_every_block_insert_grows(lam, kl, monkeypatch):
    # module_W builds one logged basis, the block: dim W = s_lambda(k|l) *
    # f_lambda inserts, one per seed and standard tableau, and every insert
    # must grow, which also checks that the seeds are independent.
    from filteralg import oracle

    made = []

    class Logged(EchelonBasis):
        __slots__ = ("grew",)

        def __init__(self):
            super().__init__()
            self.grew = []
            made.append(self)

        def insert(self, vec):
            self.grew.append(super().insert(vec))
            return self.grew[-1]

    monkeypatch.setattr(oracle, "EchelonBasis", Logged)
    block = oracle._module_W_cached.__wrapped__(lam, *kl)
    (built,) = made
    assert built is block
    assert block.grew == [True] * w_dim(lam, *kl)


@pytest.mark.parametrize(
    "lam, kl", [((2, 1), (2, 0)), ((3, 2, 1), (2, 1)), ((2, 2), (0, 2))]
)
def test_duplicated_seed_raises(lam, kl, monkeypatch):
    # A seed that does not grow the seed span must not yield a smaller block.
    from filteralg import oracle

    fillings = oracle._super_tableaux

    def doubled(*args):
        words = fillings(*args)
        return words[:1] + words

    monkeypatch.setattr(oracle, "_super_tableaux", doubled)
    with pytest.raises(AssertionError, match="semistandard seeds"):
        oracle._module_W_cached.__wrapped__(lam, *kl)


def _semistandard(rows, k):
    """Direct check of the (k,l) rules on a filling given by its rows."""
    for row in rows:
        for a, b in zip(row, row[1:]):
            if a > b or (a == b and a > k):
                return False
    for upper, lower in zip(rows, rows[1:]):
        for a, b in zip(upper, lower):
            if a > b or (a == b and a <= k):
                return False
    return True


def test_super_tableaux_are_the_semistandard_fillings():
    # Against every word of the degree, cut into the shape's rows.
    from filteralg.oracle import _super_tableaux

    for n in range(6):
        for lam in enumerate_partitions(n):
            starts = [sum(lam[:r]) for r in range(len(lam))]
            for k, l in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2)]:
                got = _super_tableaux(lam, k, l)
                want = [
                    w
                    for w in product(range(1, k + l + 1), repeat=n)
                    if _semistandard([w[s : s + p] for s, p in zip(starts, lam)], k)
                ]
                assert got == want, (lam, k, l)
                assert len(got) == schur_dim(lam, k, l), (lam, k, l)


def test_standard_tableaux():
    assert list(_standard_tableaux(())) == [()]
    for n in range(8):
        for lam in enumerate_partitions(n):
            fillings = list(_standard_tableaux(lam))
            assert len(set(fillings)) == len(fillings) == f_lambda(lam), lam
            for rows in fillings:
                assert tuple(map(len, rows)) == lam
                assert sorted(e for row in rows for e in row) == list(range(1, n + 1))
                assert all(list(row) == sorted(row) for row in rows)
                for upper, lower in zip(rows, rows[1:]):
                    assert all(a < b for a, b in zip(upper, lower)), rows


def test_ideal_subspace_examples():
    assert ideal_subspace(Filter([(1, 1)], (2, 0)), B20, 2).dim == 1
    assert ideal_subspace(Filter([()], (2, 0)), B20, 3).dim == 8
    assert ideal_subspace(Filter([(2, 1)], (2, 0)), B20, 3).dim == 4


def test_check_ideal_filters_and_non_filters():
    def members_upto(f, nmax):
        return [
            lam
            for n in range(nmax + 1)
            for lam in enumerate_partitions(n)
            if f.member(lam)
        ]

    for gens in [[(1, 1)], [(2,)], [(2, 1)], [()]]:
        for ambient in [(2, 0), (1, 1)]:
            f = Filter(gens, ambient)
            assert check_ideal(members_upto(f, 4), SuperBasis(*ambient), 4), (
                gens,
                ambient,
            )
    assert not check_ideal([(1, 1)], B20, 3)
    assert not check_ideal([(2,)], B11, 3)
    assert not check_ideal([(1,), (2,)], B20, 3)
    # the full space is trivially an ideal
    everything = [lam for n in range(4) for lam in enumerate_partitions(n)]
    assert check_ideal(everything, B20, 3)


def test_super_commutation_relations():
    ideal = ideal_subspace(Filter([(1, 1)], (1, 1)), B11, 2)
    # t u - u t and u u (half the anticommutator) die in the quotient
    assert ideal.contains({(1, 2): 1, (2, 1): -1})
    assert ideal.contains({(2, 2): 1})
    assert not ideal.contains({(1, 1): 1})
    assert not ideal.contains({(1, 2): 1})


def test_commutator_values_avoid_single_row_block():
    for basis in (B20, B11):
        for n in range(2, 6):
            top = _span_c_at_least(basis, n, 1)
            for split in range(1, n):
                for w1 in basis.words(split):
                    for w2 in basis.words(n - split):
                        vec = {}
                        vec[w1 + w2] = vec.get(w1 + w2, 0) + 1
                        vec[w2 + w1] = vec.get(w2 + w1, 0) - 1
                        vec = {w: c for w, c in vec.items() if c}
                        assert top.contains(vec), (w1, w2, basis)


def test_commutator_products_avoid_shallow_blocks():
    for basis in (B20, B11):
        for j, n in [(2, 4), (2, 5)]:
            deep = _span_c_at_least(basis, n, j)
            g = commutator_product(j)
            items = intify(g.coeffs).items()
            from filteralg.oracle import _compositions

            for comp in _compositions(n, 2 * j):
                for tup in product(*[list(basis.words(m)) for m in comp]):
                    val = {}
                    for sigma, c in items:
                        w = tuple()
                        for s in sigma:
                            w = w + tup[s - 1]
                        val[w] = val.get(w, 0) + c
                    val = {w: c for w, c in val.items() if c}
                    if val:
                        assert deep.contains(val), (tup, basis)


def _span_c_at_least(basis, n, j):
    from filteralg.linalg import EchelonBasis

    ech = EchelonBasis()
    for lam in enumerate_partitions(n):
        if c_stat(lam) >= j:
            for row in module_W(lam, basis, n).rows():
                ech.insert(row)
    return ech


def test_generated_ideal_reconstructions():
    sym_rel = [{(1, 2): 1, (2, 1): -1}]
    wedge_rel = [{(i, j): 1, (j, i): 1} for i in (1, 2) for j in (1, 2) if i <= j]
    for n in range(2, 5):
        assert generated_ideal(sym_rel, B20, n) == ideal_subspace(
            Filter([(1, 1)], (2, 0)), B20, n
        )
        assert generated_ideal(wedge_rel, B20, n) == ideal_subspace(
            Filter([(2,)], (2, 0)), B20, n
        )
    assert generated_ideal([], B20, 3).dim == 0


def test_generated_ideal_rejects_wrong_degree():
    with pytest.raises(ValueError):
        generated_ideal([{(1, 1, 1): 1}], B20, 3)


@pytest.mark.parametrize("word, n", [((1, 3), 2), ((0, 1), 3)])
def test_generated_ideal_rejects_letters_outside_basis(word, n):
    with pytest.raises(ValueError, match="outside"):
        generated_ideal([{word: 1}], B20, n)


def test_filter_ambient_must_match_basis():
    # The adjoined rectangle of another ambient would count as a member.
    with pytest.raises(ValueError, match="ambient"):
        evaluate_identity(commutator_product(1), Filter([(2,)], (2, 0)), B11, 3)
    with pytest.raises(ValueError, match="ambient"):
        ideal_subspace(Filter([(2, 2)], (0, 1)), B11, 3)
    assert not evaluate_identity(commutator_product(1), Filter([(2,)], (1, 1)), B11, 3)
    # A filter without an ambient is taken over the basis as it is.
    assert ideal_subspace(Filter([(2, 2)]), B11, 3).dim == 0
    assert ideal_subspace(Filter([(2, 1)]), B20, 3) == ideal_subspace(
        Filter([(2, 1)], (2, 0)), B20, 3
    )


def test_verdicts_refuse_before_building_a_block(monkeypatch):
    from filteralg import oracle

    def refuse(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(oracle, "module_W", refuse)
    with pytest.raises(ValueError, match="ambient"):
        evaluate_identity(commutator_product(1), Filter([(2,)], (2, 0)), B11, 3)
    monkeypatch.setenv("FILTERALG_DIM_CAP", "8")
    with pytest.raises(CapExceeded):
        evaluate_identity(commutator_product(1), Filter([(2,)], (2, 1)), B21, 3)
    with pytest.raises(CapExceeded):
        check_ideal([(1,), (2,)], B21, 3)


def test_evaluate_identity_commutativity():
    comm = commutator_product(1)
    sym = Filter([(1, 1)], (2, 0))
    for n in range(2, 6):
        assert evaluate_identity(comm, sym, B20, n)


def test_evaluate_identity_lie_nilpotence():
    lie3 = multilinear_from_free(
        free_commutator(free_commutator(free_var(0), free_var(1)), free_var(2)), 3
    )
    f = Filter([(1, 1)], (1, 1))
    for n in range(3, 6):
        assert evaluate_identity(lie3, f, B11, n), n
    # the mirror filter is not commutative in the mixed super case: its
    # quotient has t^2 = 0 but tu = -ut, so [[t,u],u] = 4tu^2 survives
    assert not evaluate_identity(lie3, Filter([(2,)], (1, 1)), B11, 3)
    # with no odd letters it is the plain exterior algebra, where the
    # identity does hold
    for n in range(3, 6):
        assert evaluate_identity(lie3, Filter([(2,)], (2, 0)), B20, n)


def test_evaluate_identity_three_commutators():
    assert evaluate_identity(
        commutator_product(3), Filter([(2, 2)], (2, 0)), B20, 6
    )


def test_evaluate_identity_finds_failures():
    comm = commutator_product(1)
    assert not evaluate_identity(comm, Filter([(2, 2)], (2, 0)), B20, 2)
    assert not evaluate_identity(comm, Filter([(2,)], (2, 0)), B20, 2)


# The quotient-side verdicts against the span route, and the paper's
# bijection on random shape sets.

AMBIENTS = [(2, 0), (1, 1), (0, 2), (2, 1)]
LIE3 = multilinear_from_free(
    free_commutator(free_commutator(free_var(0), free_var(1)), free_var(2)), 3
)
NAMED = {
    "commutators:1": commutator_product(1),
    "commutators:2": commutator_product(2),
    "lie3": LIE3,
    "s3": standard_poly(3),
    "s4": standard_poly(4),
}


@st.composite
def _identity_inputs(draw):
    basis = SuperBasis(*draw(st.sampled_from(AMBIENTS)))
    shapes = st.integers(1, 4).flatmap(lambda m: st.sampled_from(list(enumerate_partitions(m))))
    omega = Filter(draw(st.lists(shapes, min_size=1, max_size=2)), (basis.k, basis.l))
    if draw(st.booleans()):
        g = NAMED[draw(st.sampled_from(sorted(NAMED)))]
    else:
        d = draw(st.integers(2, 3))
        perms = st.permutations(range(1, d + 1)).map(tuple)
        g = MultilinearPoly(d, draw(st.dictionaries(perms, st.integers(-2, 2), min_size=1)))
    n = draw(st.integers(g.degree, 5))
    return g, omega, basis, n


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_identity_inputs())
@example((commutator_product(1), Filter([(1, 1)], (2, 0)), B20, 4))
@example((LIE3, Filter([(1, 1)], (1, 1)), B11, 5))
@example((LIE3, Filter([(1, 1)], (1, 1)), B11, 6))  # every substitution at n = 6 holds
@example((commutator_product(2), Filter([(2, 2)], (2, 0)), B20, 5))
@example((commutator_product(1), Filter([(2,)], (1, 1)), B11, 3))
@example((MultilinearPoly(1, {(1,): 1}), Filter([(2,)], (1, 1)), B11, 2))
@example((MultilinearPoly(1, {(1,): 1}), Filter([(1,)], (2, 0)), B20, 2))
def test_evaluate_identity_matches_span_route(inputs):
    g, omega, basis, n = inputs
    assert evaluate_identity(g, omega, basis, n) == evaluate_identity_by_span(
        g, omega, basis, n
    )


@st.composite
def _shape_sets(draw):
    basis = SuperBasis(*draw(st.sampled_from(AMBIENTS)))
    n_max = draw(st.integers(1, 4))
    shapes = [lam for n in range(n_max + 1) for lam in enumerate_partitions(n)]
    chosen = set(draw(st.lists(st.sampled_from(shapes), max_size=len(shapes))))
    if draw(st.booleans()):
        # Close upward, so that ideals are drawn as often as non-ideals.
        chosen = {mu for mu in shapes if any(contains(lam, mu) for lam in chosen)}
    return sorted(chosen), basis, n_max


def _adding_a_box(lam):
    """Every shape with one more cell than ``lam``."""
    padded = lam + (0,)
    return [
        tuple(p for p in padded[:i] + (padded[i] + 1,) + padded[i + 1 :] if p)
        for i in range(len(padded))
        if i == 0 or padded[i - 1] > padded[i]
    ]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_shape_sets())
@example(([(1, 1)], B20, 3))
@example(([(2,), (3,), (2, 1)], B11, 3))
def test_check_ideal_matches_span_route(inputs):
    shapes, basis, n_max = inputs
    assert check_ideal(shapes, basis, n_max) == check_ideal_by_span(shapes, basis, n_max)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_shape_sets())
@example(([(1, 1)], B20, 3))
@example(([(2,), (3,), (2, 1)], B11, 3))
def test_left_and_right_span_checks_agree(inputs):
    # check_ideal tests z (x) v only; its docstring proves that v (x) z
    # then holds too, by the reversal of positions.
    shapes, basis, n_max = inputs
    left = check_ideal_by_span(shapes, basis, n_max, sides=("left",))
    right = check_ideal_by_span(shapes, basis, n_max, sides=("right",))
    assert left == right == check_ideal_by_span(shapes, basis, n_max)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_shape_sets())
@example(([(1, 1)], B20, 3))
@example(([(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)], B20, 3))
def test_check_ideal_iff_upward_closed_in_hook(inputs):
    # The paper's bijection: the blocks of S form an ideal iff S, cut to
    # the hook H(k,l) and to sizes up to n_max, is closed under adding a
    # cell that stays in both.  A block outside the hook is zero.
    shapes, basis, n_max = inputs
    kept = {lam for lam in shapes if in_hook(lam, basis.k, basis.l) and sum(lam) <= n_max}
    closed = all(
        mu in kept
        for lam in kept
        if sum(lam) < n_max
        for mu in _adding_a_box(lam)
        if in_hook(mu, basis.k, basis.l)
    )
    assert check_ideal(shapes, basis, n_max) == closed

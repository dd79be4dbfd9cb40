import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from filteralg.filters import Filter, classical_identity_degree
from filteralg.partitions import contains, enumerate_partitions


def all_partitions_upto(n_max):
    return [lam for n in range(n_max + 1) for lam in enumerate_partitions(n)]


@st.composite
def generator_sets(draw, max_count=5):
    count = draw(st.integers(min_value=1, max_value=max_count))
    gens = []
    for _ in range(count):
        n = draw(st.integers(min_value=0, max_value=8))
        if n == 0:
            gens.append(())
            continue
        k = draw(st.integers(min_value=1, max_value=n))
        bins = draw(
            st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n)
        )
        gens.append(tuple(sorted(Counter(bins).values(), reverse=True)))
    return gens


def test_member_examples():
    f = Filter([(2, 1)])
    assert f.member((3, 2))
    assert not f.member((1, 1, 1, 1, 1))
    assert Filter([()]).member((7, 3))
    assert Filter([()]).member(())


def test_minimize_examples():
    assert set(Filter([(2, 1), (2, 2), (3,)]).generators) == {(2, 1), (3,)}
    assert Filter([(5, 2)]).generators == ((5, 2),)
    assert Filter([(1, 1), (2,), (1,)]).generators == ((1,),)


def test_minimize_is_idempotent_antichain():
    rng = random.Random(5)
    shapes = all_partitions_upto(6)
    for _ in range(30):
        gens = rng.sample(shapes, rng.randint(1, 6))
        f = Filter(gens)
        again = Filter(f.generators)
        assert again.generators == f.generators
        for a in f.generators:
            for b in f.generators:
                if a != b:
                    assert not contains(a, b)


@given(generator_sets())
def test_minimize_preserves_membership(gens):
    f = Filter(gens)
    for lam in all_partitions_upto(7):
        assert f.member(lam) == any(contains(g, lam) for g in gens)


def test_ambient_rectangle_is_adjoined():
    f = Filter([(4, 1)], (1, 1))
    assert set(f.generators) == {(2, 2), (4, 1)}
    # generators above the rectangle are absorbed
    assert Filter([(3, 2)], (1, 1)).generators == ((2, 2),)
    assert Filter([], (2, 0)).generators == ((1, 1, 1),)


@pytest.mark.parametrize("ambient", [(1, 1, 5), (1,), (), 3, "kl"])
def test_ambient_must_be_a_pair(ambient):
    # A longer tuple is not cut to its first two entries.
    with pytest.raises(ValueError):
        Filter([(2,)], ambient)


def test_ambient_pair_may_be_any_sequence():
    assert Filter([(2,)], [1, 1]) == Filter([(2,)], (1, 1))


def test_filter_is_an_immutable_value():
    f = Filter([(3,), (2,)], (1, 1))
    with pytest.raises(AttributeError):
        f.generators = ((1,),)
    with pytest.raises(AttributeError):
        f.ambient = (2, 0)
    assert f == Filter([(2,)], (1, 1))
    assert hash(f) == hash(Filter([(2,)], (1, 1)))
    assert len({f, Filter([(2,)], (1, 1)), Filter([(2,)], [1, 1])}) == 1
    assert f != Filter([(2,)], (2, 0))
    assert f != Filter([(2,)])


def test_union():
    assert Filter([(3,)]).union(Filter([(2,)])).generators == ((2,),)
    f = Filter([(2,)], (2, 0))
    assert f.union(f) == f
    merged = Filter([(2,)], (2, 0)).union(Filter([(1, 1)]))
    assert merged.ambient == (2, 0)
    assert merged.member((1, 1))
    with pytest.raises(ValueError):
        Filter([(2,)], (2, 0)).union(Filter([(2,)], (1, 1)))


def test_union_is_the_filter_of_the_union():
    f1 = Filter([(2, 1)], (2, 2))
    f2 = Filter([(3,), (1, 1, 1)], (2, 2))
    u = f1.union(f2)
    for lam in all_partitions_upto(8):
        assert u.member(lam) == (f1.member(lam) or f2.member(lam))


def test_complement_examples():
    assert Filter([(1, 1)], (2, 0)).complement_at(5) == [(5,)]
    assert Filter([(2, 1)], (3, 3)).complement_at(4) == [(4,), (1, 1, 1, 1)]
    assert Filter([()], (2, 1)).complement_at(3) == []
    # A column deeper than the default recursion limit of 1000.
    assert Filter([(2,)], (0, 1)).complement_at(1500) == [(1,) * 1500]
    with pytest.raises(ValueError):
        Filter([(2,)]).complement_at(2)


def test_hr_examples():
    assert Filter([()], (1, 1)).hr() == 0
    assert Filter([(1, 1)], (2, 0)).hr() == 2
    assert Filter([(1, 1, 1)], (2, 0)).hr() == 3
    for k in range(3):
        for l in range(3):
            rect = ((l + 1),) * (k + 1)
            assert Filter([rect], (k, l)).hr() == k + l + 1
    with pytest.raises(ValueError):
        Filter([(2,)]).hr()


def test_hr_agrees_with_direct_rectangle_search(catalog):
    # brute-force the defining condition with explicit witnesses b <= 12
    from filteralg.partitions import hook_rectangle

    for f in catalog:
        k, l = f.ambient
        expected = None
        for a in range(k + l + 2):
            if all(
                any(
                    f.member(hook_rectangle(a1, a - a1, b))
                    for b in range(max(a1, a - a1, 1), 13)
                )
                or (a == 0 and f.member(()))
                for a1 in range(a + 1)
            ):
                expected = a
                break
        assert f.hr() == expected, f


def test_hr_monotone_under_inclusion(catalog):
    for f1 in catalog:
        for f2 in catalog:
            if f1.ambient != f2.ambient:
                continue
            if all(f2.member(g) for g in f1.generators):
                assert f1.hr() >= f2.hr(), (f1, f2)


def test_exp_growth_examples():
    assert Filter([(1, 1)], (2, 0)).exp_growth() == 1
    assert Filter([(1, 1, 1)], (2, 0)).exp_growth() == 2
    assert Filter([(2, 2)], (1, 1)).exp_growth() == 2
    assert Filter([()], (1, 1)).exp_growth() == 0


def test_is_pi_classical_examples():
    assert Filter([(2, 2)], (2, 0)).is_pi_classical() == 2
    assert Filter([(1, 1, 1)], (2, 0)).is_pi_classical() is None
    assert Filter([(1, 1)], (2, 0)).is_pi_classical() == 1
    with pytest.raises(ValueError):
        Filter([(2,)], (1, 1)).is_pi_classical()


def test_is_pi_classical_matches_square_membership():
    for gens in [[(2, 2)], [(3, 1)], [(4,)], [(1, 1, 1)], [(2, 2), (3,)]]:
        f = Filter(gens, (3, 0))
        direct = next(
            (c for c in range(1, 12) if f.member((c, c))),
            None,
        )
        assert f.is_pi_classical() == direct, gens


def test_classical_identity_degree():
    assert classical_identity_degree(2, 2) == 3
    assert classical_identity_degree(1, 1) == 1
    assert classical_identity_degree(3, 4) == 10
    with pytest.raises(ValueError):
        classical_identity_degree(0, 2)


def test_is_pi_super_examples():
    assert Filter([(1, 1)], (1, 1)).is_pi_super() == 2
    assert Filter([(2,)], (1, 1)).is_pi_super() == 2
    assert Filter([(2, 2)], (1, 1)).is_pi_super() is None


def test_is_pi_super_matches_direct_search(catalog):
    from filteralg.partitions import hook_rectangle

    def check(f):
        # No threshold exceeds the largest generator's size.
        direct = next(
            (
                b
                for b in range(2, 3 + max(map(sum, f.generators)))
                if f.member(hook_rectangle(2, 0, b))
                and f.member(hook_rectangle(1, 1, b))
                and f.member(hook_rectangle(0, 2, b))
            ),
            None,
        )
        assert f.is_pi_super() == direct, f

    for f in catalog:
        check(f)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(generator_sets(max_count=4), st.integers(0, 4), st.integers(0, 4))
    def check_random(gens, k, l):
        check(Filter(gens, (k, l)))

    check_random()


def test_pi_iff_low_growth(catalog):
    assert len(catalog) >= 20
    for f in catalog:
        has_super = f.is_pi_super() is not None
        assert has_super == (f.hr() <= 2), f
        assert has_super == (f.exp_growth() <= 1), f


def test_classical_iff_super_for_even_ambients(catalog):
    for f in catalog:
        if f.ambient[1] != 0:
            continue
        assert (f.is_pi_classical() is not None) == (f.is_pi_super() is not None), f


def test_nilpotency_bound_examples():
    assert Filter([(3,), (1, 1)], (1, 0)).nilpotency_bound() == 3
    assert Filter([(1, 1)], (2, 0)).nilpotency_bound() is None
    for k, a in [(1, 2), (1, 4), (2, 3), (3, 2)]:
        assert Filter([(a,)], (k, 0)).nilpotency_bound() == k * (a - 1) + 1
    assert Filter([()], (1, 0)).nilpotency_bound() == 0


def test_nilpotency_bound_is_least(catalog):
    for f in catalog:
        bound = f.nilpotency_bound()
        if bound is None:
            assert f.hr() >= 2
            continue
        assert all(not f.complement_at(n) for n in range(bound, 3 * bound + 3))
        if bound > 0:
            assert f.complement_at(bound - 1)


def test_complements_vanish_iff_finite(catalog):
    for f in catalog:
        bound = f.nilpotency_bound()
        horizon = 3 * (bound or 4) + 3
        eventually_zero = all(
            not f.complement_at(n) for n in range(horizon, horizon + 3)
        )
        assert eventually_zero == (f.hr() <= 1), f


def test_member_upward_closed(catalog):
    shapes = all_partitions_upto(7)
    for f in catalog[:8]:
        for mu in shapes:
            if not f.member(mu):
                continue
            for lam in shapes:
                if contains(mu, lam):
                    assert f.member(lam)


def test_json_round_trip(tmp_path):
    f = Filter([(2, 1), (3,)], (2, 0))
    data = f.to_json()
    assert data == {"k": 2, "l": 0, "generators": [[3], [2, 1], [1, 1, 1]]}
    assert Filter.from_json(data) == f
    path = tmp_path / "filter.json"
    f.save(path)
    assert Filter.load(path) == f
    g = Filter([(2,)])
    assert Filter.from_json(g.to_json()) == g
    with pytest.raises(ValueError):
        Filter.from_json({"k": 2, "generators": []})
    loaded = Filter.from_json(json.loads('{"k":2, "l":0, "generators":[[2,1],[3]]}'))
    assert loaded == f


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"generators": "2"}',
        '{"generators": [2]}',
        '{"generators": [[2, "1"]]}',
        '{"k": true, "l": 0, "generators": []}',
        '{"k": 2.0, "l": 0, "generators": []}',
    ],
)
def test_from_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        Filter.from_json(json.loads(text))

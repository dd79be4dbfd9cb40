from collections import Counter

import pytest
from hypothesis import given, strategies as st

from filteralg.partitions import (
    check_partition,
    conjugate,
    contains,
    display_partition,
    enumerate_avoiding,
    enumerate_partitions,
    format_partition,
    hook_rectangle,
    in_hook,
    parse_partition,
)
from reference import c_stat


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def all_partitions_upto(n_max):
    return [lam for n in range(n_max + 1) for lam in enumerate_partitions(n)]


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition(()) == ()


class _Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "parts", [[2.7, 1], [3.0], [3, 1.0], [True], [2, False], ["3"], "31", [3, None]]
)
def test_check_partition_rejects_non_integer_parts(parts):
    # int() used to truncate 2.7 to 2 and parse "3".
    with pytest.raises(ValueError):
        check_partition(parts)


def test_check_partition_accepts_index_types():
    lam = check_partition([_Index(3), 1])
    assert lam == (3, 1)
    assert all(type(p) is int for p in lam)


def test_parse_and_format_round_trip():
    assert parse_partition("7^3,2^4") == (7, 7, 7, 2, 2, 2, 2)
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("(2,1)") == (2, 1)
    assert parse_partition("") == ()
    assert parse_partition("()") == ()
    assert format_partition((7, 7, 7, 2, 2, 2, 2)) == "7,7,7,2,2,2,2"
    assert display_partition(()) == "()"
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_contains_examples():
    assert contains((2, 1), (3, 2))
    assert contains((), (4, 4, 1))
    assert not contains((2, 2), (3, 1))


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate(()) == ()


@given(partition_strategy())
def test_conjugate_is_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_conjugate_counts_column_cells():
    # Column j has one cell in every row longer than j.
    for lam in all_partitions_upto(12):
        expected = tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))
        assert conjugate(lam) == expected, lam


def test_in_hook_examples():
    assert not in_hook((2, 2), 1, 1)
    assert in_hook((4, 1, 1, 1), 1, 1)
    assert in_hook((3, 2), 2, 0)
    assert in_hook((), 0, 0)


@given(partition_strategy(), st.integers(0, 4), st.integers(0, 4))
def test_in_hook_conjugate_duality(lam, k, l):
    assert in_hook(lam, k, l) == in_hook(conjugate(lam), l, k)


def test_hook_rectangle_examples():
    assert hook_rectangle(3, 2, 7) == (7, 7, 7, 2, 2, 2, 2)
    assert sum(hook_rectangle(3, 2, 7)) == 29
    assert hook_rectangle(2, 0, 3) == (3, 3)
    assert hook_rectangle(0, 2, 3) == (2, 2, 2)
    assert hook_rectangle(0, 0, 0) == ()
    with pytest.raises(ValueError):
        hook_rectangle(3, 2, 2)


def test_hook_rectangle_geometry():
    for a1 in range(4):
        for a2 in range(4):
            for b in range(max(a1, a2), max(a1, a2) + 3):
                d = hook_rectangle(a1, a2, b)
                assert sum(d) == (a1 + a2) * b - a1 * a2
                if a1 >= 1:
                    assert d[0] == b
                if a2 >= 1 and b >= 1:
                    assert conjugate(d)[0] == b
                assert conjugate(d) == hook_rectangle(a2, a1, b)


def test_enumerate_counts_and_order():
    assert list(enumerate_partitions(0)) == [()]
    p4 = list(enumerate_partitions(4))
    assert p4 == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [lam for lam in p4 if in_hook(lam, 1, 1)] == [
        (4,),
        (3, 1),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    # p(n) for n = 0..10
    counts = [len(list(enumerate_partitions(n))) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_c_stat():
    assert c_stat((5, 2, 1)) == 3
    assert c_stat((7,)) == 0
    assert c_stat((1,) * 6) == 5
    assert c_stat(()) == 0


def test_containment_is_partial_order():
    shapes = all_partitions_upto(10)
    rel = {}
    for a in shapes:
        for b in shapes:
            if contains(a, b):
                rel.setdefault(a, []).append(b)
    # reflexive, antisymmetric
    for a in shapes:
        assert contains(a, a)
        for b in rel.get(a, ()):
            if contains(b, a):
                assert a == b
    # transitive over the realized relation pairs
    for a, bigger in rel.items():
        for b in bigger:
            for c in rel.get(b, ()):
                assert contains(a, c)


def test_containment_conjugation_compatibility():
    shapes = all_partitions_upto(10)
    for a in shapes:
        ac = conjugate(a)
        for b in shapes:
            assert contains(a, b) == contains(ac, conjugate(b))


@pytest.mark.parametrize("b", [2, 3])
def test_large_core_shapes_contain_a_witness(b):
    # every shape of size <= 4*b^2 with at least b^2 cells both below the
    # first row and right of the first column contains one of the three
    # canonical sub-shapes
    t = b * b
    targets = [(b,) + (1,) * (b - 1), (b, b), (2,) * b]
    for n in range(4 * t + 1):
        for lam in enumerate_partitions(n):
            if c_stat(lam) >= t and c_stat(conjugate(lam)) >= t:
                assert any(contains(tgt, lam) for tgt in targets), lam


@given(st.lists(partition_strategy(max_n=6), max_size=3), st.integers(0, 9))
def test_enumerate_avoiding_matches_filtering(gens, n_max):
    walked = list(enumerate_avoiding(gens, n_max))
    assert len(set(walked)) == len(walked)
    for n in range(n_max + 1):
        expected = [
            lam for lam in enumerate_partitions(n)
            if not any(contains(g, lam) for g in gens)
        ]
        assert [lam for lam in walked if sum(lam) == n] == expected, n
    with pytest.raises(ValueError):
        list(enumerate_avoiding(gens, -1))

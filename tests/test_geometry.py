import itertools

import pytest

from kakeya.core import level_masks
from kakeya.field import field_mul, make_field
from kakeya.geometry import (
    Direction,
    SubspaceBasis,
    count_directions_formula,
    count_fiber,
    count_spanning_tuples,
    count_subspaces,
    dot,
    enumerate_directions,
    enumerate_subspaces,
    null_space_basis,
    point_coords,
    point_index,
    rank,
    rref,
)
from kakeya.oracles import span_count_brute, spanning_tuple_census

SMALL_GRID = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (5, 1, 2)]
# (p, k, n) cells on which the hyperplane facts are checked on the level
# masks the search uses
MASK_GRID = [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 2), (3, 2, 2)]


def _hyperplane(f, n, normal, level):
    """Bitmask of the points x with normal . x = level."""
    return level_masks(f, n, [Direction(normal)])[0][level]


def _members(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def test_point_index_roundtrip():
    for q, n in [(2, 3), (3, 2), (5, 2)]:
        for idx in range(q**n):
            assert point_index(point_coords(idx, q, n), q) == idx
    assert point_index((1, 2), 3) == 7
    assert point_coords(7, 3, 2) == (1, 2)
    with pytest.raises(ValueError):
        point_index((3, 0), 3)
    with pytest.raises(ValueError):
        point_coords(9, 3, 2)


def test_directions_example_2_2():
    f = make_field(2, 1)
    assert [d.normal for d in enumerate_directions(f, 2)] == [(1, 0), (0, 1), (1, 1)]


def test_single_direction_for_n_1():
    for p in (2, 3, 5):
        f = make_field(p, 1)
        assert len(enumerate_directions(f, 1)) == 1
        assert count_directions_formula(p, 1) == 1


@pytest.mark.parametrize("p,k,n", SMALL_GRID)
def test_direction_count_formula_and_brute_force(p, k, n):
    f = make_field(p, k)
    dirs = enumerate_directions(f, n)
    assert len(dirs) == count_directions_formula(f.q, n)
    assert len(dirs) == span_count_brute(f, n)
    assert len(dirs) == count_subspaces(f.q, n, n - 1)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_directions_equal_brute_filter(p, k, n):
    f = make_field(p, k)
    q = f.q
    brute = []
    for idx in range(1, q**n):
        coords = point_coords(idx, q, n)
        if next(a for a in coords if a) == 1:
            brute.append(Direction(coords))
    assert enumerate_directions(f, n) == brute


@pytest.mark.parametrize("p,k,n", SMALL_GRID)
def test_directions_canonical_and_ordered(p, k, n):
    f = make_field(p, k)
    q = f.q
    dirs = enumerate_directions(f, n)
    indices = [d.index(q) for d in dirs]
    assert indices == sorted(indices)
    spans = set()
    for d in dirs:
        first = next(a for a in d.normal if a)
        assert first == 1
        span = frozenset(
            tuple(field_mul(f, c, x) for x in d.normal) for c in range(1, q)
        )
        assert span not in spans  # one representative per 1-dim span
        spans.add(span)


def test_spanning_tuple_examples():
    assert count_spanning_tuples(2, 3) == 42
    assert count_fiber(2, 3) == 6
    assert count_spanning_tuples(2, 2) == 3
    assert count_spanning_tuples(3, 2) == 8
    assert count_fiber(3, 2) == 2
    with pytest.raises(ValueError):
        count_spanning_tuples(2, 1)
    with pytest.raises(ValueError):
        count_fiber(3, 1)


def test_direction_count_equals_gaussian_binomial_full_grid():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in (2, 3, 4):
            if q**n <= 10**5:
                assert count_subspaces(q, n, n - 1) == count_directions_formula(q, n)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_census_matches_product_formulas(p, n):
    f = make_field(p, 1)
    total, fibers = spanning_tuple_census(f, n)
    assert total == count_spanning_tuples(f.q, n)
    assert len(fibers) == count_directions_formula(f.q, n)
    assert set(fibers.values()) == {count_fiber(f.q, n)}
    assert count_spanning_tuples(f.q, n) % count_fiber(f.q, n) == 0
    assert count_spanning_tuples(f.q, n) // count_fiber(f.q, n) == len(fibers)


def test_count_subspaces_values():
    assert count_subspaces(2, 3, 1) == 7
    assert count_subspaces(3, 3, 2) == 13
    for q, n in [(2, 3), (3, 2), (4, 4)]:
        assert count_subspaces(q, n, n) == 1
        assert count_subspaces(q, n, 0) == 1
        assert count_subspaces(q, n, n - 1) == count_directions_formula(q, n)
    with pytest.raises(ValueError):
        count_subspaces(2, 3, 4)


def test_count_lines_brute_force_2_3():
    # group nonzero vectors of F_2^3 by their 1-dim span
    f = make_field(2, 1)
    spans = set()
    for idx in range(1, 8):
        v = point_coords(idx, 2, 3)
        spans.add(frozenset({v}))  # over F_2 the span is the vector itself
    assert len(spans) == count_subspaces(2, 3, 1) == 7


@pytest.mark.parametrize("p,k,n,dim", [(2, 1, 2, 1), (2, 1, 3, 1), (2, 1, 3, 2),
                                       (3, 1, 2, 1), (3, 1, 3, 2), (2, 2, 2, 1)])
def test_enumerate_subspaces_counts_and_rref(p, k, n, dim):
    f = make_field(p, k)
    subs = enumerate_subspaces(f, n, dim)
    assert len(subs) == count_subspaces(f.q, n, dim)
    assert len(set(subs)) == len(subs)
    for sub in subs:
        reduced, pivots = rref(f, sub.rows)
        assert reduced == sub.rows  # already in reduced form
        assert list(pivots) == sorted(pivots)
        assert len(pivots) == dim


def test_enumerate_subspaces_degenerate():
    f = make_field(3, 1)
    assert enumerate_subspaces(f, 3, 0)[0].rows == ()
    assert len(enumerate_subspaces(f, 2, 1)) == 4
    f2 = make_field(2, 1)
    assert len(enumerate_subspaces(f2, 2, 1)) == 3


def test_direction_subspace_duality_bijection():
    f = make_field(3, 1)
    n = 3
    dirs = enumerate_directions(f, n)
    # the null space of each normal, in RREF
    via_duality = {SubspaceBasis(rref(f, null_space_basis(f, [d.normal], n))[0]) for d in dirs}
    enumerated = set(enumerate_subspaces(f, n, n - 1))
    assert via_duality == enumerated
    assert len(via_duality) == len(dirs)
    # each normal annihilates its null space
    for d in dirs:
        for row in null_space_basis(f, [d.normal], n):
            assert dot(f, d.normal, row) == 0


def test_direction_subspace_has_rank_n_minus_1():
    f = make_field(2, 1)
    for d in enumerate_directions(f, 3):
        basis = null_space_basis(f, [d.normal], 3)
        assert rank(f, basis) == 2


def test_hyperplane_points_example_2_2():
    f = make_field(2, 1)
    assert _members(_hyperplane(f, 2, (1, 0), 0)) == [0, 2]  # (0,0) and (0,1)


def test_hyperplane_points_example_3_2():
    f = make_field(3, 1)
    expected = sorted(
        point_index(c, 3)
        for c in itertools.product(range(3), repeat=2)
        if sum(c) % 3 == 2
    )
    assert _members(_hyperplane(f, 2, (1, 1), 2)) == expected
    assert len(expected) == 3


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), *MASK_GRID])
def test_hyperplane_size_is_q_pow_n_minus_1(p, k, n):
    """Every level mask has q^(n-1) points, and the q levels of one
    direction partition F_q^n."""
    f = make_field(p, k)
    q = f.q
    for row in level_masks(f, n):
        assert [m.bit_count() for m in row] == [q ** (n - 1)] * q
        union = 0
        for m in row:
            union |= m
        assert union == (1 << q**n) - 1  # q sets of q^(n-1) points cover q^n


def test_intersect_hyperplanes_example_3_2():
    f = make_field(3, 1)
    inter = _hyperplane(f, 2, (1, 0), 0) & _hyperplane(f, 2, (0, 1), 0)
    assert _members(inter) == [0]  # just the origin


def test_intersect_hyperplanes_cases():
    f = make_field(3, 1)
    parallel = _hyperplane(f, 2, (1, 2), 0) & _hyperplane(f, 2, (1, 2), 1)
    assert parallel == 0
    same = _hyperplane(f, 2, (1, 2), 1) & _hyperplane(f, 2, (1, 2), 1)
    assert same.bit_count() == 3


@pytest.mark.parametrize("p,k,n", MASK_GRID)
def test_intersect_all_distinct_direction_pairs(p, k, n):
    """Masks of distinct directions meet in exactly q^(n-2) points: the
    `pair` the search's overlap bound relies on."""
    f = make_field(p, k)
    pair = f.q ** (n - 2)
    masks = level_masks(f, n)
    assert len(masks) == count_directions_formula(f.q, n)
    for row1, row2 in itertools.combinations(masks, 2):
        for m1 in row1:
            for m2 in row2:
                assert (m1 & m2).bit_count() == pair


def test_rref_reproduces_known_form():
    f = make_field(2, 1)
    reduced, pivots = rref(f, [(1, 1, 0), (0, 1, 1)])
    assert pivots == (0, 1)
    assert reduced == ((1, 0, 1), (0, 1, 1))
    assert rank(f, [(1, 1, 0), (1, 1, 0)]) == 1

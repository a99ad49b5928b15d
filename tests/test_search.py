import errno
import functools
import gc
import inspect
import itertools
import math
import multiprocessing
import os
import random
import sys
import threading
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya import core, oracles, search
from kakeya.bounds import kakeya_lower_bound_ceiling
from kakeya.core import KakeyaVerdict, OffsetAssignment, build_union, is_kakeya, level_masks
from kakeya.field import factor_prime_power, field_inv, field_mul, field_pow, make_field
from kakeya.geometry import enumerate_directions, point_coords, point_index
from kakeya.pointset import PointSet
from kakeya.search import (
    greedy_upper_bound,
    minimal_kakeya_exact,
    minimal_kakeya_powerset,
)

KNOWN_MINIMA = [(2, 2, 3), (2, 3, 7), (3, 2, 7)]
# (p, k, n) cells small enough for _assignment_minimum_brute
BRUTE_CELLS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)]
# planar fields (p, k) whose minimum the search proves within a few seconds
PLANAR_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (2, 2), (2, 3)]
# canonical witnesses of proven cells, which no prune may change
CANONICAL_WITNESSES = {
    (5, 1, 2): (0, 0, 0, 1, 2, 4),
    (7, 1, 2): (0, 0, 0, 1, 3, 6, 3, 1),
    (3, 2, 2): (0, 0, 0, 1, 4, 7, 2, 7, 4, 2),
    (2, 2, 3): (0, 0, 0, 0, 1, 0, 1, 3, 2, 3, 0, 3, 2, 1, 2, 0, 2, 1, 3, 1, 0),
    (11, 1, 2): (0, 0, 0, 1, 3, 6, 10, 4, 10, 6, 3, 1),
}
# (p, k, n) cells on which the axis maps are checked point by point
AXIS_CELLS = [(5, 1, 2), (3, 2, 2), (2, 3, 2), (3, 1, 3), (2, 2, 3), (2, 1, 4)]
# (p, k, n) cells for the carried counts; a hyperplane of F_2^9 (q = 2,
# n = 9) has 256 points, so that cell's counts take two bytes each
COUNT_CELLS = [(2, 1, 2), (5, 1, 2), (7, 1, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2),
               (2, 1, 3), (3, 1, 3), (2, 2, 3), (2, 1, 4), (3, 1, 4), (2, 1, 9)]
# nodes_explored with workers=1; the prunes and the branching order fix them.
# For n >= 3 they count the gap-set engine's nodes: (3,3) follows from the
# lemmas alone, and (4,3) from them and (4,2), which closes on its greedy bound.
NODE_COUNTS = [((5, 1, 2), 12), ((7, 1, 2), 204), ((2, 3, 2), 0), ((3, 2, 2), 2_568),
               ((3, 1, 3), 0), ((2, 2, 3), 0), ((2, 1, 4), 0)]
# nodes of the level search alone on n >= 3 cells, from the greedy
# incumbent with the paper's bound as the early exit
LEVEL_NODE_COUNTS = [((3, 1, 3), 10), ((2, 2, 3), 236)]


def _assignment_minimum_brute(f, n):
    """Exhaustive scan over every level assignment; wholly independent of
    the branch-and-bound machinery."""
    dirs = enumerate_directions(f, n)
    best_size = None
    best_levels = None
    for levels in itertools.product(range(f.q), repeat=len(dirs)):
        size = build_union(f, n, OffsetAssignment(levels)).cardinality
        if best_size is None or size < best_size:
            best_size, best_levels = size, levels
    return best_size, best_levels


@pytest.mark.parametrize("p,n,expected", KNOWN_MINIMA)
def test_exact_minima(p, n, expected):
    f = make_field(p, 1)
    result = minimal_kakeya_exact(f, n)
    assert result.min_size == expected
    assert result.proof_of_optimality
    assert result.min_size >= kakeya_lower_bound_ceiling(f.q, n)
    union = build_union(f, n, result.witness)
    assert union.cardinality == expected
    assert is_kakeya(f, union).ok


def test_bound_attained_at_2_2_and_2_3():
    for p, n in [(2, 2), (2, 3)]:
        f = make_field(p, 1)
        assert minimal_kakeya_exact(f, n).min_size == kakeya_lower_bound_ceiling(p, n)


def _search_from_scratch(f, n, frame=True, axes=True):
    """Branch and bound with no greedy incumbent and no lower-bound exit,
    so the prunes decide the whole tree.  With `frame` it starts from the
    search's root, the axis directions at level 0; without, from the empty
    union with every direction free.  `axes` turns the isomorph check two
    levels down on or off (it needs the frame)."""
    dirs, table, root = search._search_space(f, n)
    if not frame:
        root = (0, table.full, list(range(table.s)), [0] * table.s)
    maps = search._AxisMaps(f, dirs, root[2]) if frame and axes else None
    searcher = search._Searcher(table, 10**7, 0, f.q**n + 1, axes=maps)
    assert searcher.run(*root)
    assert searcher.completed
    witness = OffsetAssignment(tuple(searcher.found_levels))
    assert build_union(f, n, witness).cardinality == searcher.found_size
    return searcher.found_size


def test_exact_matches_brute_force_assignment_scan():
    for p, k, n in BRUTE_CELLS:
        f = make_field(p, k)
        brute, _ = _assignment_minimum_brute(f, n)
        result = minimal_kakeya_exact(f, n)
        assert result.proof_of_optimality
        assert result.min_size == brute
        assert _search_from_scratch(f, n) == brute
        assert _search_from_scratch(f, n, axes=False) == brute
        assert _search_from_scratch(f, n, frame=False) == brute


def test_run_stops_on_a_spent_budget_or_a_met_lower_bound():
    f = make_field(7, 1)
    _, table, root = search._search_space(f, 2)
    spent = search._Searcher(table, 5, 0, 50)
    assert not spent.run(*root)
    assert (spent.nodes, spent.completed, spent.hit_lb) == (5, False, False)
    assert not spent.run(*root)  # the budget covers every call
    assert spent.nodes == 5
    # with the lower bound at q^n the first leaf meets it
    met = search._Searcher(table, 10**6, 49, 50)
    assert not met.run(*root)
    assert met.completed and met.hit_lb and met.found_size <= 49
    done = search._Searcher(table, 10**6, 0, 50)
    assert done.run(*root) and done.run(*root)
    assert done.completed and not done.hit_lb
    assert done.outcome() == (31, done.found_levels, done.nodes, True, False)


def test_workers_take_up_the_shared_incumbent_with_each_batch():
    """A worker's shared array holds (incumbent size, nodes left): each
    draw takes a batch and the incumbent under one lock, and a worker's own
    find never raises the incumbent."""
    _, table, _ = search._search_space(make_field(7, 1), 2)
    shared = multiprocessing.get_context().Array("q", (47, 100))
    searcher = search._Searcher(table, 0, 31, 50, shared)
    assert searcher._draw()
    assert (searcher.bound, searcher.budget, shared[:]) == (47, search._NODE_BATCH, [47, 36])
    shared[0] = 46
    searcher._enter()  # a node inside the batch reads nothing shared
    assert searcher.bound == 47
    assert searcher._draw()
    assert (searcher.bound, searcher.budget, shared[:]) == (46, 100, [46, 0])
    shared[0] = 45
    assert not searcher._draw()  # the pool is empty, the incumbent still taken up
    assert (searcher.bound, searcher.budget) == (45, 100)
    searcher._record(46)
    assert shared[0] == 45
    searcher._record(40)
    assert shared[0] == 40


def test_search_from_scratch_agrees_across_normalization():
    for p, k, n in [(7, 1, 2), (3, 1, 3), (2, 2, 3)]:
        f = make_field(p, k)
        plain = _search_from_scratch(f, n, frame=False)
        assert _search_from_scratch(f, n) == plain
        assert _search_from_scratch(f, n, axes=False) == plain


def _point_map(f, n, perm, mu, j):
    """Point index x -> y, y[perm[i]] = x_i^(p^j) / mu_i, by per-element
    field arithmetic on coordinates."""
    out = []
    for idx in range(f.q**n):
        x = point_coords(idx, f.q, n)
        y = [0] * n
        for i in range(n):
            y[perm[i]] = field_mul(f, field_inv(f, mu[i]), field_pow(f, x[i], f.p**j))
        out.append(point_index(y, f.q))
    return out


@pytest.mark.parametrize("p,k,n", AXIS_CELLS)
def test_axis_maps_match_their_point_maps(p, k, n):
    """The closed formula for the image of (direction, level) agrees with
    pushing every point of the hyperplane through the map."""
    f = make_field(p, k)
    dirs = enumerate_directions(f, n)
    masks = level_masks(f, n, dirs)
    axes = search._AxisMaps(f, dirs, range(len(dirs)))
    assert len(axes.maps) == math.factorial(n) * (f.q - 1) ** (n - 1) * k
    for m, (perm, mu, j) in enumerate(axes.maps):
        to = _point_map(f, n, perm, mu, j)
        for d in range(len(dirs)):
            e, levels = axes.image(d)[m]
            for c in range(f.q):
                image = 0
                for idx in range(f.q**n):
                    if masks[d][c] >> idx & 1:
                        image |= 1 << to[idx]
                assert image == masks[e][levels[c]]


@pytest.mark.parametrize("p,k,n", [(5, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_axis_key_names_the_orbit(p, k, n):
    """Every image of a pair of (direction, level) pairs under the maps and
    the scalings has the pair's key, and the key is one of those images."""
    f = make_field(p, k)
    dirs = enumerate_directions(f, n)
    axes = search._AxisMaps(f, dirs, range(len(dirs)))
    rng = random.Random(5)
    for _ in range(8):
        d1, d2 = rng.sample(range(len(dirs)), 2)
        c1, c2 = rng.randrange(f.q), rng.randrange(f.q)
        key = axes.key(d1, c1, d2, c2)
        images = set()
        for (e1, t1), (e2, t2) in zip(axes.image(d1), axes.image(d2)):
            for a in range(1, f.q):
                b1, b2 = field_mul(f, a, t1[c1]), field_mul(f, a, t2[c2])
                assert axes.key(e1, b1, e2, b2) == key
                images.add(min((e1, b1, e2, b2), (e2, b2, e1, b1)))
        assert key in images


@pytest.mark.parametrize("p,k,n", [(5, 1, 2), (7, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3)])
def test_nodes_two_down_with_one_key_have_one_subtree_minimum(p, k, n):
    """Every node two levels below the search's root, searched to the end
    on its own: nodes that share a key share the subtree minimum."""
    f = make_field(p, k)
    dirs, table, (base_mask, _, free, _) = search._search_space(f, n)
    masks = table.masks
    axes = search._AxisMaps(f, dirs, free)
    minima = {}
    for d1, d2 in itertools.combinations(free, 2):
        rest = [d for d in free if d not in (d1, d2)]
        for c1, c2 in itertools.product(range(f.q), repeat=2):
            levels = [0] * len(dirs)
            levels[d1], levels[d2] = c1, c2
            mask = base_mask | masks[d1][c1] | masks[d2][c2]
            searcher = search._Searcher(table, 10**6, 0, f.q**n + 1)
            searcher.run(mask, table.cover(table.full, mask), rest, levels)
            minima.setdefault(axes.key(d1, c1, d2, c2), set()).add(searcher.found_size)
    assert all(len(found) == 1 for found in minima.values())
    assert len(minima) < len(free) * (len(free) - 1) // 2 * f.q**2


def test_scaling_levels_keeps_the_union_size():
    """x -> a*x maps level c of every direction to a*c: the symmetry
    behind trying only levels 0 and 1 on an all-zero path."""
    rng = random.Random(7)
    for p, k, n in [(5, 1, 2), (7, 1, 2), (3, 2, 2), (2, 2, 3), (3, 1, 3)]:
        f = make_field(p, k)
        s = len(enumerate_directions(f, n))
        for _ in range(5):
            levels = [rng.randrange(f.q) for _ in range(s)]
            size = build_union(f, n, OffsetAssignment(tuple(levels))).cardinality
            for a in range(1, f.q):
                scaled = tuple(field_mul(f, a, c) for c in levels)
                assert build_union(f, n, OffsetAssignment(scaled)).cardinality == size


def test_overlap_bound_on_hand_made_gains():
    bound = search._overlap_bound
    assert bound([], 3) == 0
    assert bound([0, 0, 0], 1) == 0
    assert bound([6], 4) == 6
    assert bound([6, 6], 1) == 11  # one pair shares one point
    assert bound([3, 9, 5], 3) == 11  # 9 + (5 - 3); adding 3 would cost 6
    assert bound([4, 4, 4, 4], 2) == 6  # t = 2 and t = 3 tie, t = 4 gives 4
    rng = random.Random(3)
    for _ in range(300):
        gains = [rng.randrange(30) for _ in range(rng.randrange(9))]
        pair = rng.randrange(1, 7)
        top = sorted(gains, reverse=True)
        best = max(sum(top[:t]) - t * (t - 1) // 2 * pair for t in range(len(top) + 1))
        assert bound(gains, pair) == best


def test_overlap_bound_never_exceeds_what_a_completion_adds():
    rng = random.Random(11)
    for p, k, n in [(5, 1, 2), (7, 1, 2), (3, 1, 3), (2, 2, 3)]:
        f = make_field(p, k)
        masks = level_masks(f, n)
        s = len(masks)
        for _ in range(40):
            order = rng.sample(range(s), s)
            cut = rng.randrange(s)
            mask = 0
            for d in order[:cut]:
                mask |= masks[d][rng.randrange(f.q)]
            msize = mask.bit_count()
            gains = [min((mask | row[lvl]).bit_count() - msize for lvl in range(f.q))
                     for row in (masks[d] for d in order[cut:])]
            for _ in range(5):
                full = mask
                for d in order[cut:]:
                    full |= masks[d][rng.randrange(f.q)]
                assert full.bit_count() - msize >= search._overlap_bound(gains, f.q ** (n - 2))


@functools.cache
def _count_table(p, k, n):
    f = make_field(p, k)
    dirs = enumerate_directions(f, n)
    masks = level_masks(f, n, dirs)
    return f, masks, search._Counts(f, n, masks)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_carried_counts_match_popcounts(data):
    """Counts carried down a random partial assignment, one direction at a
    time, equal the uncovered points of every hyperplane, and the cheapest
    gains they give equal those counted on the union."""
    p, k, n = data.draw(st.sampled_from(COUNT_CELLS))
    f, masks, table = _count_table(p, k, n)
    s = len(masks)
    if (p, k, n) == (2, 1, 9):
        assert table.w == 2
    order = data.draw(st.permutations(range(s)))
    cut = data.draw(st.integers(0, min(s, 12)))
    mask, counts = 0, table.full
    for d in order[:cut]:
        row = masks[d][data.draw(st.integers(0, f.q - 1))]
        counts = table.cover(counts, row & ~mask)
        mask |= row
    lanes = table.lanes(counts)
    for d in range(s):
        for lvl in range(f.q):
            assert lanes[d * f.q + lvl] == (masks[d][lvl] & ~mask).bit_count()
    free = order[cut:]
    msize = mask.bit_count()
    assert table.gains(lanes, free) == [
        min((mask | masks[d][lvl]).bit_count() - msize for lvl in range(f.q)) for d in free]


@pytest.mark.parametrize("p,k,n", [(5, 1, 2), (2, 2, 3), (2, 1, 9), (257, 1, 1)])
def test_count_rows_mark_the_hyperplanes_through_each_point(p, k, n):
    """Row x has a 1 in lane (d, c) exactly when x is on hyperplane (d, c);
    (2,9) has two-byte lanes, and F_257 has more levels than a byte holds."""
    f = make_field(p, k)
    dirs = enumerate_directions(f, n)
    masks = level_masks(f, n, dirs)
    table = search._Counts(f, n, masks)
    q, shift = f.q, 8 * table.w
    for x, row in enumerate(table.pts):
        levels = [next(c for c in range(q) if masks[d][c] >> x & 1) for d in range(len(dirs))]
        assert row == sum(1 << shift * (d * q + c) for d, c in enumerate(levels))


@pytest.mark.parametrize("p,k,n", [(5, 1, 2), (2, 1, 9), (257, 1, 1)])
def test_count_rows_built_in_blocks_match_one_block(p, k, n, monkeypatch):
    """Blocks of 1 and of 7 points, the last one short, give the rows that
    one block gives."""
    f = make_field(p, k)
    masks = level_masks(f, n)
    whole = search._Counts(f, n, masks)
    for points in (1, 7):
        monkeypatch.setattr(search, "_COUNT_BLOCK_BYTES", points * whole.nbytes)
        table = search._Counts(f, n, masks)
        assert (table.pts, table.full) == (whole.pts, whole.full)


def test_count_lanes_are_one_or_two_bytes(monkeypatch):
    assert [search._lane_width(most) for most in (0, 255, 256, 65_535)] == [1, 1, 2, 2]
    with pytest.raises(ValueError, match="hyperplanes of 65536 points need count lanes wider"):
        search._lane_width(1 << 16)

    # Masks within the cap leave fewer than 2^16 points per hyperplane, so
    # only a raised cap reaches the refusal, still before any direction is
    # listed: F_2^17 has 2^16 points per hyperplane.
    def refuse(*args):
        raise AssertionError("directions listed")

    monkeypatch.setattr(core, "MASK_BITS_CAP", 1 << 60)
    monkeypatch.setattr(search, "enumerate_directions", refuse)
    with pytest.raises(ValueError, match="hyperplanes of 65536 points need count lanes wider"):
        minimal_kakeya_exact(make_field(2, 1), 17)


def test_search_beyond_one_byte_per_field_element():
    result = minimal_kakeya_exact(make_field(257, 1), 1)
    assert result.proof_of_optimality
    assert (result.min_size, result.witness.levels) == (1, (0,))


def test_child_floor_never_exceeds_the_childs_own_bound():
    """A child's hyperplane takes at most `pair` points from any other
    direction's, so the floor priced from its parent's gains never passes
    the overlap bound of the child's own gains, whatever direction and level
    it takes.  For the direction of the largest gain, the one `_node`
    branches on, the floor is the parent's overlap bound less that gain."""
    rng = random.Random(5)
    for p, k, n in COUNT_CELLS:
        f, masks, table = _count_table(p, k, n)
        q, s, pair = f.q, len(masks), f.q ** (n - 2)
        for _ in range(25):
            order = rng.sample(range(s), s)
            cut = rng.randrange(min(s - 1, 12))  # at least two directions stay free
            mask, counts = 0, table.full
            for d in order[:cut]:
                row = masks[d][rng.randrange(q)]
                counts = table.cover(counts, row & ~mask)
                mask |= row
            free = order[cut:]
            gains = table.gains(table.lanes(counts), free)
            top = gains.index(max(gains))
            assert search._overlap_bound(gains, pair) - gains[top] == search._child_floor(
                gains[:top] + gains[top + 1:], pair)
            i = rng.randrange(len(free))
            rest = free[:i] + free[i + 1:]
            floor = search._child_floor(gains[:i] + gains[i + 1:], pair)
            for lvl in range(q):
                child = table.cover(counts, masks[free[i]][lvl] & ~mask)
                assert floor <= search._overlap_bound(table.gains(table.lanes(child), rest), pair)


def _random_planar_children(rng, p, k):
    """A random partial union of the plane over F_(p^k), at least two
    directions open, and one of them, d, at random: (table, mask, counts,
    d, the other open directions, their gains and their cheapest lines)."""
    f, masks, table = _count_table(p, k, 2)
    s = len(masks)
    order = rng.sample(range(s), s)
    cut = rng.randrange(s - 1)
    mask, counts = 0, table.full
    for d in order[:cut]:
        row = masks[d][rng.randrange(f.q)]
        counts = table.cover(counts, row & ~mask)
        mask |= row
    free = order[cut:]
    d = free.pop(rng.randrange(len(free)))
    lanes = table.lanes(counts)
    gains = table.gains(lanes, free)
    return table, mask, counts, d, free, gains, table.cheapest_lines(lanes, free, gains)


def test_planar_price_is_the_built_childs_own():
    """In the plane a child's gains, priced from its parent's gains and
    cheapest lines without covering it, are the gains of the built child,
    so the overlap bound is the child's own and never below the floor."""
    rng = random.Random(23)
    for p, k in [(2, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        for _ in range(30):
            table, mask, counts, d, rest, gains, lines = _random_planar_children(rng, p, k)
            floor = search._child_floor(gains, table.pair)
            for row in table.masks[d]:
                price = search._planar_price(lines, gains, row & ~mask)
                built = table.gains(table.lanes(table.cover(counts, row & ~mask)), rest)
                assert price == built
                bound = search._overlap_bound(price, table.pair)
                assert bound == search._overlap_bound(built, table.pair)
                assert bound >= floor


def test_planar_price_matches_a_point_by_point_count():
    rng = random.Random(29)
    for p, k in [(5, 1), (2, 2)]:
        f = make_field(p, k)
        for _ in range(3):
            table, mask, _, d, rest, gains, lines = _random_planar_children(rng, p, k)
            for row in table.masks[d]:
                covered = PointSet(f.q, 2, mask | row)
                assert search._planar_price(lines, gains, row & ~mask) == (
                    oracles.cheapest_gains_brute(f, 2, covered, rest))


def test_planar_count_lanes_are_bytes():
    """The planar price finds the cheapest lines with `bytes.find`, so
    every plane the count table admits has one-byte lanes."""
    admitted = []
    for q in range(2, 257):
        if factor_prime_power(q) is None:
            continue
        try:
            search._Counts.check(q, 2)
        except ValueError:
            continue
        admitted.append(q)
        assert search._lane_width(q) == 1
    assert admitted[:3] == [2, 3, 4]
    # the planar canonical pass recurses once per free direction, q - 1 deep
    assert admitted[-1] - 1 == 138 < sys.getrecursionlimit() // 4


@pytest.mark.parametrize("p,k,opened,nodes", [(5, 1, 6, 6), (7, 1, 35, 9), (3, 2, 38, 8)])
def test_frontier_keeps_children_open_and_unpriced(p, k, opened, nodes):
    """With two workers the parent opens the nodes it opened when every
    child was built before any cut: a price on the way would cut some."""
    f = make_field(p, k)
    dirs, table, root = search._search_space(f, 2)
    lb_ceil = math.ceil(search._instance_lower_bound(f.q, 2))
    size, _ = search._greedy_seed(f, 2, table.s)
    searcher = search._Searcher(table, 10**6, lb_ceil, size,
                                axes=search._AxisMaps(f, dirs, root[2]))
    tasks = searcher.frontier(root, 2)
    assert (len(tasks), searcher.nodes) == (opened, nodes)


def _planar_minimum(q):
    """Blokhuis and Mazzocca (2008): q(q+1)/2 + (q-1)/2 for odd q and
    q(q+1)/2 for even q.  A test expectation only."""
    return q * (q + 1) // 2 + ((q - 1) // 2 if q % 2 else 0)


@pytest.mark.parametrize("p,k", PLANAR_FIELDS)
def test_planar_minima_match_the_literature(p, k):
    f = make_field(p, k)
    result = minimal_kakeya_exact(f, 2)
    assert result.proof_of_optimality
    assert result.min_size == _planar_minimum(f.q)
    union = build_union(f, 2, result.witness)
    assert union.cardinality == result.min_size
    assert is_kakeya(f, union).ok


def test_9_2_node_count_guard():
    result = minimal_kakeya_exact(make_field(3, 2), 2)
    assert result.proof_of_optimality and result.min_size == 49
    assert result.nodes_explored <= 3_000


def test_11_2_node_count_guard():
    # prime q has no Frobenius: the merges come from swaps and diagonal maps
    result = minimal_kakeya_exact(make_field(11, 1), 2)
    assert result.proof_of_optimality and result.min_size == 71
    assert result.nodes_explored <= 65_000
    assert result.nodes_explored == 60_355
    assert result.witness.levels == CANONICAL_WITNESSES[11, 1, 2]


@pytest.mark.parametrize("cell,nodes", NODE_COUNTS)
def test_node_counts_are_pinned(cell, nodes):
    assert minimal_kakeya_exact(make_field(*cell[:2]), cell[2], workers=1).nodes_explored == nodes


@pytest.mark.parametrize("cell,nodes", LEVEL_NODE_COUNTS)
def test_level_search_node_counts_are_pinned(cell, nodes):
    assert search._level_minimum(make_field(*cell[:2]), cell[2], 10**6)[1] == nodes


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_powerset_oracle_agreement(p, n):
    field = make_field(2, 2) if p == 4 else make_field(p, 1)
    oracle_size, oracle_set = minimal_kakeya_powerset(field, n)
    assert is_kakeya(field, oracle_set).ok
    assert oracle_size == minimal_kakeya_exact(field, n).min_size


def test_powerset_oracle_reads_no_level_kernel(monkeypatch):
    """The oracle that checks the exact search builds its hyperplanes
    point by point, not from the level masks the search reads."""
    def refuse(*args):
        raise AssertionError("level kernel read")

    fields = [make_field(3, 1), make_field(2, 2)]
    minima = [minimal_kakeya_exact(f, 2).min_size for f in fields]
    for name in ("level_masks", "_direction_levels", "_level_masks_of"):
        monkeypatch.setattr(search, name, refuse)
    assert [minimal_kakeya_powerset(f, 2)[0] for f in fields] == minima


def test_powerset_oracle_size_guard():
    f = make_field(3, 1)
    with pytest.raises(ValueError):
        minimal_kakeya_powerset(f, 3)  # 27 points is past the subset limit


def test_normalization_does_not_change_minimum():
    """The search fixes the axis directions at level 0; a search with every
    direction free finds the same minimum."""
    for p, n, expected in KNOWN_MINIMA:
        f = make_field(p, 1)
        result = minimal_kakeya_exact(f, n)
        assert result.proof_of_optimality and result.min_size == expected
        assert _search_from_scratch(f, n, frame=False) == expected


def test_worker_counts_agree():
    for p, k, n in [(3, 1, 2), (2, 1, 3), (5, 1, 2), (7, 1, 2), (3, 2, 2), (2, 2, 3)]:
        f = make_field(p, k)
        results = [minimal_kakeya_exact(f, n, workers=w) for w in (1, 2, 3, 4)]
        assert all(r.proof_of_optimality for r in results)
        assert len({r.min_size for r in results}) == 1
        # the canonical witness once optimality is proven
        assert len({r.witness for r in results}) == 1
        if (p, k, n) in CANONICAL_WITNESSES:
            assert results[0].witness.levels == CANONICAL_WITNESSES[p, k, n]


def test_every_worker_gets_open_nodes(monkeypatch):
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    result = minimal_kakeya_exact(make_field(7, 1), 2, workers=4)
    assert result.proof_of_optimality and result.min_size == 31
    assert len(started) == 4


def test_too_many_workers_are_refused_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("nothing may be built or started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(search, "level_masks", refuse)
    for workers in (search.MAX_WORKERS + 1, 100_000):
        with pytest.raises(ValueError, match="workers must be in"):
            minimal_kakeya_exact(make_field(7, 1), 2, workers=workers)


def test_parallel_budget_exhaustion_reports_a_verified_bound():
    f = make_field(3, 2)
    # 5 nodes run out while the parent splits the tree; with 100 it expands
    # a few and each of the 2 workers may visit 50
    for budget in (5, 100):
        result = minimal_kakeya_exact(f, 2, node_budget=budget, workers=2)
        assert not result.proof_of_optimality
        union = build_union(f, 2, result.witness)
        assert union.cardinality == result.min_size >= 49
        assert is_kakeya(f, union).ok


def _worse_seed(f, n, s):
    """All levels 0 as the incumbent: the lines through the origin, whose
    union is the whole plane."""
    return f.q**n, [0] * s


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2)])
def test_search_beats_a_worse_seed(p, k, workers, monkeypatch):
    """The greedy seed is already optimal on every planar cell up to (11,2),
    so only a worse seed makes the search's own incumbent the answer."""
    f = make_field(p, k)
    plain = minimal_kakeya_exact(f, 2, workers=workers)
    monkeypatch.setattr(search, "_greedy_seed", _worse_seed)
    seeded = minimal_kakeya_exact(f, 2, workers=workers)
    assert seeded.proof_of_optimality and plain.proof_of_optimality
    assert (seeded.min_size, seeded.witness) == (plain.min_size, plain.witness)
    assert seeded.nodes_explored >= plain.nodes_explored


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p,k", [(7, 1), (3, 2)])
def test_search_out_of_budget_reports_its_own_incumbent(p, k, workers, monkeypatch):
    """40 nodes find a union smaller than the worse seed's but prove nothing."""
    f = make_field(p, k)
    monkeypatch.setattr(search, "_greedy_seed", _worse_seed)
    result = minimal_kakeya_exact(f, 2, node_budget=40, workers=workers)
    assert not result.proof_of_optimality
    assert result.min_size < f.q**2
    search._verify_result(f, 2, result.witness, result.min_size,
                          kakeya_lower_bound_ceiling(f.q, 2))


def test_parallel_workers_share_the_node_budget():
    # one core proves (9,2) in 2,568 nodes; a budget split evenly for good
    # left 3 and 4 workers unproven under 3,000
    f = make_field(3, 2)
    for workers in (1, 2, 3, 4):
        result = minimal_kakeya_exact(f, 2, node_budget=3_000, workers=workers)
        assert result.proof_of_optimality and result.min_size == 49
        assert result.nodes_explored <= 3_000
        assert result.witness.levels == CANONICAL_WITNESSES[3, 2, 2]
    # more workers than cores draw on the shared count without overdrawing it
    for budget in (200, 800):
        assert minimal_kakeya_exact(f, 2, node_budget=budget, workers=8).nodes_explored <= budget


@pytest.mark.parametrize("budget", [20, 100, 800, 2400])
def test_parallel_runs_stay_within_the_node_budget(budget):
    # (9,2) takes 2,568 nodes on one core, so every budget here runs out
    f = make_field(3, 2)
    for workers in (1, 2, 3, 4):
        result = minimal_kakeya_exact(f, 2, node_budget=budget, workers=workers)
        assert result.nodes_explored <= budget
        assert result.min_size >= 49


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_started_without_fork_agree(monkeypatch, method):
    f = make_field(3, 2)
    expected = minimal_kakeya_exact(f, 2)
    ctx = multiprocessing.get_context(method)
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: ctx)
    result = minimal_kakeya_exact(f, 2, workers=2)
    assert result.proof_of_optimality
    assert (result.min_size, result.witness) == (expected.min_size, expected.witness)
    assert not multiprocessing.active_children()


_JOIN_TIMEOUT_S = 30


class _TimedJoinProcess(multiprocessing.get_context("fork").Process):
    def join(self, timeout=None):
        super().join(_JOIN_TIMEOUT_S if timeout is None else timeout)


class _SlowReadValue:
    """A shared value whose reads take 5 ms, which widens the window in
    which an unlocked read-then-write loses an update."""

    def __init__(self, inner):
        self._inner = inner

    def get_lock(self):
        return self._inner.get_lock()

    @property
    def value(self):
        v = self._inner.value
        time.sleep(0.005)
        return v

    @value.setter
    def value(self, v):
        self._inner.value = v


class _RecordingContext:
    """A fork context that keeps the processes it makes, with their
    arguments, bounds every join by a timeout and slows shared reads."""

    def __init__(self):
        self._ctx = multiprocessing.get_context("fork")
        self.started = []

    def Value(self, typecode, value):
        shared = self._ctx.Value(typecode, value)
        # the task counter starts at 0; the incumbent size never does
        return _SlowReadValue(shared) if value == 0 else shared

    def Process(self, target, args):
        proc = _TimedJoinProcess(target=target, args=args)
        self.started.append((proc, args))
        return proc

    def __getattr__(self, name):
        return getattr(self._ctx, name)


def test_more_workers_than_cores_take_each_open_node_once(monkeypatch):
    f = make_field(3, 2)
    expected = minimal_kakeya_exact(f, 2)
    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: ctx)
    out = {}
    runner = threading.Thread(target=lambda: out.setdefault(
        "result", minimal_kakeya_exact(f, 2, workers=8)))
    runner.start()
    runner.join(60)
    hung = runner.is_alive()
    for proc, _ in ctx.started:
        proc.join(5)
        if proc.is_alive():
            proc.terminate()
            proc.join(5)
    runner.join(10)
    assert not hung
    assert not multiprocessing.active_children()
    assert len(ctx.started) == 8
    result = out["result"]
    assert (result.min_size, result.witness) == (expected.min_size, expected.witness)
    # (9,2) is not closed by its lower bound, so every worker ran out of
    # open nodes: each node was taken once, plus one read past the end per worker
    _, args = ctx.started[0]
    tasks, next_task = args[2], args[3]
    assert len(tasks) >= 8 * 8
    assert next_task.value == len(tasks) + 8


def test_witness_is_lexicographically_smallest():
    f = make_field(2, 1)
    # the axis directions are fixed, yet the witness is the least of all
    result = minimal_kakeya_exact(f, 2)
    optima = [
        levels
        for levels in itertools.product(range(2), repeat=3)
        if build_union(f, 2, OffsetAssignment(levels)).cardinality == result.min_size
    ]
    assert result.witness.levels == min(optima)
    assert result.witness.levels == (0, 0, 1)


def test_witness_canonical_in_normalized_space():
    f = make_field(3, 1)
    result = minimal_kakeya_exact(f, 2)
    dirs = enumerate_directions(f, 2)
    fixed = [i for i, d in enumerate(dirs) if d.normal in {(1, 0), (0, 1)}]
    optima = []
    for levels in itertools.product(range(3), repeat=len(dirs)):
        if any(levels[i] != 0 for i in fixed):
            continue
        if build_union(f, 2, OffsetAssignment(levels)).cardinality == result.min_size:
            optima.append(levels)
    assert result.witness.levels == min(optima)


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 3, 2),
                                   (2, 1, 3), (3, 1, 3), (2, 1, 4)])
def test_witness_matches_a_brute_force_lex_scan(p, k, n):
    """The canonical pass starts with the axis directions at level 0, tries
    levels 0 and 1 only while every level so far is 0, and, in the plane,
    cuts nodes by the overlap bound and siblings by the child floor; above
    it, by union size alone.  None of these may change the first optimum of
    a scan over every assignment."""
    f = make_field(p, k)
    result = minimal_kakeya_exact(f, n)
    assert result.proof_of_optimality
    brute = oracles.lex_smallest_optimum_brute(f, n, result.min_size)
    assert result.witness.levels == brute
    assert next(c for c in brute if c) == 1


def test_canonical_pass_runs_deeper_than_the_recursion_limit():
    # (2,8) has 255 directions, one level of the pass each; the limit leaves
    # room for 100 more frames than the test runs in
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = minimal_kakeya_exact(make_field(2, 1), 8)
    finally:
        sys.setrecursionlimit(limit)
    assert result.proof_of_optimality and result.min_size == 255
    assert len(result.witness) == 255


# nodes the canonical-witness pass visits on its way to the witness
CANONICAL_PASS_NODES = [((7, 1, 2), 47), ((3, 2, 2), 635), ((11, 1, 2), 5_444),
                        ((5, 1, 3), 31), ((2, 2, 4), 83), ((2, 1, 6), 58)]


def _canonical_pass(f, n, target, budget):
    """The canonical-witness pass as `minimal_kakeya_exact` runs it: from
    the level search's root with the count table in the plane, over the
    open points above it."""
    if n >= 3:
        return search._open_point_witness(f, n, target, budget)
    _, table, root = search._search_space(f, n)
    return search._lex_smallest_witness(table, root, target, budget)


@pytest.mark.parametrize("cell,nodes", CANONICAL_PASS_NODES)
def test_canonical_pass_node_counts_are_pinned(cell, nodes):
    p, k, n = cell
    f = make_field(p, k)
    result = minimal_kakeya_exact(f, n)
    assert _canonical_pass(f, n, result.min_size, nodes) == result.witness.levels
    assert _canonical_pass(f, n, result.min_size, nodes - 1) is None


def test_canonical_pass_runs_out_at_a_floor_cut_sibling():
    """A budget spent on a sibling that the child floor cuts ends the pass
    as any other node does: on (7,2) nodes 6, 9 and 10, among others, are
    such siblings, and no budget below the pinned 47 gives a witness."""
    f = make_field(7, 1)
    for budget in range(1, 47):
        assert _canonical_pass(f, 2, 31, budget) is None
    assert _canonical_pass(f, 2, 31, 47) == CANONICAL_WITNESSES[7, 1, 2]


# (p, k, n): every n >= 3 cell of tests/test_gaps.py's GAP_TABLE, with (3,6)
PASS_GRID = ([(2, 1, n) for n in range(3, 9)] + [(3, 1, n) for n in range(3, 7)]
             + [(2, 2, n) for n in range(3, 6)] + [(5, 1, 3), (5, 1, 4)])


@pytest.mark.parametrize("p,k,n", PASS_GRID)
def test_canonical_pass_above_the_plane_barely_backtracks(p, k, n):
    """On union size alone the pass above the plane goes nearly straight
    down: at most |free| + q nodes, where |free| is the directions off the
    axes.  A cell that starts to backtrack fails here instead of quietly
    spending the pass's budget."""
    f = make_field(p, k)
    result = minimal_kakeya_exact(f, n)
    assert result.proof_of_optimality
    free = len(result.witness) - n
    assert _canonical_pass(f, n, result.min_size, free + f.q) == result.witness.levels


@pytest.mark.parametrize("p,k,n", [(3, 1, 3), (2, 2, 3), (2, 1, 4), (5, 1, 3), (2, 1, 8)])
def test_only_the_planar_base_builds_a_count_table(p, k, n, monkeypatch):
    """Above the plane no count table, level mask or direction list of the
    cell is built: the only ones are those of the (q,2) search under
    `_gap_size`, and q <= 3 has none at all."""
    built, masks, dirs = [], [], []
    init = search._Counts.__init__

    def record(self, f, dim, masks):
        built.append(dim)
        init(self, f, dim, masks)

    def recorder(calls, real):
        def call(f, dim, *args):
            calls.append(dim)
            return real(f, dim, *args)
        return call

    monkeypatch.setattr(search._Counts, "__init__", record)
    monkeypatch.setattr(search, "level_masks", recorder(masks, search.level_masks))
    monkeypatch.setattr(search, "enumerate_directions",
                        recorder(dirs, search.enumerate_directions))
    f = make_field(p, k)
    assert minimal_kakeya_exact(f, n).proof_of_optimality
    assert built == ([2] if f.q >= 4 else [])
    assert set(masks) == set(dirs) == ({2} if f.q >= 4 else set())


def test_lex_scan_finds_nothing_for_a_size_no_union_has():
    # the unions of F_2^2 have 3 or 4 points
    assert oracles.lex_smallest_optimum_brute(make_field(2, 1), 2, 2) is None


def test_children_cut_by_the_floor_count_as_nodes():
    f = make_field(3, 2)
    proven = minimal_kakeya_exact(f, 2, node_budget=2_568)
    assert proven.proof_of_optimality and proven.nodes_explored == 2_568
    assert proven.witness.levels == CANONICAL_WITNESSES[3, 2, 2]
    short = minimal_kakeya_exact(f, 2, node_budget=2_567)
    assert not short.proof_of_optimality and short.nodes_explored == 2_567


def test_children_cut_by_their_price_count_as_nodes():
    # (7,2) cuts 105 children by their price and 56 by the floor
    f = make_field(7, 1)
    proven = minimal_kakeya_exact(f, 2, node_budget=204)
    assert proven.proof_of_optimality and proven.nodes_explored == 204
    assert proven.witness.levels == CANONICAL_WITNESSES[7, 1, 2]
    short = minimal_kakeya_exact(f, 2, node_budget=203)
    assert not short.proof_of_optimality and short.nodes_explored == 203


def _killed_worker(widx, *args):
    os._exit(9)


def test_dead_worker_raises_instead_of_hanging(monkeypatch):
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: fork)
    monkeypatch.setattr(search, "_search_worker", _killed_worker)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"worker \d+ exited with code 9"):
        minimal_kakeya_exact(make_field(5, 1), 2, workers=2)
    assert time.perf_counter() - start < 10
    assert not multiprocessing.active_children()


_run = search._Searcher.run


def _run_failing_in_workers(self, *node):
    if multiprocessing.parent_process() is not None:
        raise ValueError("broken node")
    return _run(self, *node)


def test_failed_worker_raises_its_error(monkeypatch):
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: fork)
    monkeypatch.setattr(search._Searcher, "run", _run_failing_in_workers)
    with pytest.raises(RuntimeError, match=r"worker \d+ failed: ValueError\('broken node'\)") as err:
        minimal_kakeya_exact(make_field(5, 1), 2, workers=2)
    assert "_run_failing_in_workers" in str(err.value)  # the worker's traceback
    assert not multiprocessing.active_children()


def _search_with_a_dying_worker(monkeypatch, dying):
    """Run a 2-worker search on (5,2) in which worker `dying` exits at once
    with code 9 and the other sleeps for a minute; return the search's
    error message, or None if it has not ended within 10 s.  No child is
    left running either way."""
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: fork)

    def dies_or_sleeps(widx, *args):
        if widx == dying:
            os._exit(9)
        time.sleep(60)

    monkeypatch.setattr(search, "_search_worker", dies_or_sleeps)
    out = {}

    def search_and_keep_the_error():
        try:
            minimal_kakeya_exact(make_field(5, 1), 2, workers=2)
        except RuntimeError as exc:
            out["error"] = str(exc)

    runner = threading.Thread(target=search_and_keep_the_error, daemon=True)
    runner.start()
    runner.join(10)
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5)
    return None if runner.is_alive() else out.get("error")


@pytest.mark.parametrize("dying", [0, 1])
def test_dead_worker_is_reported_while_its_sibling_runs(monkeypatch, dying):
    """Each worker holds the only writer of its pipe, so a worker's pipe
    closes when it dies, although the other worker is still busy."""
    err = _search_with_a_dying_worker(monkeypatch, dying)
    assert err is not None
    assert f"worker {dying} exited with code 9" in err
    assert not multiprocessing.active_children()


def test_failed_start_stops_the_workers_already_started(monkeypatch):
    """A start that fails (here EAGAIN, as when no process id is free)
    terminates and joins the workers started before it."""
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: fork)
    start = multiprocessing.process.BaseProcess.start
    started = []

    def start_once(proc):
        if started:
            raise OSError(errno.EAGAIN, "no process id free")
        start(proc)
        started.append(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start_once)
    with pytest.raises(OSError, match="no process id free"):
        minimal_kakeya_exact(make_field(11, 1), 2, workers=2)
    # alone, the first worker would search (11,2) for about 0.4 s
    assert len(started) == 1 and started[0].exitcode is not None
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files in /proc")
def test_parallel_searches_leave_no_file_open(monkeypatch):
    def open_files():
        return len(os.listdir("/proc/self/fd"))

    f = make_field(7, 1)
    # the first shared value of a process opens the file that backs them all;
    # files an earlier test left in cyclic garbage (a kept traceback holds
    # its workers) close whenever the collector runs, so collect them first
    minimal_kakeya_exact(f, 2, workers=2)
    gc.collect()
    before = open_files()
    for _ in range(5):
        minimal_kakeya_exact(f, 2, workers=2)
    assert open_files() == before
    assert _search_with_a_dying_worker(monkeypatch, 1) is not None
    assert open_files() == before


def test_budget_exhaustion_degrades_gracefully():
    f = make_field(3, 1)
    result = minimal_kakeya_exact(f, 3, node_budget=1)
    assert not result.proof_of_optimality
    assert result.nodes_explored <= 1
    union = build_union(f, 3, result.witness)
    assert union.cardinality == result.min_size
    assert is_kakeya(f, union).ok
    assert result.min_size >= kakeya_lower_bound_ceiling(3, 3)


def test_witness_pass_out_of_budget_reports_a_bound():
    f = make_field(2, 1)
    # the greedy seed meets the lower-bound ceiling, so branch and bound
    # visits no node and only the canonical-witness pass hits the budget
    result = minimal_kakeya_exact(f, 2, node_budget=1)
    assert result.nodes_explored == 0
    assert not result.proof_of_optimality
    assert result.min_size == 3
    union = build_union(f, 2, result.witness)
    assert union.cardinality == 3 and is_kakeya(f, union).ok
    proven = minimal_kakeya_exact(f, 2)
    assert proven.proof_of_optimality and proven.nodes_explored == 0


def test_budget_validation():
    f = make_field(2, 1)
    with pytest.raises(ValueError):
        minimal_kakeya_exact(f, 2, node_budget=0)
    with pytest.raises(ValueError):
        minimal_kakeya_exact(f, 2, workers=0)
    # (8,2) closes on its greedy bound, so the largest worker count starts none
    assert minimal_kakeya_exact(make_field(2, 3), 2, workers=search.MAX_WORKERS).min_size == 36


def _one_point_less(f, n, witness):
    union = build_union(f, n, witness)
    return PointSet(union.q, union.n, union.bits & (union.bits - 1))


def _never_kakeya(f, pset, plane_dim=None):
    return KakeyaVerdict(False, pset.n - 1, None, 0)


@pytest.mark.parametrize("name,corrupt,message", [
    ("build_union", _one_point_less, r"witness union has \d+ points, reported \d+"),
    ("is_kakeya", _never_kakeya, "witness union failed Kakeya verification"),
    ("kakeya_lower_bound", lambda q, n: Fraction(q**n),
     r"search reported \d+ below the proven lower bound 25"),
])
def test_a_witness_that_fails_its_check_raises(name, corrupt, message, monkeypatch):
    """The check after the search rebuilds the witness's union, verifies it
    and compares its size with the lower bound; a union that fails any of
    these raises instead of being reported."""
    monkeypatch.setattr(search, name, corrupt)
    with pytest.raises(RuntimeError, match=message):
        minimal_kakeya_exact(make_field(5, 1), 2)


def _greedy_every_restart(f, n, restarts, seed):
    """Size and levels of the greedy union as found with every restart run:
    the first union of the least size."""
    masks = level_masks(f, n)
    rng = random.Random(seed)
    best = None
    for _ in range(restarts):
        order = list(range(len(masks)))
        rng.shuffle(order)
        mask, levels = 0, [0] * len(masks)
        for d in order:
            row = masks[d]
            levels[d] = min(range(f.q), key=lambda c: ((mask | row[c]).bit_count(), c))
            mask |= row[levels[d]]
        if best is None or mask.bit_count() < best[0]:
            best = mask.bit_count(), tuple(levels)
    return best


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 2),
                                   (2, 3, 2), (3, 2, 2), (2, 4, 2), (2, 1, 3), (3, 1, 3),
                                   (2, 2, 3)])
def test_greedy_results_do_not_depend_on_its_early_stop(p, k, n):
    f = make_field(p, k)
    for seed in range(3):
        for restarts in (1, 16, 64):
            result = greedy_upper_bound(f, n, restarts=restarts, seed=seed)
            assert (result.min_size, result.witness.levels) == _greedy_every_restart(
                f, n, restarts, seed)
            assert result.nodes_explored == restarts and not result.proof_of_optimality


@pytest.mark.parametrize("p,k,restarts,shuffles", [(2, 1, 64, 1), (2, 2, 64, 1), (2, 3, 64, 1),
                                                   (2, 4, 16, 8), (2, 4, 64, 8), (5, 1, 64, 64)])
def test_greedy_restarts_stop_at_the_lower_bound(p, k, restarts, shuffles, monkeypatch):
    """No union is smaller than the ceiling of the lower bound, so the
    restarts stop at the first that meets it: restart 0 on (2,2), (4,2) and
    (8,2), restart 7 on (16,2), and none on (5,2), whose greedy union has 17
    points against a ceiling of 15."""
    orders = []

    class Random(random.Random):
        def shuffle(self, x):
            orders.append(x)
            super().shuffle(x)

    monkeypatch.setattr(search, "random", types.SimpleNamespace(Random=Random))
    result = greedy_upper_bound(make_field(p, k), 2, restarts=restarts, seed=0)
    assert len(orders) == shuffles
    assert result.nodes_explored == restarts


def test_greedy_dominates_exact_minimum():
    for p, n, expected in KNOWN_MINIMA:
        f = make_field(p, 1)
        greedy = greedy_upper_bound(f, n, restarts=20, seed=3)
        assert greedy.min_size >= expected
        assert not greedy.proof_of_optimality
        union = build_union(f, n, greedy.witness)
        assert union.cardinality == greedy.min_size
        assert is_kakeya(f, union).ok


def test_greedy_deterministic_per_seed():
    f = make_field(3, 1)
    a = greedy_upper_bound(f, 3, restarts=10, seed=5)
    b = greedy_upper_bound(f, 3, restarts=10, seed=5)
    assert (a.min_size, a.witness) == (b.min_size, b.witness)
    with pytest.raises(ValueError):
        greedy_upper_bound(f, 2, restarts=0)


def test_greedy_3_3_respects_ceiling():
    f = make_field(3, 1)
    result = greedy_upper_bound(f, 3, restarts=100, seed=0)
    assert result.min_size >= 24


def test_exact_3_3_value():
    f = make_field(3, 1)
    result = minimal_kakeya_exact(f, 3)
    assert result.proof_of_optimality
    assert result.min_size == 25  # ceiling is 24: the bound is not tight here
    assert result.min_size >= kakeya_lower_bound_ceiling(3, 3)


def test_degenerate_n_1():
    # greedy meets the lower bound 1, so no searcher is ever built, and the
    # root, the one axis direction at level 0, is the canonical pass's leaf
    f = make_field(5, 1)
    for workers in (1, 2):
        result = minimal_kakeya_exact(f, 1, workers=workers)
        assert result.min_size == 1
        assert result.proof_of_optimality
        assert result.nodes_explored == 0
        assert result.witness.levels == (0,)


def test_search_result_lower_bound_consistency():
    f = make_field(3, 1)
    result = minimal_kakeya_exact(f, 2)
    assert result.lower_bound_used == 6
    assert math.ceil(result.lower_bound_used) <= result.min_size

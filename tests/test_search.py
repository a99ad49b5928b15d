import itertools
import math
import multiprocessing
import os
import random
import threading
import time

import pytest

from kakeya import search
from kakeya.bounds import kakeya_lower_bound_ceiling
from kakeya.core import OffsetAssignment, build_union, is_kakeya, level_masks
from kakeya.field import field_inv, field_mul, field_pow, make_field
from kakeya.geometry import enumerate_directions, point_coords, point_index
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


def _search_from_scratch(f, n, normalize, axes=True):
    """Branch and bound with no greedy incumbent and no lower-bound exit,
    so the prunes decide the whole tree.  `axes` turns the isomorph check
    two levels down on or off (it needs `normalize`)."""
    dirs = enumerate_directions(f, n)
    masks = level_masks(f, n, dirs)
    fixed = search._standard_basis_positions(dirs, n) if normalize else []
    base_mask = 0
    for pos in fixed:
        base_mask |= masks[pos][0]
    free = [i for i in range(len(dirs)) if i not in fixed]
    maps = search._AxisMaps(f, dirs, free) if normalize and axes else None
    searcher = search._Searcher(f.q, f.q ** (n - 2), masks, free, [0] * len(dirs),
                                base_mask, 10**7, 0, f.q**n + 1, axes=maps)
    searcher.search()
    assert searcher.completed
    witness = OffsetAssignment(tuple(searcher.found_levels))
    assert build_union(f, n, witness).cardinality == searcher.found_size
    return searcher.found_size


def test_exact_matches_brute_force_assignment_scan():
    for p, k, n in BRUTE_CELLS:
        f = make_field(p, k)
        brute, _ = _assignment_minimum_brute(f, n)
        # minimal_kakeya_exact checks isomorphs only when it normalizes
        for normalize in (True, False):
            result = minimal_kakeya_exact(f, n, normalize=normalize)
            assert result.proof_of_optimality
            assert result.min_size == brute
            assert _search_from_scratch(f, n, normalize) == brute
        assert _search_from_scratch(f, n, True, axes=False) == brute


def test_search_from_scratch_agrees_across_normalization():
    for p, k, n in [(7, 1, 2), (3, 1, 3), (2, 2, 3)]:
        f = make_field(p, k)
        plain = _search_from_scratch(f, n, False)
        assert _search_from_scratch(f, n, True) == plain
        assert _search_from_scratch(f, n, True, axes=False) == plain


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
    """Every node two levels below the normalized root, searched to the
    end on its own: nodes that share a key share the subtree minimum."""
    f = make_field(p, k)
    dirs = enumerate_directions(f, n)
    masks = level_masks(f, n, dirs)
    fixed = search._standard_basis_positions(dirs, n)
    free = [i for i in range(len(dirs)) if i not in fixed]
    axes = search._AxisMaps(f, dirs, free)
    base_mask = 0
    for pos in fixed:
        base_mask |= masks[pos][0]
    minima = {}
    for d1, d2 in itertools.combinations(free, 2):
        rest = [d for d in free if d not in (d1, d2)]
        for c1, c2 in itertools.product(range(f.q), repeat=2):
            levels = [0] * len(dirs)
            levels[d1], levels[d2] = c1, c2
            searcher = search._Searcher(f.q, f.q ** (n - 2), masks, rest, levels,
                                        base_mask | masks[d1][c1] | masks[d2][c2],
                                        10**6, 0, f.q**n + 1)
            searcher.search()
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
            _, _, gains = search._select_direction(mask, msize, order[cut:], masks, f.q)
            for _ in range(5):
                full = mask
                for d in order[cut:]:
                    full |= masks[d][rng.randrange(f.q)]
                assert full.bit_count() - msize >= search._overlap_bound(gains, f.q ** (n - 2))


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
    assert result.witness.levels == CANONICAL_WITNESSES[11, 1, 2]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_powerset_oracle_agreement(p, n):
    field = make_field(2, 2) if p == 4 else make_field(p, 1)
    oracle_size, oracle_set = minimal_kakeya_powerset(field, n)
    assert is_kakeya(field, oracle_set).ok
    assert oracle_size == minimal_kakeya_exact(field, n).min_size


def test_powerset_oracle_size_guard():
    f = make_field(3, 1)
    with pytest.raises(ValueError):
        minimal_kakeya_powerset(f, 3)  # 27 points is past the subset limit


def test_normalization_does_not_change_minimum():
    for p, n, expected in KNOWN_MINIMA:
        f = make_field(p, 1)
        normalized = minimal_kakeya_exact(f, n, normalize=True)
        plain = minimal_kakeya_exact(f, n, normalize=False)
        assert normalized.min_size == plain.min_size == expected
        assert normalized.proof_of_optimality and plain.proof_of_optimality


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
    monkeypatch.setattr(search.multiprocessing, "get_context", lambda *args: ctx)
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
    tasks, next_task = args[4], args[5]
    assert len(tasks) >= 8 * 8
    assert next_task.value == len(tasks) + 8


def test_witness_is_lexicographically_smallest():
    f = make_field(2, 1)
    # unnormalized: compare against the full brute-force scan
    result = minimal_kakeya_exact(f, 2, normalize=False)
    optima = [
        levels
        for levels in itertools.product(range(2), repeat=3)
        if build_union(f, 2, OffsetAssignment(levels)).cardinality == result.min_size
    ]
    assert result.witness.levels == min(optima)
    assert result.witness.levels == (0, 0, 1)


def test_witness_canonical_in_normalized_space():
    f = make_field(3, 1)
    result = minimal_kakeya_exact(f, 2, normalize=True)
    dirs = enumerate_directions(f, 2)
    fixed = [i for i, d in enumerate(dirs) if d.normal in {(1, 0), (0, 1)}]
    optima = []
    for levels in itertools.product(range(3), repeat=len(dirs)):
        if any(levels[i] != 0 for i in fixed):
            continue
        if build_union(f, 2, OffsetAssignment(levels)).cardinality == result.min_size:
            optima.append(levels)
    assert result.witness.levels == min(optima)


def _killed_worker(widx, *args):
    os._exit(9)


def test_dead_worker_raises_instead_of_hanging(monkeypatch):
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(search.multiprocessing, "get_context", lambda *args: fork)
    monkeypatch.setattr(search, "_search_worker", _killed_worker)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"worker \d+ exited with code 9"):
        minimal_kakeya_exact(make_field(5, 1), 2, workers=2)
    assert time.perf_counter() - start < 10
    assert not multiprocessing.active_children()


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
    # greedy meets the lower bound 1, with or without normalization, so no
    # searcher is ever built (with normalization no direction is left free)
    f = make_field(5, 1)
    for normalize in (True, False):
        for workers in (1, 2):
            result = minimal_kakeya_exact(f, 1, workers=workers, normalize=normalize)
            assert result.min_size == 1
            assert result.proof_of_optimality
            assert result.nodes_explored == 0


def test_search_result_lower_bound_consistency():
    f = make_field(3, 1)
    result = minimal_kakeya_exact(f, 2)
    assert result.lower_bound_used == 6
    assert math.ceil(result.lower_bound_used) <= result.min_size

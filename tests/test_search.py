import itertools
import math
import multiprocessing
import os
import time

import pytest

from kakeya import search
from kakeya.bounds import kakeya_lower_bound_ceiling
from kakeya.core import OffsetAssignment, build_union, is_kakeya
from kakeya.field import make_field
from kakeya.geometry import enumerate_directions
from kakeya.search import (
    greedy_upper_bound,
    minimal_kakeya_exact,
    minimal_kakeya_powerset,
    tightness_report,
)

KNOWN_MINIMA = [(2, 2, 3), (2, 3, 7), (3, 2, 7)]


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


def test_exact_matches_brute_force_assignment_scan():
    for p, n, _ in KNOWN_MINIMA:
        f = make_field(p, 1)
        brute, _ = _assignment_minimum_brute(f, n)
        assert minimal_kakeya_exact(f, n).min_size == brute


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
    for p, n in [(3, 2), (2, 3)]:
        f = make_field(p, 1)
        results = [minimal_kakeya_exact(f, n, workers=w) for w in (1, 2, 4)]
        sizes = {r.min_size for r in results}
        assert len(sizes) == 1
        witnesses = {r.witness for r in results}
        assert len(witnesses) == 1  # canonical witness once optimality is proven


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


def test_budget_validation():
    f = make_field(2, 1)
    with pytest.raises(ValueError):
        minimal_kakeya_exact(f, 2, node_budget=0)
    with pytest.raises(ValueError):
        minimal_kakeya_exact(f, 2, workers=0)


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
    f = make_field(5, 1)
    result = minimal_kakeya_exact(f, 1)
    assert result.min_size == 1
    assert result.proof_of_optimality


def test_tightness_report_rows():
    cells = [(2, 2), (2, 3), (3, 2)]
    rows = tightness_report(cells)
    assert [row.gap for row in rows] == [0, 0, 1]
    assert all(row.optimal for row in rows)
    assert all(row.method == "exact" for row in rows)
    assert rows[0].bound_ceiling == 3
    assert rows[2].size == 7


def test_tightness_report_heuristic_and_infeasible():
    rows = tightness_report([(3, 2), (6, 2)], exact_space_limit=1, restarts=4)
    assert rows[0].method == "greedy"
    assert not rows[0].optimal
    assert rows[0].size >= 7
    assert rows[1].method == "infeasible"
    assert rows[1].size is None and rows[1].gap is None
    assert "prime power" in rows[1].note


def test_search_result_lower_bound_consistency():
    f = make_field(3, 1)
    result = minimal_kakeya_exact(f, 2)
    assert result.lower_bound_used == 6
    assert math.ceil(result.lower_bound_used) <= result.min_size

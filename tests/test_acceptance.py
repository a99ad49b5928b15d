"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every comparison is exact (integers or Fractions); the
stated runtime limits are asserted, not advisory.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from kakeya.bounds import (
    cauchy_schwarz_count,
    kakeya_lower_bound,
    kakeya_lower_bound_ceiling,
    planar_lower_bound,
)
from kakeya.core import build_union, incidence_stats, is_kakeya, random_assignment
from kakeya.field import make_field
from kakeya.geometry import (
    count_directions_formula,
    count_fiber,
    count_spanning_tuples,
    enumerate_directions,
)
from kakeya.oracles import (
    check_field_axioms,
    check_multiplicative_order,
    hyperplane_span_count_brute,
    spanning_tuple_census,
    triple_count_direct,
)
from kakeya.pointset import PointSet
from kakeya.search import minimal_kakeya_exact, minimal_kakeya_powerset

# prime-power factorizations used by the grids below
FIELD_OF = {
    2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
    9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4), 25: (5, 2),
}


@contextmanager
def criterion(num, description, limit=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"criterion {num} ({description}): FAIL ({elapsed:.1f}s over {limit}s limit)")
        raise AssertionError(f"criterion {num} exceeded {limit}s: {elapsed:.1f}s")
    suffix = f" [{elapsed:.2f}s]" if limit is not None else ""
    print(f"criterion {num} ({description}): PASS{suffix}")


def test_criterion_1_direction_counts():
    with criterion(1, "direction counts vs formula and brute force", limit=10.0):
        for q in (2, 3, 4, 5, 7, 8, 9):
            f = make_field(*FIELD_OF[q])
            for n in (2, 3, 4):
                if q**n > 10**5:
                    continue
                dirs = enumerate_directions(f, n)
                assert len(dirs) == count_directions_formula(q, n)
                if q**n <= 81:
                    assert len(dirs) == hyperplane_span_count_brute(f, n)


def test_criterion_2_spanning_tuple_census():
    with criterion(2, "spanning tuples and fibers vs products", limit=30.0):
        for q, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            f = make_field(*FIELD_OF[q])
            total, fibers = spanning_tuple_census(f, n)
            assert total == count_spanning_tuples(q, n)
            assert set(fibers.values()) == {count_fiber(q, n)}
            assert count_spanning_tuples(q, n) % count_fiber(q, n) == 0
            assert (
                count_spanning_tuples(q, n) // count_fiber(q, n)
                == count_directions_formula(q, n)
                == len(fibers)
            )


def test_criterion_3_incidence_identities():
    with criterion(3, "incidence identities over 100 seeded assignments", limit=60.0):
        for q, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]:
            f = make_field(*FIELD_OF[q])
            s = count_directions_formula(q, n)
            for seed in range(100):
                assignment = random_assignment(f, n, seed)
                pset = build_union(f, n, assignment)
                report = incidence_stats(f, pset, assignment)
                assert report.i_count == s * q ** (n - 1)
                assert report.w_count == report.i_count + s * (s - 1) * q ** (n - 2)
                if q**n <= 256:
                    assert report.w_count == triple_count_direct(f, pset, assignment)
                assert Fraction(report.set_size) >= report.cs_bound


def test_criterion_4_bound_vs_exact_minima():
    with criterion(4, "exact minima vs the lower bound", limit=120.0):
        expectations = [(2, 2, 3, 3), (2, 3, 7, 7), (3, 2, 7, 6)]
        for q, n, minimum, ceiling in expectations:
            f = make_field(*FIELD_OF[q])
            assert kakeya_lower_bound_ceiling(q, n) == ceiling
            result = minimal_kakeya_exact(f, n)
            assert result.proof_of_optimality
            assert result.min_size == minimum
            assert result.min_size >= ceiling
        # the bound is attained exactly at (2,2) and (2,3)
        assert minimal_kakeya_exact(make_field(2, 1), 2).min_size == 3
        assert minimal_kakeya_exact(make_field(2, 1), 3).min_size == 7

        # independent subset-enumeration oracle at (2,2) ...
        f2 = make_field(2, 1)
        oracle_size, oracle_set = minimal_kakeya_powerset(f2, 2)
        assert oracle_size == 3
        assert is_kakeya(f2, oracle_set).ok
        # ... and at (2,4), where the powerset has exactly 2^16 members
        oracle_size, _ = minimal_kakeya_powerset(f2, 4)
        assert oracle_size == minimal_kakeya_exact(f2, 4).min_size == 15


def test_criterion_5_n2_bound_equality():
    with criterion(5, "n=2 bound equals q(q+1)/2 exactly"):
        for q in range(2, 65):
            assert kakeya_lower_bound(q, 2) == planar_lower_bound(q)


def test_criterion_6_asymptotic_gap():
    with criterion(6, "q^n minus bound stays within 2q^2"):
        for n in (3, 4, 5):
            for q in range(2, 65):
                gap = Fraction(q**n) - kakeya_lower_bound(q, n)
                assert gap <= 2 * q * q


def test_criterion_7_cauchy_schwarz_property():
    with criterion(7, "fiber-count inequality over 1000 random maps", limit=5.0):
        rng = random.Random(2024)
        for _ in range(1000):
            domain = rng.randrange(0, 60)
            codomain = rng.randrange(1, 25)
            images = [rng.randrange(codomain) for _ in range(domain)]
            fibers = [images.count(b) for b in range(codomain)]
            result = cauchy_schwarz_count(fibers)
            assert Fraction(codomain) >= result.bound
            assert result.bound <= len(set(images))
        # equality on uniform fibers covering the codomain
        for m, t in [(1, 1), (4, 2), (9, 5), (13, 13)]:
            assert cauchy_schwarz_count([t] * m).bound == m


def test_criterion_8_field_axioms():
    with criterion(8, "field axioms and multiplicative order", limit=10.0):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25):
            f = make_field(*FIELD_OF[q])
            check_field_axioms(f)
            check_multiplicative_order(f)


def test_criterion_9_performance_floor():
    with criterion(9, "verifier and exact-search performance floor"):
        f7 = make_field(7, 1)
        full = PointSet.full(7, 3)
        start = time.perf_counter()
        verdict = is_kakeya(f7, full)
        verify_elapsed = time.perf_counter() - start
        assert verdict.ok
        assert verify_elapsed < 0.1, f"is_kakeya took {verify_elapsed * 1000:.0f} ms"

        f3 = make_field(3, 1)
        start = time.perf_counter()
        result = minimal_kakeya_exact(f3, 3)
        search_elapsed = time.perf_counter() - start
        assert result.proof_of_optimality
        assert search_elapsed < 60.0, f"search took {search_elapsed:.1f} s"

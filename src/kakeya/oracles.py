"""Brute-force cross-checks, independent of the counting formulas they test.

These deliberately re-derive quantities by direct enumeration (spans of
explicit tuples, literal triple counting, axiom tables) so the fast paths
elsewhere can be validated against them at small sizes.  They compute with
per-element field calls: the dot product and general row reduction live
here, and the library itself uses neither.
"""

from __future__ import annotations

import itertools
import random

from .core import OffsetAssignment
from .field import FieldSpec, field_add, field_inv, field_mul, field_neg, field_sub
from .geometry import enumerate_directions, point_coords
from .pointset import PointSet


def dot(f: FieldSpec, u, v) -> int:
    """Standard bilinear form sum_i u_i * v_i."""
    if f.k == 1:
        s = 0
        for a, b in zip(u, v):
            s += a * b
        return s % f.p
    acc = 0
    for a, b in zip(u, v):
        acc = field_add(f, acc, field_mul(f, a, b))
    return acc


def rref(f: FieldSpec, rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over F_q; returns (nonzero rows, pivots)."""
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if m[r][c] != 1:
            inv = field_inv(f, m[r][c])
            m[r] = [field_mul(f, inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                coef = m[i][c]
                m[i] = [field_sub(f, x, field_mul(f, coef, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def rank(f: FieldSpec, rows) -> int:
    """Rank of the rows over F_q, by row reduction."""
    return len(rref(f, rows)[1])


def span_count_brute(f: FieldSpec, n: int) -> int:
    """Count distinct 1-dimensional spans by grouping nonzero vectors."""
    q = f.q
    vectors = [point_coords(i, q, n) for i in range(1, q**n)]
    seen = set()
    for v in vectors:
        multiples = frozenset(
            tuple(field_mul(f, c, x) for x in v) for c in range(1, q)
        )
        seen.add(multiples)
    return len(seen)


def hyperplane_span_count_brute(f: FieldSpec, n: int) -> int:
    """Count distinct (n-1)-dimensional spans of vector tuples directly.

    Enumerates index-increasing (n-1)-tuples of nonzero vectors (every
    subspace has such a spanning tuple), keeps the full-rank ones and
    dedupes by RREF.
    """
    q = f.q
    if n == 1:
        return 1 if q >= 2 else 0
    vectors = [point_coords(i, q, n) for i in range(1, q**n)]
    seen = set()
    for combo in itertools.combinations(vectors, n - 1):
        reduced, pivots = rref(f, combo)
        if len(pivots) == n - 1:
            seen.add(reduced)
    return len(seen)


def spanning_tuple_census(f: FieldSpec, n: int) -> tuple[int, dict[tuple, int]]:
    """All ordered (n-1)-tuples spanning an (n-1)-dim subspace, by span.

    Returns (total count, {RREF key: fiber size}).  Quadratic in q^n; meant
    for desk-scale cross-checks only.
    """
    q = f.q
    vectors = [point_coords(i, q, n) for i in range(q**n)]
    total = 0
    fibers: dict[tuple, int] = {}
    for combo in itertools.product(vectors, repeat=n - 1):
        reduced, pivots = rref(f, combo)
        if len(pivots) == n - 1:
            total += 1
            fibers[reduced] = fibers.get(reduced, 0) + 1
    return total, fibers


def union_brute(f: FieldSpec, n: int, assignment: OffsetAssignment) -> PointSet:
    """The union of the assigned hyperplanes, point by point: x is in it
    when some direction's per-element dot product with x is its level."""
    q = f.q
    pairs = list(zip(enumerate_directions(f, n), assignment.levels))
    bits = 0
    for x in range(q**n):
        coords = point_coords(x, q, n)
        if any(dot(f, d.normal, coords) == lvl for d, lvl in pairs):
            bits |= 1 << x
    return PointSet(q, n, bits)


def incidence_count_direct(
    f: FieldSpec, pset: PointSet, assignment: OffsetAssignment
) -> int:
    """Literal count of (direction, v) with v in E on the chosen hyperplane."""
    q, n = pset.q, pset.n
    dirs = enumerate_directions(f, n)
    count = 0
    for v in pset.indices():
        coords = point_coords(v, q, n)
        for d, lvl in zip(dirs, assignment.levels):
            if dot(f, d.normal, coords) == lvl:
                count += 1
    return count


def triple_count_direct(
    f: FieldSpec, pset: PointSet, assignment: OffsetAssignment
) -> int:
    """Literal count of (w1, w2, v) with v in E on both chosen hyperplanes."""
    q, n = pset.q, pset.n
    dirs = enumerate_directions(f, n)
    levels = list(assignment.levels)
    member_coords = [point_coords(i, q, n) for i in pset.indices()]
    # level of every member w.r.t. every direction, computed point by point
    member_levels = [
        [dot(f, d.normal, coords) for coords in member_coords] for d in dirs
    ]
    count = 0
    for i in range(len(dirs)):
        for j in range(len(dirs)):
            li, lj = levels[i], levels[j]
            row_i, row_j = member_levels[i], member_levels[j]
            for m in range(len(member_coords)):
                if row_i[m] == li and row_j[m] == lj:
                    count += 1
    return count


def coset_containment_brute(f: FieldSpec, pset: PointSet, sub_rows, n: int) -> bool:
    """Does some coset of the given subspace lie entirely in pset?"""
    return least_full_coset_brute(f, pset, sub_rows, n) is not None


def least_full_coset_brute(f: FieldSpec, pset: PointSet, sub_rows, n: int) -> int | None:
    """The least point x whose coset x + span(sub_rows) lies entirely in
    pset, or None if no coset does.

    Builds every coset explicitly from the span and translates it through
    all points in increasing order, so a coset is first met at its least
    point; no bucket counting involved.
    """
    q = f.q
    k = len(sub_rows)
    span = set()
    for coeffs in itertools.product(range(q), repeat=k):
        v = [0] * n
        for c, row in zip(coeffs, sub_rows):
            for pos in range(n):
                v[pos] = field_add(f, v[pos], field_mul(f, c, row[pos]))
        span.add(tuple(v))
    member = set(pset.indices())
    seen_cosets = set()
    for start in range(q**n):
        base = point_coords(start, q, n)
        coset = frozenset(
            sum(
                field_add(f, a, b) * q**pos
                for pos, (a, b) in enumerate(zip(base, s))
            )
            for s in span
        )
        if coset in seen_cosets:
            continue
        seen_cosets.add(coset)
        if coset <= member:
            return start
    return None


def annihilator_brute(f: FieldSpec, rows, n: int) -> set[tuple[int, ...]]:
    """Every x of F_q^n with r . x = 0 for each row r, found by testing all
    q^n points with per-element dot products."""
    points = (point_coords(i, f.q, n) for i in range(f.q**n))
    return {x for x in points if all(dot(f, r, x) == 0 for r in rows)}


def is_gap_set_brute(f: FieldSpec, n: int, points) -> bool:
    """Does every nonzero functional u of F_q^n miss some value on the
    points (indices)?  Exactly then is their complement Kakeya.  Levels are
    per-element dot products over every nonzero u, not only the canonical
    normals."""
    q = f.q
    coords = [point_coords(i, q, n) for i in points]
    for u in itertools.product(range(q), repeat=n):
        if any(u) and len({dot(f, u, x) for x in coords}) == q:
            return False
    return True


def gap_levels_brute(f: FieldSpec, n: int, gaps) -> list[set[int]]:
    """Per direction in enumeration order, the levels of the given points
    (indices), from per-element dot products."""
    coords = [point_coords(i, f.q, n) for i in gaps]
    return [{dot(f, d.normal, x) for x in coords} for d in enumerate_directions(f, n)]


def cheapest_gains_brute(f: FieldSpec, n: int, covered: PointSet, free) -> list[int]:
    """Per direction of `free` (positions in enumeration order), the fewest
    points outside `covered` on any of its hyperplanes, counted point by
    point from per-element dot products."""
    q = f.q
    normals = [d.normal for d in enumerate_directions(f, n)]
    counts = [[0] * q for _ in free]
    for x in range(q**n):
        if not covered.contains(x):
            coords = point_coords(x, q, n)
            for row, d in zip(counts, free):
                row[dot(f, normals[d], coords)] += 1
    return [min(row) for row in counts]


def lex_smallest_optimum_brute(f: FieldSpec, n: int, size: int):
    """The lexicographically smallest level assignment, over the directions
    in enumeration order, whose union of hyperplanes has `size` points, or
    None if none has.  Every assignment is scanned in order; hyperplanes
    come from per-element dot products."""
    q = f.q
    dirs = enumerate_directions(f, n)
    on = [[set() for _ in range(q)] for _ in dirs]  # on[d][c]: points of hyperplane (d, c)
    for x in range(q**n):
        coords = point_coords(x, q, n)
        for d, direction in enumerate(dirs):
            on[d][dot(f, direction.normal, coords)].add(x)
    for levels in itertools.product(range(q), repeat=len(dirs)):
        if len(set().union(*(on[d][c] for d, c in enumerate(levels)))) == size:
            return levels
    return None


def check_field_axioms(f: FieldSpec, triple_sample: int = 2000, seed: int = 0) -> None:
    """Exhaustive field-axiom check; raises AssertionError on any failure.

    Pairs are checked exhaustively.  Triples (associativity, distributivity)
    are exhaustive for q <= 32 and sampled with a seeded generator above.
    """
    q = f.q
    elems = range(q)
    zero, one = 0, 1

    for a in elems:
        assert field_add(f, a, zero) == a
        assert field_mul(f, a, one) == a
        assert field_mul(f, a, zero) == zero
        assert field_add(f, a, field_neg(f, a)) == zero
        if a != zero:
            assert field_mul(f, a, field_inv(f, a)) == one

    for a in elems:
        for b in elems:
            assert field_add(f, a, b) == field_add(f, b, a)
            assert field_mul(f, a, b) == field_mul(f, b, a)

    if q <= 32:
        triples = itertools.product(elems, repeat=3)
    else:
        rng = random.Random(seed)
        triples = (
            (rng.randrange(q), rng.randrange(q), rng.randrange(q))
            for _ in range(triple_sample)
        )
    for a, b, c in triples:
        assert field_add(f, field_add(f, a, b), c) == field_add(f, a, field_add(f, b, c))
        assert field_mul(f, field_mul(f, a, b), c) == field_mul(f, a, field_mul(f, b, c))
        assert field_mul(f, a, field_add(f, b, c)) == field_add(
            f, field_mul(f, a, b), field_mul(f, a, c)
        )


def check_multiplicative_order(f: FieldSpec) -> None:
    """a^(q-1) = 1 for every nonzero a; raises AssertionError otherwise."""
    q = f.q
    for a in range(1, q):
        acc = 1
        for _ in range(q - 1):
            acc = field_mul(f, acc, a)
        assert acc == 1, f"element {a} has order not dividing {q - 1}"

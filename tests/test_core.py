import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya import core, geometry
from kakeya.bounds import kakeya_lower_bound_ceiling
from kakeya.core import (
    KakeyaVerdict,
    OffsetAssignment,
    _hole_flags,
    assignment_from_json,
    build_union,
    incidence_stats,
    is_kakeya,
    json_text,
    level_masks,
    point_set_from_json,
    point_set_text,
    point_set_to_json,
    random_assignment,
    read_assignment,
    read_point_set,
    write_assignment,
    write_point_set,
)
from kakeya.field import field_add, field_mul, field_sub, make_field, parse_field_spec
from kakeya.geometry import (
    count_directions_formula,
    count_subspaces,
    enumerate_directions,
    enumerate_subspaces,
    point_coords,
    point_index,
)
from kakeya.oracles import (
    coset_containment_brute,
    dot,
    failing_gaps_brute,
    gap_levels_brute,
    incidence_count_direct,
    is_gap_set_brute,
    triple_count_direct,
    union_brute,
)
from kakeya.pointset import PointSet
from kakeya.search import minimal_kakeya_exact


def test_build_union_examples_2_2():
    f = make_field(2, 1)
    assert build_union(f, 2, OffsetAssignment((0, 0, 0))).cardinality == 4
    union = build_union(f, 2, OffsetAssignment((0, 0, 1)))
    assert union.cardinality == 3
    assert sorted(union.indices()) == [0, 1, 2]


def test_build_union_degenerate_n_1():
    f = make_field(5, 1)
    union = build_union(f, 1, OffsetAssignment((3,)))
    assert union.cardinality == 1
    assert list(union.indices()) == [3]


def test_build_union_rejects_bad_assignments():
    f = make_field(2, 1)
    with pytest.raises(ValueError):
        build_union(f, 2, OffsetAssignment((0, 0)))  # one direction missing
    with pytest.raises(ValueError):
        build_union(f, 2, OffsetAssignment((0, 0, 2)))  # level out of range


# build_union's switch to the open points: as built, after the first batch
# of directions that leaves the union open, or never
SWITCHES = {
    "as built": core._switch_to_points,
    "at once": lambda added, open_count, left: True,
    "never": lambda added, open_count, left: False,
}
# (p, k, n) cells small enough for union_brute
UNION_CELLS = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (7, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 3),
               (5, 1, 3), (2, 1, 4), (3, 1, 4), (2, 1, 5), (5, 1, 1), (257, 1, 1)]


@pytest.mark.parametrize("switch", sorted(SWITCHES))
@pytest.mark.parametrize("p,k,n", UNION_CELLS)
def test_build_union_matches_the_brute_force_union(p, k, n, switch, monkeypatch):
    monkeypatch.setattr(core, "_switch_to_points", SWITCHES[switch])
    f = make_field(p, k)
    s = count_directions_formula(f.q, n)
    rng = random.Random(s)
    # every hyperplane through 0, random levels, and levels 0 and 1 only
    assignments = [OffsetAssignment((0,) * s)]
    assignments += [random_assignment(f, n, seed) for seed in range(4)]
    assignments += [OffsetAssignment(tuple(rng.randrange(2) for _ in range(s))) for _ in range(4)]
    for assignment in assignments:
        assert build_union(f, n, assignment) == union_brute(f, n, assignment)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_build_union_matches_the_brute_force_union_on_drawn_assignments(data):
    p, k, n = data.draw(st.sampled_from(
        [(7, 1, 2), (3, 1, 3), (2, 2, 3), (5, 1, 3), (2, 1, 4), (3, 1, 4), (2, 1, 5)]))
    f = make_field(p, k)
    s = count_directions_formula(f.q, n)
    levels = data.draw(st.lists(st.integers(0, f.q - 1), min_size=s, max_size=s))
    assignment = OffsetAssignment(tuple(levels))
    want = union_brute(f, n, assignment)
    for switch in SWITCHES.values():
        with mock.patch.object(core, "_switch_to_points", switch):
            assert build_union(f, n, assignment) == want


@pytest.mark.parametrize("q,n", [(4, 3), (5, 3), (2, 8), (3, 5), (4, 4)])
def test_build_union_of_a_search_witness_matches_the_brute_force_union(q, n, monkeypatch):
    f = parse_field_spec(str(q))
    witness = minimal_kakeya_exact(f, n).witness
    want = union_brute(f, n, witness)
    assert want.cardinality < f.q**n  # the union leaves the maximum gap set open
    for switch in SWITCHES.values():
        monkeypatch.setattr(core, "_switch_to_points", switch)
        assert build_union(f, n, witness) == want


def test_is_kakeya_full_and_empty():
    f = make_field(3, 1)
    assert is_kakeya(f, PointSet.full(3, 2)).ok
    verdict = is_kakeya(f, PointSet.empty(3, 2))
    assert not verdict.ok
    assert verdict.failing_index == 0
    assert verdict.witness is None


def test_full_space_minus_any_point_is_kakeya_2_3():
    f = make_field(2, 1)
    full = (1 << 8) - 1
    for removed in range(8):
        pset = PointSet(2, 3, full ^ (1 << removed))
        verdict = is_kakeya(f, pset)
        assert verdict.ok
        assert isinstance(verdict.witness, OffsetAssignment)
        assert len(verdict.witness) == 7
        # witness hyperplanes avoid the removed point
        union = build_union(f, 3, verdict.witness)
        assert not union.contains(removed)


def test_is_kakeya_witness_is_smallest_level():
    f = make_field(2, 1)
    verdict = is_kakeya(f, PointSet.full(2, 3))
    assert verdict.witness.levels == (0,) * 7


def test_is_kakeya_plane_dim_validation():
    f = make_field(2, 1)
    full = PointSet.full(2, 3)
    with pytest.raises(ValueError):
        is_kakeya(f, full, 0)
    with pytest.raises(ValueError):
        is_kakeya(f, full, 3)
    f5 = make_field(5, 1)
    assert is_kakeya(f5, PointSet.full(5, 1), 0).ok
    with pytest.raises(ValueError):
        is_kakeya(f5, PointSet.full(5, 1), 1)


def test_is_kakeya_field_mismatch():
    f = make_field(3, 1)
    with pytest.raises(ValueError):
        is_kakeya(f, PointSet.full(2, 2))


def test_incidence_stats_field_mismatch():
    with pytest.raises(ValueError, match="field order does not match the point set"):
        incidence_stats(make_field(3, 1), PointSet.full(2, 2), OffsetAssignment((0, 0, 0)))


# spaces whose gap-free set is checked at every plane dimension
FULL_SET_CELLS = [(2, 1, 3), (2, 1, 4), (2, 1, 5), (3, 1, 3), (3, 1, 4), (2, 2, 3),
                  (2, 2, 4), (5, 1, 3), (7, 1, 3)]


@pytest.mark.parametrize("p,k,n", FULL_SET_CELLS)
def test_a_gap_free_set_lists_no_subspace(p, k, n, monkeypatch):
    """F_q^n holds every subspace, and 0 is its least point, so every
    representative and every level is 0, as the per-subspace check found;
    no subspace is listed to say so."""
    def refuse(*args):
        raise AssertionError("subspaces listed")

    monkeypatch.setattr(core, "enumerate_subspaces", refuse)
    f = make_field(p, k)
    full = PointSet.full(f.q, n)
    for dim in range(1, n - 1):
        reps = (0,) * count_subspaces(f.q, n, dim)
        assert is_kakeya(f, full, dim) == KakeyaVerdict(True, dim, reps, None)
    levels = OffsetAssignment((0,) * count_directions_formula(f.q, n))
    assert is_kakeya(f, full, n - 1) == KakeyaVerdict(True, n - 1, levels, None)


def test_a_gap_free_set_is_refused_above_the_subspace_cap():
    f = make_field(2, 1)
    with pytest.raises(ValueError, match="subspace count exceeds enumeration cap"):
        is_kakeya(f, PointSet.full(2, 20), 1)  # 2^20 - 1 lines
    with pytest.raises(ValueError, match="plane dimension 3 out of range for n=3"):
        is_kakeya(f, PointSet.full(2, 3), 3)


def test_round_trip_union_verifies():
    for p, n in [(2, 3), (3, 2)]:
        f = make_field(p, 1)
        for seed in range(20):
            assignment = random_assignment(f, n, seed)
            assert is_kakeya(f, build_union(f, n, assignment)).ok


def test_monotonicity_supersets_stay_kakeya():
    f = make_field(3, 1)
    rng = random.Random(11)
    for seed in range(10):
        base = build_union(f, 2, random_assignment(f, 2, seed))
        extra = base.bits
        for _ in range(3):
            extra |= 1 << rng.randrange(9)
        assert is_kakeya(f, PointSet(3, 2, extra)).ok


@pytest.mark.parametrize("plane_dim", [1, 2])
def test_general_plane_dim_against_coset_brute_force(plane_dim):
    f = make_field(2, 1)
    n = 3
    subs = enumerate_subspaces(f, n, plane_dim)
    rng = random.Random(5)
    cases = [PointSet.full(2, n), PointSet.empty(2, n)]
    cases += [PointSet(2, n, rng.randrange(1 << 8)) for _ in range(12)]
    for pset in cases:
        verdict = is_kakeya(f, pset, plane_dim)
        brute = all(coset_containment_brute(f, pset, s.rows, n) for s in subs)
        assert verdict.ok == brute
        if verdict.ok and plane_dim < n - 1:
            assert len(verdict.witness) == len(subs)


def _least_full_coset_point(f, pset, rows, n):
    """The smallest point x whose coset x + span(rows) lies in pset, or
    None; spans and sums from per-element field arithmetic."""
    q = f.q
    span = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            v = [field_add(f, a, field_mul(f, c, b)) for a, b in zip(v, row)]
        span.add(tuple(v))
    for x in range(q**n):
        base = point_coords(x, q, n)
        if all(pset.contains(point_index([field_add(f, a, b) for a, b in zip(base, v)], q))
               for v in span):
            return x
    return None


@pytest.mark.parametrize("p,k,n,plane_dim", [(2, 1, 3, 1), (3, 1, 3, 1), (2, 2, 3, 1),
                                              (2, 1, 4, 1), (2, 1, 4, 2), (3, 1, 4, 1)])
def test_k_plane_representatives_with_gaps_against_brute_force(p, k, n, plane_dim):
    # a subspace that holds no gap has representative 0; one that holds a
    # gap (the origin among them) needs its coset keys
    f = make_field(p, k)
    total = f.q**n
    subs = enumerate_subspaces(f, n, plane_dim)
    rng = random.Random(total)
    cases = []
    for count in (1, 2, 3, total // 2):
        cases.append(rng.sample(range(1, total), count))
        cases.append([0] + rng.sample(range(1, total), count - 1))
    for gaps in cases:
        pset = _without(f, n, gaps)
        verdict = is_kakeya(f, pset, plane_dim)
        reps = [_least_full_coset_point(f, pset, sub.rows, n) for sub in subs]
        assert verdict.ok == all(coset_containment_brute(f, pset, sub.rows, n) for sub in subs)
        if verdict.ok:
            assert verdict.witness == tuple(reps)
        else:
            assert verdict.failing_index == reps.index(None)


def test_general_plane_dim_witness_reps_lie_in_set():
    f = make_field(2, 1)
    full = PointSet.full(2, 3)
    verdict = is_kakeya(f, full, 1)
    assert verdict.ok
    assert all(full.contains(rep) for rep in verdict.witness)


@pytest.mark.parametrize(
    "p,n,expected",
    [
        (2, 2, (3, 6, 12, 3)),
        (2, 3, (7, 28, 112, 7)),
        (3, 2, (4, 12, 24, 6)),
    ],
)
def test_incidence_stats_examples(p, n, expected):
    f = make_field(p, 1)
    s, i, w, cs = expected
    assignment = OffsetAssignment((0,) * s)
    pset = build_union(f, n, assignment)
    report = incidence_stats(f, pset, assignment)
    assert report.s_count == s
    assert report.i_count == i
    assert report.w_count == w
    assert report.cs_bound == cs
    assert report.set_size >= report.cs_bound


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_incidence_formulas_and_triple_brute_force(p, n):
    f = make_field(p, 1)
    q = f.q
    s = len(enumerate_directions(f, n))
    for seed in range(10):
        assignment = random_assignment(f, n, seed)
        pset = build_union(f, n, assignment)
        report = incidence_stats(f, pset, assignment)
        assert report.i_count == s * q ** (n - 1)
        assert report.w_count == report.i_count + s * (s - 1) * q ** (n - 2)
        assert report.i_count == incidence_count_direct(f, pset, assignment)
        assert report.w_count == triple_count_direct(f, pset, assignment)
        assert report.set_size >= report.cs_bound


def test_incidence_stats_requires_containment():
    f = make_field(2, 1)
    assignment = OffsetAssignment((0, 0, 0))
    pset = build_union(f, 2, OffsetAssignment((1, 1, 1)))
    with pytest.raises(ValueError, match="not contained"):
        incidence_stats(f, pset, assignment)


def test_incidence_stats_degenerate_n_1():
    f = make_field(3, 1)
    assignment = OffsetAssignment((2,))
    pset = build_union(f, 1, assignment)
    report = incidence_stats(f, pset, assignment)
    assert (report.s_count, report.i_count, report.w_count) == (1, 1, 1)
    assert report.cs_bound == 1


def _without(f, n, gaps) -> PointSet:
    """F_q^n less the given points."""
    return PointSet(f.q, n, PointSet.full(f.q, n).bits & ~sum(1 << i for i in set(gaps)))


def _least_full_levels(f, n, gaps) -> list[int | None]:
    """Per direction, the least level that no gap lies on, or None when
    every level holds a gap; levels from per-element dot products."""
    coords = [point_coords(i, f.q, n) for i in gaps]
    out = []
    for d in enumerate_directions(f, n):
        holes = {dot(f, d.normal, x) for x in coords}
        out.append(next((c for c in range(f.q) if c not in holes), None))
    return out


# (p, k, n): prime and extension fields, n = 1, and F_257, whose level
# vectors are lists rather than bytes
GATHER_CELLS = [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 3), (2, 2, 3),
                (5, 1, 1), (257, 1, 1)]


def _gap_counts(f, n) -> list[int]:
    """0, 1 and 2 gaps, and |S| - 1, |S| and |S| + 1: the (direction x gap)
    level table is read along the gaps below |S| gaps (and within the
    paper's bound), along the directions from |S| on."""
    s = len(enumerate_directions(f, n))
    return [c for c in (0, 1, 2, s - 1, s, s + 1) if 0 <= c <= f.q**n]


@pytest.mark.parametrize("p,k,n", GATHER_CELLS)
def test_is_kakeya_with_few_gaps_against_brute_force(p, k, n):
    # no gap, one gap, two gaps, |S| - 1 to |S| + 1 gaps, and the empty set
    f = make_field(p, k)
    total = f.q**n
    rng = random.Random(total)
    cases = [[], list(range(total))]
    cases += [[i] for i in rng.sample(range(total), 4)]
    cases += [rng.sample(range(total), 2) for _ in range(4)]
    cases += [rng.sample(range(total), c) for c in _gap_counts(f, n)[3:] for _ in range(3)]
    hyperplanes = enumerate_subspaces(f, n, n - 1)
    for gaps in cases:
        pset = _without(f, n, gaps)
        verdict = is_kakeya(f, pset)
        assert verdict.ok == is_gap_set_brute(f, n, gaps)
        assert verdict.ok == all(coset_containment_brute(f, pset, h.rows, n) for h in hyperplanes)
        full = _least_full_levels(f, n, gaps)
        if verdict.ok:
            assert verdict.witness.levels == tuple(full)
            assert verdict.failing_index is None
        else:
            assert verdict.witness is None
            assert verdict.failing_index == full.index(None)


@pytest.mark.parametrize("p,k,n", GATHER_CELLS)
def test_incidence_stats_with_few_gaps(p, k, n):
    f = make_field(p, k)
    total = f.q**n
    s = len(enumerate_directions(f, n))
    rng = random.Random(total)
    for count in _gap_counts(f, n):
        gaps = rng.sample(range(total), count)
        pset = _without(f, n, gaps)
        # a random level per direction fails at the first one that holds a gap
        levels = tuple(rng.randrange(f.q) for _ in range(s))
        holes = gap_levels_brute(f, n, gaps)
        first = next((pos for pos, lvl in enumerate(levels) if lvl in holes[pos]), None)
        if first is not None:
            with pytest.raises(ValueError) as err:
                incidence_stats(f, pset, OffsetAssignment(levels))
            assert str(err.value) == f"hyperplane for direction #{first} is not contained in the set"
        full = _least_full_levels(f, n, gaps)
        if None in full:
            continue
        assignment = OffsetAssignment(tuple(full))
        report = incidence_stats(f, pset, assignment)
        assert report.i_count == s * f.q ** (n - 1) == incidence_count_direct(f, pset, assignment)
        assert report.set_size == total - len(gaps)


@pytest.mark.parametrize("p,k,n", GATHER_CELLS)
def test_hole_flags_match_the_gap_level_brute_force(p, k, n):
    f = make_field(p, k)
    q, total = f.q, f.q**n
    rng = random.Random(total)
    for count in _gap_counts(f, n):
        gaps = rng.sample(range(total), count)
        pset = _without(f, n, gaps)
        holes = gap_levels_brute(f, n, gaps)
        rows = list(_hole_flags(f, pset))
        assert [{c for c in range(q) if row[c]} for row in rows] == holes


def _counted_kernel(monkeypatch) -> list:
    """Patch core's level kernel and its direction levels to record each
    level vector they build."""
    calls = []
    real_kernel, real_directions = core._level_kernel, core._direction_levels

    def kernel(f):
        levels = real_kernel(f)

        def counted(u):
            calls.append(u)
            return levels(u)

        return counted

    def directions(f, vectors):
        for vector in real_directions(f, vectors):
            calls.append(vector)
            yield vector

    monkeypatch.setattr(core, "_level_kernel", kernel)
    monkeypatch.setattr(core, "_direction_levels", directions)
    return calls


@pytest.mark.parametrize("p,k,n", [(3, 1, 3), (2, 2, 3), (5, 1, 2)])
def test_level_vector_counts_are_pinned(p, k, n, monkeypatch):
    # no gap: none; G < |S| gaps, no more than the paper's bound leaves a
    # Kakeya set: one per gap; along the directions, a reject stops after
    # its failing direction
    f = make_field(p, k)
    total = f.q**n
    s = len(enumerate_directions(f, n))
    most_gaps = total - kakeya_lower_bound_ceiling(f.q, n)
    calls = _counted_kernel(monkeypatch)
    full = PointSet.full(f.q, n)
    assert is_kakeya(f, full).ok
    incidence_stats(f, full, OffsetAssignment((1,) * s))
    assert is_kakeya(f, full, 1).ok  # lines, for n >= 3
    assert calls == []
    rng = random.Random(total)
    for count in (1, s // 2, s - 1):
        pset = _without(f, n, rng.sample(range(total), count))
        del calls[:]
        verdict = is_kakeya(f, pset)
        if count <= most_gaps:
            assert len(calls) == count
        else:
            assert not verdict.ok and len(calls) == verdict.failing_index + 1
    rejects = 0
    for _ in range(40):
        pset = PointSet(f.q, n, rng.getrandbits(total))
        if total - pset.cardinality < s:
            continue
        del calls[:]
        verdict = is_kakeya(f, pset)
        if not verdict.ok:
            assert len(calls) == verdict.failing_index + 1
            rejects += 1
    assert rejects > 0


def _union_vector_counts(f, n, levels) -> tuple[int, int]:
    """The directions and the open points whose level vectors build_union
    reads for these levels.  It counts the union of the first directions'
    hyperplanes after every batch of 8 and stops at the first full one; it
    switches to one vector per open point after a batch that covered fewer
    than 8 new points and left fewer points open than directions unread.
    Hyperplanes are listed here from per-element dot products."""
    total = f.q**n
    dirs = enumerate_directions(f, n)
    coords = [point_coords(x, f.q, n) for x in range(total)]
    covered, before = set(), 0
    for done, (d, lvl) in enumerate(zip(dirs, levels), 1):
        covered.update(x for x, c in enumerate(coords) if dot(f, d.normal, c) == lvl)
        if done % 8:
            continue
        if len(covered) == total:
            return done, 0
        if len(covered) - before < 8 and total - len(covered) < len(dirs) - done:
            return done, total - len(covered)
        before = len(covered)
    return len(dirs), 0


def test_union_level_vector_counts_are_pinned(monkeypatch):
    # k directions, then G open points.  k + 1 lines of the plane cover at
    # most q + k (q - 1) points, so at least as many stay open as lines are
    # left, and a planar union reads every direction: |S| vectors.
    kinds = set()
    for p, k, n in [(3, 1, 2), (7, 1, 2), (3, 2, 2), (5, 2, 2), (3, 1, 3), (2, 2, 3),
                    (5, 1, 3), (7, 1, 3), (2, 1, 4), (3, 1, 4), (2, 2, 4), (5, 1, 4)]:
        f = make_field(p, k)
        s = count_directions_formula(f.q, n)
        assignments = [random_assignment(f, n, seed) for seed in range(3)]
        if n >= 3 and f.q <= 5:  # the exact search is slow from (7,3) on
            assignments.append(minimal_kakeya_exact(f, n).witness)
        for assignment in assignments:
            directions, points = _union_vector_counts(f, n, assignment.levels)
            with monkeypatch.context() as m:
                calls = _counted_kernel(m)
                build_union(f, n, assignment)
            assert len(calls) == directions + points
            if n == 2:
                assert (directions, points) == (s, 0)
            elif points:
                kinds.add("open points")
            elif directions < s:
                kinds.add("full")
    assert kinds == {"full", "open points"}


@pytest.mark.parametrize("q,n,directions", [(3, 10, 16), (2, 16, 8)])
def test_large_union_level_vector_counts_are_pinned(q, n, directions, monkeypatch):
    # the random unions fill the space within two batches; along every
    # direction they would read 29,524 and 65,535 level vectors
    f = parse_field_spec(str(q))
    assignment = random_assignment(f, n, 1)
    calls = _counted_kernel(monkeypatch)
    assert build_union(f, n, assignment) == PointSet.full(f.q, n)
    assert len(calls) == directions


def _lines_union(f, levels) -> PointSet:
    """The union of the assigned lines of F_q^2, listed point by point: the
    line of normal (1, b) at level c holds (c - b y, y) for every y, that of
    (0, 1) holds (x, c) for every x."""
    q = f.q
    bits = 0
    for d, c in zip(enumerate_directions(f, 2), levels):
        a, b = d.normal
        for t in range(q):
            x, y = (field_sub(f, c, field_mul(f, b, t)), t) if a else (t, c)
            bits |= 1 << (x + q * y)
    return PointSet(q, 2, bits)


def test_fields_above_256_elements_keep_the_direction_side(monkeypatch):
    # their levels are not bytes, so the open points are not read
    f = make_field(257, 1)
    monkeypatch.setattr(core, "_switch_to_points", SWITCHES["at once"])
    assignment = random_assignment(f, 2, 1)
    calls = _counted_kernel(monkeypatch)
    union = build_union(f, 2, assignment)
    assert len(calls) == f.q + 1
    assert union == _lines_union(f, assignment.levels)


def test_f_256_reads_one_level_vector_per_gap(monkeypatch):
    # F_2^8 has byte levels, so a plane set with few gaps reads along them;
    # a planar union reads every direction as built
    f = make_field(2, 8)
    calls = _counted_kernel(monkeypatch)
    rng = random.Random(256)
    for count in (1, 2, 3):
        gaps = rng.sample(range(f.q**2), count)
        del calls[:]
        verdict = is_kakeya(f, _without(f, 2, gaps))
        assert len(calls) == count
        assert verdict.ok and list(verdict.witness.levels) == _least_full_levels(f, 2, gaps)
    assignment = random_assignment(f, 2, 1)
    del calls[:]
    assert build_union(f, 2, assignment) == _lines_union(f, assignment.levels)
    assert len(calls) == f.q + 1


@pytest.mark.parametrize("count", [1, 2])
def test_hole_flags_of_the_f_256_plane_match_the_gap_level_brute_force(count):
    f = make_field(2, 8)
    gaps = random.Random(count).sample(range(f.q**2), count)
    rows = list(_hole_flags(f, _without(f, 2, gaps)))
    assert [{c for c in range(f.q) if row[c]} for row in rows] == gap_levels_brute(f, 2, gaps)


# q gaps, one on each level of direction #d and none filling an earlier
# direction: near-full sets that fail first at #d.  On (3,3), F_4^3 and
# (7,3) they are read along their gaps, and #d falls before, at and after
# the switch from column reads to the bulk rows; F_256 reads no column.
@pytest.mark.parametrize("p,k,n", GATHER_CELLS + [(7, 1, 3), (2, 8, 2)])
def test_gap_side_rejects_match_the_gap_level_brute_force(p, k, n):
    f = make_field(p, k)
    s = len(enumerate_directions(f, n))
    switch = core._column_reads(f.q, f.q)
    targets = range(s) if s <= 57 else (0, 1, s - 1)  # every direction up to (7,3)
    checked = []
    for d in targets:
        gaps = failing_gaps_brute(f, n, d, seed=d)
        if gaps is None:
            continue
        holes = gap_levels_brute(f, n, gaps)
        pset = _without(f, n, gaps)
        assert [{c for c in range(f.q) if row[c]} for row in _hole_flags(f, pset)] == holes
        verdict = is_kakeya(f, pset)
        assert not verdict.ok and verdict.witness is None
        assert verdict.failing_index == d == [len(h) for h in holes].index(f.q)
        checked.append(d)
    assert checked[0] == 0
    if (p, k, n) in [(3, 1, 3), (2, 2, 3), (7, 1, 3), (2, 8, 2)]:
        assert {switch - 1, switch} & set(range(s)) <= set(checked)
    if (p, k, n) in [(2, 2, 3), (7, 1, 3)]:
        assert switch + 1 in checked


def test_a_reject_before_the_switch_builds_no_bulk_rows(monkeypatch):
    # F_7^3 less 7 points, the benchmark's near-miss shape: 25 of its 57
    # directions are read one column at a time
    f = make_field(7, 1)
    assert core._column_reads(7, 7) == 25
    built = []
    real = core._gap_hole_rows

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_gap_hole_rows", counted)
    for d, bulk in ((0, 0), (24, 0), (25, 1), (56, 1)):
        pset = _without(f, 3, failing_gaps_brute(f, 3, d, seed=d))
        del built[:]
        assert is_kakeya(f, pset).failing_index == d
        assert len(built) == bulk
        del built[:]
        assert len(list(_hole_flags(f, pset))) == 57 and len(built) == 1


def test_enumeration_cap_refuses_before_any_level_vector(monkeypatch):
    def refuse(f):
        raise AssertionError("level kernel built")

    monkeypatch.setattr(core, "_level_kernel", refuse)
    f = make_field(2, 1)
    pset = PointSet.full(2, 20)
    assignment = OffsetAssignment((0,))
    for call in (lambda: is_kakeya(f, pset),
                 lambda: incidence_stats(f, pset, assignment),
                 lambda: build_union(f, 20, assignment)):
        with pytest.raises(ValueError, match="direction count exceeds enumeration cap"):
            call()


# F_2^8 in the plane: the union is read along the directions, the hole
# flags of its one or two points outside the set along those points
@pytest.mark.parametrize("p,k,n", GATHER_CELLS + [(2, 8, 2)])
def test_incidence_stats_names_the_first_direction_not_contained(p, k, n):
    f = make_field(p, k)
    dirs = enumerate_directions(f, n)
    rng = random.Random(3)
    for seed in range(4):
        assignment = random_assignment(f, n, seed)
        union = build_union(f, n, assignment)
        members = sorted(union.indices())
        picked = rng.sample(members, min(2, len(members)))
        for removed in (picked[:1], picked):
            pset = PointSet(f.q, n, union.bits & ~sum(1 << i for i in removed))
            coords = [point_coords(i, f.q, n) for i in removed]
            first = next(pos for pos, (d, lvl) in enumerate(zip(dirs, assignment.levels))
                         if any(dot(f, d.normal, x) == lvl for x in coords))
            with pytest.raises(ValueError) as err:
                incidence_stats(f, pset, assignment)
            assert str(err.value) == f"hyperplane for direction #{first} is not contained in the set"


def test_random_kakeya_deterministic_and_valid():
    f = make_field(3, 1)
    a, b, c = (build_union(f, 2, random_assignment(f, 2, seed)) for seed in (123, 123, 124))
    assert a.bits == b.bits
    assert a.bits != c.bits or a.cardinality == c.cardinality
    assert is_kakeya(f, a).ok


def test_random_kakeya_3_3_sizes_meet_bound():
    f = make_field(3, 1)
    for seed in range(100):
        assert build_union(f, 3, random_assignment(f, 3, seed)).cardinality >= 24


def test_level_masks_partition_space():
    f = make_field(3, 1)
    for row in level_masks(f, 2):
        assert sum(m.bit_count() for m in row) == 9
        combined = 0
        for m in row:
            assert combined & m == 0
            combined |= m
        assert combined == (1 << 9) - 1


# -- serialization ------------------------------------------------------------


def test_point_set_json_roundtrip(tmp_path):
    f = make_field(3, 2)
    pset = PointSet.from_indices(9, 1, [0, 4, 8])
    path = tmp_path / "set.json"
    write_point_set(path, f, pset, include_points=True)
    f2, back = read_point_set(path)
    assert back.bits == pset.bits
    assert (f2.p, f2.k, f2.q) == (3, 2, 9)
    raw = json.loads(path.read_text())
    assert raw["bits_hex"] == format(pset.bits, "03x")
    assert len(raw["bits_hex"]) == (9 + 3) // 4


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_point_set_json_round_trip_on_random_sets(data):
    p, k, n = data.draw(st.sampled_from(
        [(2, 1, 1), (2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 2), (7, 1, 3), (2, 3, 3)]))
    f = make_field(p, k)
    pset = PointSet(f.q, n, data.draw(st.integers(0, (1 << f.q**n) - 1)))
    for include_points in (False, True):
        obj = json.loads(json.dumps(point_set_to_json(f, pset, include_points)))
        assert ("points" in obj) == include_points
        f2, back = point_set_from_json(obj)
        assert (f2.p, f2.k, f2.q) == (p, k, f.q)
        assert back == pset


def test_point_set_json_refuses_bits_beyond_the_space():
    # the 3 hex digits of F_3^2 hold 12 bits, 3 of them beyond its 9 points
    obj = {"q": 3, "p": 3, "k": 1, "n": 2, "bits_hex": "800"}
    with pytest.raises(ValueError, match="bits_hex sets bits beyond the point space"):
        point_set_from_json(obj)


def test_point_set_json_validation():
    f = make_field(2, 1)
    obj = point_set_to_json(f, PointSet.full(2, 3))
    assert obj["bits_hex"] == "ff"

    bad = dict(obj)
    bad["bits_hex"] = "ff0"  # wrong width
    with pytest.raises(ValueError, match="hex"):
        point_set_from_json(bad)

    bad = dict(obj)
    bad["bits_hex"] = "zz"
    with pytest.raises(ValueError):
        point_set_from_json(bad)

    bad = dict(obj)
    bad["q"] = 3
    with pytest.raises(ValueError):
        point_set_from_json(bad)

    missing = {k: v for k, v in obj.items() if k != "n"}
    with pytest.raises(ValueError, match="missing"):
        point_set_from_json(missing)


def test_point_set_points_agreement():
    f = make_field(2, 1)
    pset = PointSet.from_indices(2, 2, [0, 3])
    obj = point_set_to_json(f, pset, include_points=True)
    assert point_set_from_json(obj)[1].bits == pset.bits
    obj["points"] = [[0, 0]]  # drop one point: disagreement
    with pytest.raises(ValueError, match="disagrees"):
        point_set_from_json(obj)


@pytest.mark.parametrize("spec,n", [("5", 3), ("3^2", 2), ("13", 2), ("31", 1)])
def test_points_in_any_order_and_repeated_agree_when_their_set_does(spec, n):
    f = parse_field_spec(spec)
    pset = build_union(f, n, random_assignment(f, n, 4))
    obj = point_set_to_json(f, pset, include_points=True)
    points = obj["points"]
    rng = random.Random(spec)
    others = [list(point_coords(i, f.q, n)) for i in range(f.q**n) if not pset.contains(i)]
    assert points and others
    for listed in (points[::-1], rng.sample(points, len(points)),
                   points + rng.choices(points, k=5), points[:1] * 3 + points[1:]):
        assert point_set_from_json({**obj, "points": listed})[1] == pset
    for listed in (points[1:], points[:-1], rng.sample(points, len(points) - 1),
                   points + [rng.choice(others)], [rng.choice(others)] + points[1:]):
        with pytest.raises(ValueError, match="points list disagrees with bits_hex"):
            point_set_from_json({**obj, "points": listed})


@pytest.mark.parametrize("hx", ["0x1", "1_f", " 1f", "+1f", "\u0661\u0662\u0663"])
def test_bits_hex_takes_only_ascii_hex_digits(hx):
    # each is 3 characters, the width for F_3^2, and int(hx, 16) reads each
    obj = {"q": 3, "p": 3, "k": 1, "n": 2, "bits_hex": hx}
    int(hx, 16)
    with pytest.raises(ValueError, match="bits_hex is not valid hexadecimal"):
        point_set_from_json(obj)
    assert point_set_from_json({**obj, "bits_hex": "1fF"})[1].bits == 0x1FF


# n = 1 ... 4, two-digit coordinates up to q = 31, prime and extension fields
RENDER_CELLS = [("2", 1), ("31", 1), ("3", 2), ("2^2", 2), ("11", 2), ("3^3", 2),
                ("31", 2), ("2^3", 3), ("5", 3), ("2", 4), ("3", 4)]


@pytest.mark.parametrize("spec,n", RENDER_CELLS)
def test_point_set_text_is_the_json_dumps_text(spec, n):
    f = parse_field_spec(spec)
    rng = random.Random(f"{spec} {n}")
    total = f.q**n
    sets = [PointSet.empty(f.q, n), PointSet.full(f.q, n),
            PointSet.from_indices(f.q, n, [total - 1]),
            build_union(f, n, random_assignment(f, n, 2))]
    sets += [PointSet(f.q, n, rng.getrandbits(total)) for _ in range(3)]
    for pset in sets:
        for include_points in (False, True):
            want = json.dumps(point_set_to_json(f, pset, include_points),
                              indent=2, sort_keys=True) + "\n"
            assert point_set_text(f, pset, include_points) == want


def test_json_text_is_the_json_dumps_text():
    objs = [
        {"q": 3, "n": 2, "levels": [0, 1, 2, 0]},
        {"levels": [], "witness": None, "kakeya": True, "directions": [[0, 1], [1, 0], []]},
        {"rows": [{"q": 2, "decimal": "3"}, {}], "lower_bound": {"numerator": 6},
         "deep": [[[1, 2], [3]], [True, 2], [None]], "mixed": [1, "a", 2.5, False]},
        {"only": 7},
        {},
    ]
    for obj in objs:
        for sort_keys in (False, True):
            assert json_text(obj, sort_keys) == json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"


def test_assignment_roundtrip(tmp_path):
    f = make_field(2, 1)
    assignment = random_assignment(f, 3, 9)
    path = tmp_path / "witness.json"
    write_assignment(path, f, 3, assignment)
    assert read_assignment(path, 2, 3) == assignment
    with pytest.raises(ValueError, match="witness n=3 does not match the point set's n=2"):
        read_assignment(path, 2, 2)
    assert assignment_from_json(list(assignment.levels)) == assignment
    with pytest.raises(ValueError):
        assignment_from_json({"nope": 1})


def test_indices_match_the_naive_order():
    rng = random.Random(5)
    for q, n in [(2, 5), (3, 4), (5, 3), (7, 2)]:
        total = q**n
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            bits = sum(1 << i for i in range(total) if rng.random() < density)
            naive = [i for i in range(total) if bits >> i & 1]
            assert list(PointSet(q, n, bits).indices()) == naive
    assert list(PointSet.full(2, 18).indices()) == list(range(1 << 18))


def test_pointset_basics():
    pset = PointSet.from_indices(2, 2, [1, 3])
    assert pset.cardinality == 2
    assert pset.contains(1) and not pset.contains(0)
    assert list(pset.indices()) == [1, 3]
    assert pset.bits & PointSet.from_indices(2, 2, [3]).bits == 1 << 3
    assert pset.bits & ~PointSet.full(2, 2).bits == 0
    with pytest.raises(ValueError):
        PointSet(2, 2, 1 << 16)
    with pytest.raises(ValueError):
        PointSet(2, 2, -1)


def test_point_index_helper_consistency():
    # bit order in files: LSB is point index 0
    f = make_field(2, 1)
    pset = PointSet.from_indices(2, 2, [0])
    obj = point_set_to_json(f, pset)
    assert int(obj["bits_hex"], 16) & 1 == 1
    assert point_index((0, 0), 2) == 0


def test_a_reject_lists_one_chunk_of_normals(monkeypatch):
    """A random set of F_2^16 fails at direction #0; the directions' side
    lists the normals' coordinates a chunk at a time, so it lists one."""
    listed = []

    def counting(indices, q, n):
        indices = list(indices)
        listed.append(len(indices))
        return coords_of(indices, q, n)

    coords_of = geometry._coords_of
    monkeypatch.setattr(geometry, "_coords_of", counting)
    monkeypatch.setattr(core, "_coords_of", counting)
    pset = PointSet(2, 16, random.Random(16).getrandbits(1 << 16))
    verdict = is_kakeya(make_field(2, 1), pset)
    assert (verdict.ok, verdict.failing_index) == (False, 0)
    assert 0 < sum(listed) <= geometry._COORD_CHUNK

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.core import (
    OffsetAssignment,
    assignment_from_json,
    build_union,
    incidence_stats,
    is_kakeya,
    level_masks,
    point_set_from_json,
    point_set_to_json,
    random_assignment,
    read_assignment,
    read_point_set,
    write_assignment,
    write_point_set,
)
from kakeya.field import make_field
from kakeya.geometry import enumerate_directions, enumerate_subspaces, point_index
from kakeya.oracles import coset_containment_brute, triple_count_direct
from kakeya.pointset import PointSet


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


def test_assignment_roundtrip(tmp_path):
    f = make_field(2, 1)
    assignment = random_assignment(f, 3, 9)
    path = tmp_path / "witness.json"
    write_assignment(path, f, 3, assignment)
    assert read_assignment(path) == assignment
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
    assert pset.union(PointSet.from_indices(2, 2, [0])).cardinality == 3
    assert pset.intersection(PointSet.from_indices(2, 2, [3])).cardinality == 1
    assert pset.issubset(PointSet.full(2, 2))
    with pytest.raises(ValueError):
        PointSet(2, 2, 1 << 16)
    with pytest.raises(ValueError):
        PointSet(2, 2, -1)
    with pytest.raises(ValueError):
        pset.union(PointSet.full(2, 3))


def test_point_index_helper_consistency():
    # bit order in files: LSB is point index 0
    f = make_field(2, 1)
    pset = PointSet.from_indices(2, 2, [0])
    obj = point_set_to_json(f, pset)
    assert int(obj["bits_hex"], 16) & 1 == 1
    assert point_index((0, 0), 2) == 0

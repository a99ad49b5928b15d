"""The level kernel against per-point dot products, and the verifier built on
it against the brute-force coset oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.core import OffsetAssignment, build_union, is_kakeya, level_masks
from kakeya.field import make_field
from kakeya.geometry import (
    _level_kernel,
    dot,
    enumerate_directions,
    enumerate_subspaces,
    point_coords,
)
from kakeya.oracles import coset_containment_brute
from kakeya.pointset import PointSet

# Every p^k <= 32 with n <= 4, kept to at most 4096 points so the per-point
# reference stays quick.
KERNEL_CELLS = [
    (p, k, n)
    for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
                 (23, 1), (29, 1), (31, 1)]
    for n in range(1, 5)
    if p ** (k * n) <= 4096
]
# Small enough for coset_containment_brute at every plane dimension.
ORACLE_CELLS = [(2, 1, 1), (5, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2),
                (2, 1, 3), (3, 1, 3), (2, 1, 4)]


def _dot_levels(f, n, u):
    return [dot(f, u, point_coords(i, f.q, n)) for i in range(f.q**n)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_level_vector_matches_dot(data):
    p, k, n = data.draw(st.sampled_from(KERNEL_CELLS))
    f = make_field(p, k)
    u = data.draw(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)
                  .filter(any).map(tuple))
    assert list(_level_kernel(f)(u)) == _dot_levels(f, n, u)


@pytest.mark.parametrize("p,n", [(257, 1), (257, 2), (131, 2)])
def test_large_primes_match_dot(p, n):
    # q > 256 takes the list path (its add table only from n = 2 on); 131
    # is the largest prime below that, where byte sums would have overflowed.
    f = make_field(p, 1)
    assert (f.mul_rows is None) == (p > 256)
    levels = _level_kernel(f)
    rng = random.Random(p)
    vectors = [d.normal for d in enumerate_directions(f, n)[:2]]
    vectors.append(tuple(rng.randrange(1, p) for _ in range(n)))
    for u in vectors:
        assert list(levels(u)) == _dot_levels(f, n, u)


def test_list_path_masks_and_verdicts():
    f = make_field(257, 1)
    masks = level_masks(f, 1)
    assert masks == [[1 << c for c in range(257)]]
    pset = PointSet(257, 1, 1 << 200)
    verdict = is_kakeya(f, pset)
    assert verdict.ok and verdict.witness.levels == (200,)
    assert not is_kakeya(f, PointSet.empty(257, 1)).ok


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_kakeya_matches_coset_oracle(data):
    p, k, n = data.draw(st.sampled_from(ORACLE_CELLS))
    f = make_field(p, k)
    q = f.q
    # A hyperplane union with a few points flipped sits near the boundary,
    # so both verdicts occur.
    dirs = enumerate_directions(f, n)
    levels = data.draw(st.lists(st.integers(0, q - 1), min_size=len(dirs),
                                max_size=len(dirs)))
    bits = build_union(f, n, OffsetAssignment(tuple(levels))).bits
    for i in data.draw(st.lists(st.integers(0, q**n - 1), max_size=4)):
        bits ^= 1 << i
    pset = PointSet(q, n, bits)
    masks = level_masks(f, n)
    full = [[c for c in range(q) if row[c] & ~bits == 0] for row in masks]
    for plane_dim in range(1, n) if n > 1 else [0]:
        verdict = is_kakeya(f, pset, plane_dim)
        subs = enumerate_subspaces(f, n, plane_dim)
        assert verdict.ok == all(
            coset_containment_brute(f, pset, s.rows, n) for s in subs
        )
        if plane_dim < n - 1:
            if verdict.ok:
                assert all(pset.contains(rep) for rep in verdict.witness)
            else:
                sub = subs[verdict.failing_index]
                assert not coset_containment_brute(f, pset, sub.rows, n)
        elif verdict.ok:
            assert verdict.witness.levels == tuple(c[0] for c in full)
        else:
            fi = verdict.failing_index
            assert not full[fi] and all(full[:fi])


def test_line_cosets_beyond_one_byte_keys():
    # Two dual functionals over F_17 give 289 coset keys, more than a byte.
    f = make_field(17, 1)
    lines = enumerate_subspaces(f, 3, 1)
    x_axis = lines.index(next(s for s in lines if s.rows == ((1, 0, 0),)))
    verdict = is_kakeya(f, PointSet(17, 3, PointSet.full(17, 3).bits & ~1), 1)
    assert verdict.ok
    # Point 1 = (1,0,0) lies on the line through 0 only for the x-axis,
    # whose next point off it is 17 = (0,1,0).
    assert verdict.witness == tuple(17 if i == x_axis else 1 for i in range(len(lines)))
    # Without the plane x_0 = 0, the first line direction (1, 0, 0) has no
    # full coset.
    off_plane = PointSet.from_indices(17, 3, (i for i in range(17**3) if i % 17))
    verdict = is_kakeya(f, off_plane, 1)
    assert not verdict.ok and verdict.failing_index == 0

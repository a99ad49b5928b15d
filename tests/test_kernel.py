"""The level kernel against per-point dot products, and the verifier built on
it against the brute-force coset oracle."""

import collections
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.core import OffsetAssignment, build_union, is_kakeya, level_masks
from kakeya import geometry
from kakeya.field import field_add, field_mul, make_field
from kakeya.geometry import (
    _direction_levels,
    _flags_mask,
    _level_flags,
    _level_kernel,
    _level_masks_of,
    enumerate_directions,
    enumerate_subspaces,
    point_coords,
    point_index,
)
from kakeya.oracles import coset_containment_brute, dot, least_full_coset_brute
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
# (p, k, n) cells whose k-plane checks are compared subspace by subspace
# with least_full_coset_brute: F_2^5, F_3^4, F_4^3, F_5^3, F_8^3, F_9^3
KPLANE_CELLS = [(2, 1, 5), (3, 1, 4), (2, 2, 3), (5, 1, 3), (2, 3, 3), (3, 2, 3)]


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


def test_the_line_over_f_2_20_makes_no_field_call(monkeypatch):
    # a canonical normal starts with 0 or 1, whose rows are closed forms
    f = make_field(2, 20)

    def refuse(*args):
        raise AssertionError("field_mul called")

    monkeypatch.setattr(geometry, "field_mul", refuse)
    assert _level_kernel(f)((1,)) == list(range(f.q))
    assert _level_kernel(f)((0,)) == [0] * f.q
    assert list(_direction_levels(f, [(1,), (0,)])) == [list(range(f.q)), [0] * f.q]


def _normals(f, n):
    return [d.normal for d in enumerate_directions(f, n)]


@pytest.mark.parametrize("p,k,n", KERNEL_CELLS)
def test_direction_levels_match_the_kernel(p, k, n):
    f = make_field(p, k)
    vectors = _normals(f, n)
    assert list(_direction_levels(f, vectors)) == list(map(_level_kernel(f), vectors))


@pytest.mark.parametrize("p,k,n", [(3, 1, 3), (2, 2, 3), (5, 1, 2), (2, 1, 4)])
def test_direction_levels_keep_or_drop_heads_alike(p, k, n, monkeypatch):
    # no head kept, then exactly one head's q copies of q^(n-1) bytes
    f = make_field(p, k)
    vectors = _normals(f, n)
    want = list(map(_level_kernel(f), vectors))
    for room in (0, f.q**n):
        monkeypatch.setattr(geometry, "_HEAD_BYTES", room)
        assert list(_direction_levels(f, vectors)) == want


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (7, 1)])
def test_direction_levels_of_any_vectors(p, k):
    f = make_field(p, k)
    q = f.q
    rng = random.Random(q)
    level_vector = _level_kernel(f)
    heads = [tuple(rng.randrange(q) for _ in range(2)) for _ in range(3)]
    repeated = [h + (rng.randrange(q),) for h in heads * 3]
    distinct = list({tuple(rng.randrange(q) for _ in range(3)) for _ in range(8)})
    single = [(c,) for c in range(q)] + [(1,), (0,)]
    for vectors in (repeated, distinct, single, []):
        assert list(_direction_levels(f, vectors)) == list(map(level_vector, vectors))


@pytest.mark.parametrize("p,n", [(131, 2), (257, 1), (257, 2)])
def test_direction_levels_of_large_primes(p, n):
    # 131 keeps byte tables, 257 takes the kernel's list path
    f = make_field(p, 1)
    vectors = _normals(f, n)[:5] + [(1,) * n, (2,) * n]
    assert list(_direction_levels(f, vectors)) == list(map(_level_kernel(f), vectors))


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (5, 1, 2), (2, 2, 3), (131, 1, 1), (257, 1, 1)])
def test_level_masks_of_match_the_flags(p, k, n):
    f = make_field(p, k)
    for levels in map(_level_kernel(f), _normals(f, n)[:4]):
        assert isinstance(levels, bytes) == (f.q <= 256)
        assert _level_masks_of(levels, f.q) == [
            _flags_mask(_level_flags(levels, c)) for c in range(f.q)]


def test_direction_levels_keep_to_their_head_bytes(monkeypatch):
    f = make_field(2, 1)
    total = 2**12
    vectors = _normals(f, 12)
    room = 1 << 16
    monkeypatch.setattr(geometry, "_HEAD_BYTES", room)
    # A first drain fills the interpreter's free lists, whose small tuples
    # tracemalloc would count as live.
    collections.deque(_direction_levels(f, vectors), maxlen=0)
    tracemalloc.start()
    try:
        collections.deque(_direction_levels(f, vectors), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < room + 4 * total


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


def _kplane_sets(q, n, rng):
    """Named point sets of F_q^n: less the origin, with one to three random
    gaps, and random sets, sparse and dense."""
    total = q**n
    full = (1 << total) - 1
    sets = [("less the origin", full - 1)]
    for count in (1, 2, 3):
        sets.append((f"{count} gaps", full & ~sum(1 << x for x in rng.sample(range(total), count))))
    sets.append(("random", rng.getrandbits(total)))
    sets.append(("dense", full & ~(rng.getrandbits(total) & rng.getrandbits(total)
                                   & rng.getrandbits(total))))
    return sets


def _transversal(f, n, rows, rng):
    """The full set of F_q^n less one random point of each coset of the
    span of rows, by per-element arithmetic: that subspace has no full
    coset, while most others keep one."""
    q = f.q
    span = [(0,) * n]
    for row in rows:
        span = [tuple(field_add(f, a, field_mul(f, c, b)) for a, b in zip(v, row))
                for v in span for c in range(q)]
    bits, seen = (1 << q**n) - 1, set()
    for x in range(q**n):
        if x not in seen:
            base = point_coords(x, q, n)
            coset = [point_index([field_add(f, a, b) for a, b in zip(base, v)], q) for v in span]
            seen.update(coset)
            bits &= ~(1 << rng.choice(coset))
    return bits


@pytest.mark.parametrize("p,k,n", KPLANE_CELLS)
def test_kplane_checks_match_the_least_full_cosets(p, k, n):
    """Verdict, representatives and failing index of every k-plane check
    against the least full coset of each subspace, found coset by coset."""
    f = make_field(p, k)
    q = f.q
    rng = random.Random(p * 100 + k * 10 + n)
    for plane_dim in range(1, n - 1):
        subs = enumerate_subspaces(f, n, plane_dim)
        broken = rng.choice(subs[1:]).rows
        for name, bits in _kplane_sets(q, n, rng) + [
                ("transversal", _transversal(f, n, broken, rng))]:
            pset = PointSet(q, n, bits)
            reps = []
            for sub in subs:
                reps.append(least_full_coset_brute(f, pset, sub.rows, n))
                if reps[-1] is None:
                    break
            verdict = is_kakeya(f, pset, plane_dim)
            if reps[-1] is None:
                assert (verdict.ok, verdict.failing_index) == (False, len(reps) - 1), name
            else:
                assert verdict.ok and verdict.witness == tuple(reps), name


@pytest.mark.parametrize("n", [9, 10])
def test_line_cosets_of_f_2_9_and_f_2_10_less_the_origin(n):
    """Lines of F_2^n less the origin: 2^(n-1) cosets each, 256 and 512,
    which one-byte coset keys could not both name.  Every line holds the
    gap 0, and its least full coset is that of point 1, or of point 2 for
    the line through 1."""
    f = make_field(2, 1)
    pset = PointSet(2, n, PointSet.full(2, n).bits - 1)
    lines = enumerate_subspaces(f, n, 1)
    verdict = is_kakeya(f, pset, 1)
    assert verdict.ok
    assert verdict.witness == tuple(2 if line.rows == ((1,) + (0,) * (n - 1),) else 1
                                    for line in lines)
    assert list(verdict.witness) == [least_full_coset_brute(f, pset, line.rows, n)
                                     for line in lines]

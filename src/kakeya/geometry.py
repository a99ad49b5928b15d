"""Vectors, directions, subspaces and the level kernel over F_q^n.

A direction is the canonical normal vector of an (n-1)-dimensional linear
subspace: the unique scalar multiple whose first nonzero coordinate is 1.
Directions are ordered by the point index of that normal, which fixes the
meaning of "direction #i" everywhere (witness files, CLI output, search).

A k-dimensional subspace is its unique RREF basis, generated directly, so
nothing here row-reduces.  General row reduction and the per-element dot
product live in oracles, as the independent checks of this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .field import FieldSpec, check_space, field_add, field_mul

ENUM_CAP = 10**6
# About how many normals one window of _normal_windows holds.
_COORD_CHUNK = 1024
# Most bytes of shifted head vectors _direction_levels keeps, the same
# 8 MiB as the block of count-table rows search builds at a time.
_HEAD_BYTES = 1 << 23


# -- point indexing ---------------------------------------------------------


def point_index(coords, q: int) -> int:
    """Base-q positional encoding; coordinate 0 is the lowest digit."""
    idx = 0
    for c in reversed(coords):
        if not 0 <= c < q:
            raise ValueError(f"coordinate {c} out of range for q={q}")
        idx = idx * q + c
    return idx


def point_coords(index: int, q: int, n: int) -> tuple[int, ...]:
    if not 0 <= index < q**n:
        raise ValueError(f"point index {index} out of range")
    out = []
    for _ in range(n):
        index, r = divmod(index, q)
        out.append(r)
    return tuple(out)


# -- directions and subspaces -----------------------------------------------


@dataclass(frozen=True)
class Direction:
    """Canonical normal of an (n-1)-dimensional subspace."""

    normal: tuple[int, ...]


@dataclass(frozen=True)
class SubspaceBasis:
    """A k-dimensional subspace as its unique RREF basis (k x n rows)."""

    rows: tuple[tuple[int, ...], ...]


def count_directions_formula(q: int, n: int) -> int:
    """(q^n - 1)/(q - 1), the number of hyperplane directions."""
    if q < 2 or n < 1:
        raise ValueError(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    num = q**n - 1
    assert num % (q - 1) == 0
    return num // (q - 1)


def _direction_count(q: int, n: int) -> int:
    """count_directions_formula(q, n) of a space within the size cap,
    refused above ENUM_CAP."""
    check_space(q, n)
    count = count_directions_formula(q, n)
    if count > ENUM_CAP:
        raise ValueError("direction count exceeds enumeration cap")
    return count


def _lead_normals(q: int, n: int) -> list[int]:
    """Point indices of the canonical normals grouped by lead (first
    nonzero) coordinate i, ascending within each group.  An oversized space
    or direction count is refused before anything is built."""
    _direction_count(q, n)
    # The normal with first nonzero coordinate i set to 1 has index q^i * m,
    # m = 1 (mod q): every q^(i+1)-th point from q^i.
    return [x for i in range(n) for x in range(q**i, q**n, q ** (i + 1))]


def _normal_slices(q: int, n: int) -> tuple[list[slice], list[int]]:
    """The n slices that read a level vector at the canonical normals, one
    per lead coordinate, and order: order[d] is the position of direction
    #d in the slices' joined bytes."""
    lead = _lead_normals(q, n)
    slices = [slice(q**i, None, q ** (i + 1)) for i in range(n)]
    return slices, sorted(range(len(lead)), key=lead.__getitem__)


def _coords_of(indices, q: int, n: int) -> list[tuple[int, ...]]:
    """point_coords of each index, unchecked, one digit at a time."""
    return list(zip(*[[x // d % q for x in indices] for d in map(q.__pow__, range(n))]))


def _normal_windows(q: int, n: int):
    """The point indices of the canonical normals, ascending, one window of
    (q - 1) * _COORD_CHUNK points at a time.  The normals of lead i are
    every q^(i+1)-th point from q^i, so a window holds at most
    _COORD_CHUNK + n of them, and a space of at most _COORD_CHUNK normals
    is one window."""
    total, width = q**n, (q - 1) * _COORD_CHUNK
    for lo in range(1, total, width):
        hi = min(lo + width, total)
        window = []
        for i in range(n):
            step = q ** (i + 1)
            window.extend(range(lo + (q**i - lo) % step, hi, step))
        window.sort()
        yield window


def _normal_coords(q: int, n: int):
    """The coordinates of the canonical normals in direction order, listed
    one window of about _COORD_CHUNK at a time, so that a caller that stops
    early neither lists nor sorts them all; refused as _lead_normals
    refuses."""
    _direction_count(q, n)
    return itertools.chain.from_iterable(
        _coords_of(window, q, n) for window in _normal_windows(q, n))


def enumerate_directions(f: FieldSpec, n: int) -> list[Direction]:
    """All canonical normals, ascending by their point index."""
    return list(map(Direction, _normal_coords(f.q, n)))


def _independent_tuples(q: int, a: int, k: int) -> int:
    """prod_{h<k} (q^a - q^h): the ordered k-tuples of independent vectors
    of F_q^a."""
    return math.prod(q**a - q**h for h in range(k))


def _hyperplane_tuples(q: int, n: int, a: int) -> int:
    """Ordered (n-1)-tuples of independent vectors of F_q^a, for q >= 2
    and n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    return _independent_tuples(q, a, n - 1)


def count_spanning_tuples(q: int, n: int) -> int:
    """Number of (n-1)-tuples of vectors spanning an (n-1)-dim subspace."""
    return _hyperplane_tuples(q, n, n)


def count_fiber(q: int, n: int) -> int:
    """Number of spanning (n-1)-tuples with a fixed (n-1)-dim span."""
    return _hyperplane_tuples(q, n, n - 1)


def count_subspaces(q: int, n: int, k: int) -> int:
    """Gaussian binomial: number of k-dim subspaces of F_q^n."""
    if not 0 <= k <= n:
        raise ValueError(f"subspace dimension {k} out of range for n={n}")
    num, den = _independent_tuples(q, n, k), _independent_tuples(q, k, k)
    assert num % den == 0
    return num // den


def _subspace_count(q: int, n: int, k: int) -> int:
    """count_subspaces(q, n, k), refused above ENUM_CAP."""
    total = count_subspaces(q, n, k)
    if total > ENUM_CAP:
        raise ValueError("subspace count exceeds enumeration cap")
    return total


# -- subspaces and their cosets ---------------------------------------------


def enumerate_subspaces(f: FieldSpec, n: int, k: int) -> list[SubspaceBasis]:
    """Each k-dim subspace exactly once, as its unique RREF basis.

    RREF matrices are generated directly: pick pivot columns, then fill the
    free positions (right of each pivot, outside pivot columns) with every
    field value.
    """
    total = _subspace_count(f.q, n, k)
    if k == 0:
        return [SubspaceBasis(())]
    q = f.q
    out = []
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free_pos = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivot_set
        ]
        for values in itertools.product(range(q), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(free_pos, values):
                rows[i][j] = v
            out.append(SubspaceBasis(tuple(tuple(r) for r in rows)))
    assert len(out) == total
    return out


def _coset_union(f: FieldSpec, n: int):
    """Return union(bits, rows): the points x + v of F_q^n, for x a point
    of the q^n-bit set `bits` and v in the span of rows.

    A point index is the n k base-p digits of its coordinates, and adding
    a vector adds digit by digit mod p.  Adding c to digit j moves a point
    up c p^j, or down (p - c) p^j where the digit wraps; the points that
    move up are the low (p - c) p^j of each block of p^(j+1), so each half
    is one AND with a periodic mask and one shift.  The span is closed
    under a row times each element p^d, d < k, an F_p basis of F_q: the
    set moved by w, then by 2w, 4w, ..., takes up every multiple of w.
    """
    p, k, total = f.p, f.k, f.q**n
    steps = [p**j for j in range(n * k)]
    # ones[j]: bit 0 of every block of p^(j+1) points
    ones = [int("1".rjust(p * step, "0") * (total // (p * step)), 2) for step in steps]
    # x -> a x for each element a = p^d, d < k
    if f.mul_rows is None:
        scalings = [functools.partial(field_mul, f, a) for a in map(p.__pow__, range(k))]
    else:
        scalings = [f.mul_rows[a].__getitem__ for a in map(p.__pow__, range(k))]

    def union(bits: int, rows) -> int:
        for row in rows:
            for times in scalings:
                digits = [x // step % p for x in map(times, row) for step in steps[:k]]
                m = 1
                while m < p:
                    moved = bits
                    for d, step, one in zip(digits, steps, ones):
                        if c := m * d % p:
                            # ((1 << (p - c) step) - 1) * one, by a shift:
                            # the points whose digit is below p - c
                            low = moved & ((one << (p - c) * step) - one)
                            moved = low << c * step | (moved ^ low) >> (p - c) * step
                    bits |= moved
                    m *= 2
        return bits

    return union


# -- the level kernel ----------------------------------------------------------
# The level of point x for a vector u is u . x.  One call of the kernel gives
# the level of every point of F_q^n for one u; every "which points lie on
# which hyperplane" question in core is answered from it.


def _level_kernel(f: FieldSpec):
    """Return levels(u): the level u . x of every point x of F_q^(len u),
    in point-index order, as bytes (as a list of ints when q > 256).

    Point indices put coordinate 0 lowest, so the vector for u_0..u_t is q
    blocks, one per value of x_t, each the vector for u_0..u_(t-1) shifted
    by u_t x_t.  With the field's byte tables a block is one translate
    through add_tables[u_t x_t]; beyond one byte per element the blocks are
    list lookups in add and mul tables built in the call.  A run of vectors
    that share their heads, as the directions do, is cheaper through
    _direction_levels.
    """
    q = f.q
    if f.mul_rows is not None:
        mul, add = f.mul_rows, f.add_tables

        def levels(u) -> bytes:
            out = mul[u[0]]
            for c in u[1:]:
                out = b"".join([out.translate(add[r]) for r in mul[c]])
            return out

        return levels

    add_flat: list[int] = []  # add_flat[r*q + a] = r + a, built on first use

    def row(c) -> list[int]:
        # c * x for every x; every canonical normal starts with 0 or 1
        if c < 2:
            return list(range(q)) if c else [0] * q
        return [field_mul(f, c, x) for x in range(q)]

    def levels(u) -> list[int]:
        out = row(u[0])
        for c in u[1:]:
            if not add_flat:
                add_flat.extend(field_add(f, r, a) for r in range(q) for a in range(q))
            out = [add_flat[rq + a] for rq in map(q.__mul__, row(c)) for a in out]
        return out

    return levels


def _direction_levels(f: FieldSpec, vectors):
    """Yield _level_kernel(f)(u) for each u of vectors, lazily and in order.

    The vector of u is q blocks, block t the vector of its head u[:-1]
    shifted by u[-1] t.  So a head's q shifted copies are built once, and
    each vector is one join of them in the order of mul_rows[u[-1]].  Canonical
    normals share their heads: each nonzero head comes with all q last
    coordinates.  Copies are kept while they total at most _HEAD_BYTES;
    the heads beyond that are built anew for each vector.
    """
    if f.mul_rows is None:
        yield from map(_level_kernel(f), vectors)
        return
    mul, add = f.mul_rows, f.add_tables
    picks = [itemgetter(*row) for row in mul]
    head_levels = _level_kernel(f)
    kept = {}
    room = _HEAD_BYTES
    for u in vectors:
        if len(u) == 1:
            yield mul[u[0]]
            continue
        head = u[:-1]
        copies = kept.get(head)
        if copies is None:
            copies = tuple(map(head_levels(head).translate, add))
            size = len(copies[0]) * len(copies)
            if size <= room:
                kept[head] = copies
                room -= size
        yield b"".join(picks[u[-1]](copies))


# _FLAG_TABLES[c] maps byte c to 1 and every other byte to 0; _DIGIT_TABLES[c]
# maps them to the ASCII digits "1" and "0".
_FLAG_TABLES = [bytes(c) + b"\1" + bytes(255 - c) for c in range(256)]
_DIGIT_TABLES = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(256)]
_BOOL_DIGITS = _DIGIT_TABLES[1]


def _level_flags(levels, c: int) -> bytes:
    """Per point, byte 1 if its level is c and 0 otherwise."""
    if isinstance(levels, bytes):
        return levels.translate(_FLAG_TABLES[c])
    return bytes(map(c.__eq__, levels))


def _flags_mask(flags: bytes) -> int:
    """Bitmask (bit i = point index i) of the points whose byte is 1."""
    return int(flags.translate(_BOOL_DIGITS)[::-1], 2)


def _level_masks_of(levels, q: int) -> list[int]:
    """Per level c < q, the bitmask of the points whose level is c: one
    translate of the reversed vector per level, straight to binary digits."""
    if not isinstance(levels, bytes):
        return [_flags_mask(_level_flags(levels, c)) for c in range(q)]
    backwards = levels[::-1]
    return [int(backwards.translate(_DIGIT_TABLES[c]), 2) for c in range(q)]

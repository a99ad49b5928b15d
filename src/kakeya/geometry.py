"""Vectors, directions, hyperplanes and subspace counting over F_q^n.

A direction is the canonical normal vector of an (n-1)-dimensional linear
subspace: the unique scalar multiple whose first nonzero coordinate is 1.
Directions are ordered by the point index of that normal, which fixes the
meaning of "direction #i" everywhere (witness files, CLI output, search).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import FieldSpec, check_space, field_add, field_inv, field_mul, field_neg, field_sub

ENUM_CAP = 10**6


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

    def index(self, q: int) -> int:
        return point_index(self.normal, q)


@dataclass(frozen=True)
class SubspaceBasis:
    """A k-dimensional subspace as its unique RREF basis (k x n rows)."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.rows)


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


def count_directions_formula(q: int, n: int) -> int:
    """(q^n - 1)/(q - 1), the number of hyperplane directions."""
    if q < 2 or n < 1:
        raise ValueError(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    num = q**n - 1
    assert num % (q - 1) == 0
    return num // (q - 1)


def enumerate_directions(f: FieldSpec, n: int) -> list[Direction]:
    """All canonical normals, ascending by their point index."""
    q = f.q
    check_space(q, n)
    if count_directions_formula(q, n) > ENUM_CAP:
        raise ValueError("direction count exceeds enumeration cap")
    # The normal with first nonzero coordinate i set to 1 has index q^i * m,
    # m = 1 (mod q) and m < q^(n-i).
    indices = sorted(q**i * m for i in range(n) for m in range(1, q ** (n - i), q))
    return [Direction(point_coords(idx, q, n)) for idx in indices]


def count_spanning_tuples(q: int, n: int) -> int:
    """Number of (n-1)-tuples of vectors spanning an (n-1)-dim subspace."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    out = 1
    for h in range(n - 1):
        out *= q**n - q**h
    return out


def count_fiber(q: int, n: int) -> int:
    """Number of spanning (n-1)-tuples with a fixed (n-1)-dim span."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    out = 1
    for h in range(n - 1):
        out *= q ** (n - 1) - q**h
    return out


def count_subspaces(q: int, n: int, k: int) -> int:
    """Gaussian binomial: number of k-dim subspaces of F_q^n."""
    if not 0 <= k <= n:
        raise ValueError(f"subspace dimension {k} out of range for n={n}")
    num = 1
    den = 1
    for h in range(k):
        num *= q**n - q**h
        den *= q**k - q**h
    assert num % den == 0
    return num // den


# -- row reduction and subspace enumeration ---------------------------------


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
    return len(rref(f, rows)[1])


def null_space_basis(f: FieldSpec, rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Basis of { x : r . x = 0 for every row r }; dimension n - rank."""
    reduced, pivots = rref(f, rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field_neg(f, reduced[i][free])
        basis.append(tuple(v))
    return tuple(basis)


def enumerate_subspaces(f: FieldSpec, n: int, k: int) -> list[SubspaceBasis]:
    """Each k-dim subspace exactly once, as its unique RREF basis.

    RREF matrices are generated directly: pick pivot columns, then fill the
    free positions (right of each pivot, outside pivot columns) with every
    field value.
    """
    if not 0 <= k <= n:
        raise ValueError(f"subspace dimension {k} out of range for n={n}")
    total = count_subspaces(f.q, n, k)
    if total > ENUM_CAP:
        raise ValueError("subspace count exceeds enumeration cap")
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
    list lookups in add and mul tables built in the call.
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

    def levels(u) -> list[int]:
        out = [field_mul(f, u[0], x) for x in range(q)]
        for c in u[1:]:
            if not add_flat:
                add_flat.extend(field_add(f, r, a) for r in range(q) for a in range(q))
            out = [add_flat[rq + a] for rq in (q * field_mul(f, c, x) for x in range(q))
                   for a in out]
        return out

    return levels


_BOOL_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _level_mask(levels, c: int) -> int:
    """Bitmask (bit i = point index i) of the points whose level is c."""
    if isinstance(levels, bytes):
        digits = levels.translate(b"0" * c + b"1" + b"0" * (255 - c))
    else:
        digits = bytes(map(c.__eq__, levels)).translate(_BOOL_DIGITS)
    return int(digits[::-1], 2)

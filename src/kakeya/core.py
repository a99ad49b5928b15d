"""Kakeya verification, hyperplane-union construction and incidence counts.

A set E is Kakeya with respect to hyperplanes when every direction has at
least one full coset of its subspace inside E.  Fixing one level per
direction (an OffsetAssignment) determines a union of hyperplanes that is
Kakeya by construction, and any Kakeya set contains such a union.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from pathlib import Path

from .field import FieldSpec, check_space, make_field
from .geometry import (
    Direction,
    _level_kernel,
    _level_mask,
    count_directions_formula,
    enumerate_directions,
    enumerate_subspaces,
    null_space_basis,
    point_coords,
    point_index,
)
from .pointset import PointSet

# level_masks holds |S| * q * q^n bits (512 MiB here); larger tables are
# refused before any mask is built.
MASK_BITS_CAP = 1 << 32


@dataclass(frozen=True)
class OffsetAssignment:
    """One level per direction, in enumerate_directions order."""

    levels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)


@dataclass(frozen=True)
class IncidenceReport:
    """Exact counts behind the double-counting bound |E| >= |I|^2/|W|."""

    s_count: int
    i_count: int
    w_count: int
    cs_bound: Fraction
    set_size: int


@dataclass(frozen=True)
class KakeyaVerdict:
    """Outcome of the verifier.

    For plane_dim = n-1 the witness is an OffsetAssignment; for smaller
    plane dimensions it is a tuple with one coset-representative point
    index per subspace (enumerate_subspaces order).  On failure,
    failing_index points into the same enumeration order.
    """

    ok: bool
    plane_dim: int
    witness: OffsetAssignment | tuple[int, ...] | None
    failing_index: int | None


def _check_mask_bits(q: int, n: int) -> None:
    """Refuse F_q^n above the size cap, then level masks for all of its
    directions above MASK_BITS_CAP.  The size cap goes first, so a huge n
    is refused before q^n is built."""
    total = check_space(q, n)
    bits = count_directions_formula(q, n) * q * total
    if bits > MASK_BITS_CAP:
        raise ValueError(
            f"level masks for q={q}, n={n} need {bits // 8} bytes,"
            f" above the cap of {MASK_BITS_CAP // 8}"
        )


def level_masks(f: FieldSpec, n: int, dirs: list[Direction] | None = None) -> list[list[int]]:
    """Per direction, per level: the bitmask of that hyperplane's points."""
    _check_mask_bits(f.q, n)
    if dirs is None:
        dirs = enumerate_directions(f, n)
    level_vector = _level_kernel(f)
    masks = []
    for d in dirs:
        levels = level_vector(d.normal)
        masks.append([_level_mask(levels, c) for c in range(f.q)])
    return masks


def _check_assignment(f: FieldSpec, dirs, assignment: OffsetAssignment) -> tuple[int, ...]:
    levels = tuple(assignment.levels)
    if len(levels) != len(dirs):
        raise ValueError(
            f"assignment covers {len(levels)} directions, expected {len(dirs)}"
        )
    for lvl in levels:
        if not 0 <= lvl < f.q:
            raise ValueError(f"level {lvl} out of range for {f}")
    return levels


def _assigned_masks(f: FieldSpec, n: int, assignment: OffsetAssignment) -> list[int]:
    """Per direction, the bitmask of its assigned hyperplane."""
    dirs = enumerate_directions(f, n)
    levels = _check_assignment(f, dirs, assignment)
    level_vector = _level_kernel(f)
    return [_level_mask(level_vector(d.normal), lvl) for d, lvl in zip(dirs, levels)]


def build_union(f: FieldSpec, n: int, assignment: OffsetAssignment) -> PointSet:
    """Union over all directions of the assigned hyperplane."""
    bits = 0
    for mask in _assigned_masks(f, n, assignment):
        bits |= mask
    return PointSet(f.q, n, bits)


def random_assignment(f: FieldSpec, n: int, seed: int) -> OffsetAssignment:
    """Seeded uniform level per direction; deterministic for a fixed seed."""
    rng = random.Random(seed)
    count = len(enumerate_directions(f, n))
    return OffsetAssignment(tuple(rng.randrange(f.q) for _ in range(count)))


_GAP_FLAGS = bytes.maketrans(b"01", b"\x01\x00")


def _coset_keys(level_vector, duals, q: int):
    """Per point, its coset of the subspace cut out by the dual functionals:
    one byte when q^len(duals) <= 256, else a tuple of levels."""
    vectors = [level_vector(u) for u in duals]
    if q ** len(vectors) <= 256:
        key = sum(int.from_bytes(v, "little") * q**j for j, v in enumerate(vectors))
        return key.to_bytes(len(vectors[0]), "little")
    return list(zip(*vectors))


def _resolve_plane_dim(n: int, plane_dim: int | None) -> int:
    if plane_dim is None:
        plane_dim = n - 1
    if n == 1:
        if plane_dim != 0:
            raise ValueError(f"plane dimension {plane_dim} invalid for n=1")
        return 0
    if not 1 <= plane_dim <= n - 1:
        raise ValueError(f"plane dimension {plane_dim} out of range for n={n}")
    return plane_dim


def is_kakeya(f: FieldSpec, pset: PointSet, plane_dim: int | None = None) -> KakeyaVerdict:
    """Check whether pset contains a full coset in every plane direction.

    Directions (subspaces for plane_dim < n-1) are checked in enumeration
    order, one level vector (one per dual functional) at a time, and the
    check stops at the first one without a full coset.  A coset is full
    exactly when no point outside E lies on it.  The witness picks the
    smallest full level per direction, or the smallest point of any full
    coset per subspace.
    """
    if f.q != pset.q:
        raise ValueError("field order does not match the point set")
    n = pset.n
    plane_dim = _resolve_plane_dim(n, plane_dim)
    q = f.q
    level_vector = _level_kernel(f)
    # A coset lies in E exactly when none of its points is a gap (a point
    # outside E); gaps[i] is 1 for those.
    gaps = format(pset.bits, f"0{pset.universe}b")[::-1].encode().translate(_GAP_FLAGS)

    if plane_dim == n - 1 or n == 1:
        levels = []
        for pos, d in enumerate(enumerate_directions(f, n)):
            holes = set(compress(level_vector(d.normal), gaps))
            lvl = next((c for c in range(q) if c not in holes), None)
            if lvl is None:
                return KakeyaVerdict(False, plane_dim, None, pos)
            levels.append(lvl)
        return KakeyaVerdict(True, plane_dim, OffsetAssignment(tuple(levels)), None)

    reps = []
    for pos, sub in enumerate(enumerate_subspaces(f, n, plane_dim)):
        keys = _coset_keys(level_vector, null_space_basis(f, sub.rows, n), q)
        holes = set(compress(keys, gaps))
        # The first point whose coset has no gap is the smallest point of
        # every full coset.
        rep = bytes(map(holes.__contains__, keys)).find(0)
        if rep < 0:
            return KakeyaVerdict(False, plane_dim, None, pos)
        reps.append(rep)
    return KakeyaVerdict(True, plane_dim, tuple(reps), None)


def incidence_stats(f: FieldSpec, pset: PointSet, assignment: OffsetAssignment) -> IncidenceReport:
    """Exact |I| and |W| for a set containing every assigned hyperplane.

    |I| counts (direction, point) incidences on the chosen hyperplanes and
    equals |S| q^(n-1).  |W| counts triples (w1, w2, v) with v on both
    chosen hyperplanes; under containment the case split gives
    |I| + |S|(|S|-1) q^(n-2) exactly.  The quotient |I|^2/|W| is an exact
    rational lower bound for |E|.
    """
    if f.q != pset.q:
        raise ValueError("field order does not match the point set")
    q, n = pset.q, pset.n
    masks = _assigned_masks(f, n, assignment)

    i_count = 0
    for pos, hp in enumerate(masks):
        if hp & ~pset.bits:
            raise ValueError(
                f"hyperplane for direction #{pos} is not contained in the set"
            )
        i_count += (hp & pset.bits).bit_count()

    s = len(masks)
    pairs_term = s * (s - 1) * q ** (n - 2) if n >= 2 else 0
    w_count = i_count + pairs_term
    return IncidenceReport(
        s_count=s,
        i_count=i_count,
        w_count=w_count,
        cs_bound=Fraction(i_count * i_count, w_count),
        set_size=pset.cardinality,
    )


# -- serialization -----------------------------------------------------------


def point_set_to_json(f: FieldSpec, pset: PointSet, include_points: bool = False) -> dict:
    obj = {
        "q": pset.q,
        "p": f.p,
        "k": f.k,
        "n": pset.n,
        "bits_hex": pset.bits_hex(),
    }
    if include_points:
        obj["points"] = [list(point_coords(i, pset.q, pset.n)) for i in pset.indices()]
    return obj


def point_set_from_json(obj: dict) -> tuple[FieldSpec, PointSet]:
    """Validate and decode the point-set schema (q, p, k, n, bits_hex[, points])."""
    for key in ("q", "p", "k", "n", "bits_hex"):
        if key not in obj:
            raise ValueError(f"point set file missing key {key!r}")
    for key in ("q", "p", "k", "n"):
        if type(obj[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {obj[key]!r}")
    q, p, k, n = (obj[key] for key in ("q", "p", "k", "n"))
    f = make_field(p, k)
    if f.q != q:
        raise ValueError(f"q={q} does not equal p^k={f.q}")
    total = check_space(q, n)
    width = (total + 3) // 4
    hx = obj["bits_hex"]
    if not isinstance(hx, str) or len(hx) != width:
        raise ValueError(f"bits_hex must be a {width}-digit hex string")
    try:
        bits = int(hx, 16)
    except ValueError:
        raise ValueError("bits_hex is not valid hexadecimal") from None
    if bits.bit_length() > total:
        raise ValueError("bits_hex sets bits beyond the point space")
    pset = PointSet(q, n, bits)
    points = obj.get("points")
    if points is not None:
        # checked on the flattened coordinates: a per-entry loop costs about
        # as much again as decoding the list
        shape_ok = type(points) is list and all(type(c) is list and len(c) == n for c in points)
        coords = [v for c in points for v in c] if shape_ok else []
        if not (shape_ok and {type(v) for v in coords} <= {int}
                and min(coords, default=0) >= 0 and max(coords, default=0) < q):
            raise ValueError(f"points must be a list of lists of {n} integers in [0, {q})")
        if {point_index(c, q) for c in points} != set(pset.indices()):
            raise ValueError("points list disagrees with bits_hex")
    return f, pset


def write_point_set(path, f: FieldSpec, pset: PointSet, include_points: bool = False) -> None:
    obj = point_set_to_json(f, pset, include_points)
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_point_set(path) -> tuple[FieldSpec, PointSet]:
    return point_set_from_json(json.loads(Path(path).read_text()))


def assignment_to_json(f: FieldSpec, n: int, assignment: OffsetAssignment) -> dict:
    return {"q": f.q, "n": n, "levels": list(assignment.levels)}


def assignment_from_json(obj) -> OffsetAssignment:
    if isinstance(obj, list):
        levels = obj
    elif isinstance(obj, dict) and "levels" in obj:
        levels = obj["levels"]
    else:
        raise ValueError("witness file must be a list of levels or have a 'levels' key")
    if type(levels) is not list or any(type(v) is not int for v in levels):
        raise ValueError("witness levels must be a list of integers")
    return OffsetAssignment(tuple(levels))


def write_assignment(path, f: FieldSpec, n: int, assignment: OffsetAssignment) -> None:
    Path(path).write_text(
        json.dumps(assignment_to_json(f, n, assignment), indent=2, sort_keys=True) + "\n"
    )


def read_assignment(path) -> OffsetAssignment:
    return assignment_from_json(json.loads(Path(path).read_text()))

"""Kakeya verification, hyperplane-union construction and incidence counts.

A set E is Kakeya with respect to hyperplanes when every direction has at
least one full coset of its subspace inside E.  Fixing one level per
direction (an OffsetAssignment) determines a union of hyperplanes that is
Kakeya by construction, and any Kakeya set contains such a union.

A hyperplane lies in E exactly when none of E's gaps (the points outside
E) lies on it.  A set that contains a hyperplane in every direction has at
least q^n - O(q^2) points, so a Kakeya set has few gaps.  The hyperplane
checks need only the (direction x gap) table of levels, and since u . g =
g . u it is built along its shorter side: one level vector per gap when
there are fewer gaps G than directions |S| (and no more than the paper's
bound leaves a Kakeya set), else one per direction.  A check costs
O(min(G, |S|) q^n) kernel work, and none for a gap-free set.  Either side
stops at the first failing direction: along the directions no later
vector is built, and along the gaps a direction's hole flags are read
from its column of the table only when asked for, until the columns read
cost about what all the rows cost at once; the rest are then built
together (_hole_flags).  For the same reason a union of assigned
hyperplanes leaves few points open, and build_union reads its directions
only until fewer points are open than directions are left, then one
level vector per open point.  A point's levels at all the normals are n
strided slices of its level vector, one per lead coordinate of the normal
(geometry._normal_slices).  E holds every assigned hyperplane exactly when
it holds their union.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, product, repeat
from operator import add, itemgetter, mul
from pathlib import Path

from .field import FieldSpec, check_space, make_field
from .geometry import (
    Direction,
    _coords_of,
    _coset_union,
    _direction_count,
    _direction_levels,
    _flags_mask,
    _level_flags,
    _level_kernel,
    _level_masks_of,
    _normal_coords,
    _normal_slices,
    _subspace_count,
    count_directions_formula,
    enumerate_subspaces,
    point_coords,
)
from .pointset import PointSet

# level_masks holds |S| * q * q^n bits (512 MiB here); larger tables are
# refused before any mask is built.
MASK_BITS_CAP = 1 << 32
# Nodes an exact search may visit by default; building the witness of a
# proof visits none.
DEFAULT_NODE_BUDGET = 10_000_000
# Most processes one parallel search may start.
MAX_WORKERS = 64


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


def _check_mask_bits(q: int, n: int) -> int:
    """The bits of the level masks of F_q^n, |S| * q * q^n, after refusing
    F_q^n above the size cap and masks above MASK_BITS_CAP.  The size cap
    goes first, so a huge n is refused before q^n is built."""
    total = check_space(q, n)
    bits = count_directions_formula(q, n) * q * total
    if bits > MASK_BITS_CAP:
        raise ValueError(
            f"level masks for q={q}, n={n} need {bits // 8} bytes,"
            f" above the cap of {MASK_BITS_CAP // 8}"
        )
    return bits


def level_masks(f: FieldSpec, n: int, dirs: list[Direction] | None = None) -> list[list[int]]:
    """Per direction, per level: the bitmask of that hyperplane's points."""
    _check_mask_bits(f.q, n)
    normals = _normal_coords(f.q, n) if dirs is None else [d.normal for d in dirs]
    return [_level_masks_of(levels, f.q) for levels in _direction_levels(f, normals)]


def _check_assignment(f: FieldSpec, s: int, assignment: OffsetAssignment) -> tuple[int, ...]:
    levels = tuple(assignment.levels)
    if len(levels) != s:
        raise ValueError(f"assignment covers {len(levels)} directions, expected {s}")
    for lvl in levels:
        if not 0 <= lvl < f.q:
            raise ValueError(f"level {lvl} out of range for {f}")
    return levels


# build_union counts its union once per batch of this many directions
_UNION_BATCH = 8
_OPEN_FLAGS = bytes.maketrans(b"\0\1", b"\1\0")


def build_union(f: FieldSpec, n: int, assignment: OffsetAssignment) -> PointSet:
    """Union over all directions of the assigned hyperplane.

    Each hyperplane is a byte-lane indicator (byte i is 1 when point i lies
    on it); the indicators are ORed as ints, and the union is counted after
    every batch of _UNION_BATCH directions.  A full union stops there.  A
    union with a hyperplane in every direction leaves O(q^2) points open,
    so it is usually finished along its shorter side: once a batch covers
    fewer new points than it has directions and fewer points are open than
    directions are left, each open point gets one level vector, read at
    every normal by lead coordinate (see _normal_slices).  The point is
    covered when one of those levels is its direction's assigned level,
    that is when the XOR of the two byte strings has a zero byte; an open
    point lies on none of the hyperplanes read so far, so those compare
    unequal.  The cost is about (k + G) q^n bytes, for k directions read
    before the switch and G points open at it, instead of |S| q^n.  Fields
    with q > 256 have no byte levels and stay along the directions.
    """
    q = f.q
    total, s = q**n, _direction_count(q, n)
    levels = _check_assignment(f, s, assignment)
    lanes = covered = 0
    vectors = _direction_levels(f, _normal_coords(q, n))
    for done, (vector, lvl) in enumerate(zip(vectors, levels), 1):
        lanes |= int.from_bytes(_level_flags(vector, lvl), "little")
        if done % _UNION_BATCH:
            continue
        before, covered = covered, lanes.bit_count()
        if covered == total:
            break
        if f.mul_rows is not None and _switch_to_points(
                covered - before, total - covered, s - done):
            flags = bytearray(lanes.to_bytes(total, "little"))
            slices, order = _normal_slices(q, n)
            by_lead = bytearray(s)  # the assigned levels in lead order
            for j, lvl in zip(order, levels):
                by_lead[j] = lvl
            assigned = int.from_bytes(by_lead, "little")
            level_vector = _level_kernel(f)
            open_points = list(compress(range(total), flags.translate(_OPEN_FLAGS)))
            for g, x in zip(open_points, _coords_of(open_points, q, n)):
                vector = level_vector(x)
                found = int.from_bytes(b"".join([vector[i] for i in slices]), "little")
                if (found ^ assigned).to_bytes(s, "little").find(0) >= 0:
                    flags[g] = 1
            return PointSet(q, n, _flags_mask(bytes(flags)))
    return PointSet(q, n, _flags_mask(lanes.to_bytes(total, "little")))


def _switch_to_points(added: int, open_count: int, left: int) -> bool:
    """Does build_union finish along the open points, after a batch that
    covered `added` new points and left `open_count` points open and `left`
    directions unread?  Only once the directions have stopped paying: an
    open point's level vector shares no head, so it costs more than a
    direction's join."""
    return added < _UNION_BATCH and open_count < left


def random_assignment(f: FieldSpec, n: int, seed: int) -> OffsetAssignment:
    """Seeded uniform level per direction; deterministic for a fixed seed."""
    rng = random.Random(seed)
    return OffsetAssignment(tuple(rng.randrange(f.q) for _ in range(_direction_count(f.q, n))))


_GAP_FLAGS = bytes.maketrans(b"01", b"\x01\x00")
_MEMBER_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_FF_UNLESS_ONE = b"\xff" + bytes(255)  # byte 0 -> 0xFF, any other byte -> 0
_IS_FF = bytes(255) + b"\x01"  # byte 0xFF -> 1, any other byte -> 0


def _gap_flags(pset: PointSet) -> bytes:
    """Per point, 1 for a gap (a point outside pset) and 0 for a member."""
    return format(pset.bits, f"0{pset.universe}b")[::-1].encode().translate(_GAP_FLAGS)


def _member_flags(pset: PointSet) -> bytes:
    """Per point, 1 for a member of pset and 0 for a gap."""
    return format(pset.bits, f"0{pset.universe}b")[::-1].encode().translate(_MEMBER_FLAGS)


def _hole_flags(f: FieldSpec, pset: PointSet):
    """Yield, per direction in enumeration order, its hole flags: q bytes,
    byte c nonzero exactly when a gap of pset has level c.

    The level u . g of gap g under normal u is g . u, so the (direction x
    gap) table of levels can be built along either side, and the shorter
    one is taken:
    - fewer gaps than directions, and few enough for a Kakeya set: one
      level vector per gap, read at every normal by lead coordinate (see
      _normal_slices), joined into one gap-major table of G |S| levels.
      Direction d's levels at the gaps are then one column of it, and its
      flags are read from that column only when the caller asks for them,
      so that a caller can stop at its first failing direction.  Once the
      columns read cost about what all the rows cost at once (see
      _column_reads), the rest come from _gap_hole_rows.  This needs byte
      levels (q <= 256), and F_256, whose levels take every byte, goes to
      the rows at once;
    - otherwise one level vector per direction, read at the gaps, lazily
      too.
    A set with a hyperplane in every direction has at least (q^2n - q^n) /
    (q^n + q^2 - 2q) points (for n = 1, at least one).  A set with more
    gaps than that allows is not Kakeya and is read along the directions.
    """
    q, n, total = pset.q, pset.n, pset.universe
    count = total - pset.cardinality
    s = (total - 1) // (q - 1)
    # the bound above, in integers
    if (f.mul_rows is not None and count < s
            and pset.cardinality * (total + q * q - 2 * q) >= total * total - total):
        slices, order = _normal_slices(q, n)
        level_vector = _level_kernel(f)
        # the gaps, lowest first, one bit cleared at a time: there are few
        missing, gaps = (1 << total) - 1 ^ pset.bits, []
        while missing:
            low = missing & -missing
            gaps.append(low.bit_length() - 1)
            missing ^= low
        # table[g * s + j]: the level of gap #g at the normal in lead position j
        table = b"".join([vector[i] for vector in map(level_vector, _coords_of(gaps, q, n))
                          for i in slices])
        lazy = _column_reads(q, count)
        every = b"\xff" * count
        for j in order[:lazy]:
            # each level found at a gap maps to 0xFF, every other level to itself
            yield bytes.maketrans(table[j::s], every)[:q].translate(_IS_FF)
        if lazy < s:
            rows = _gap_hole_rows(table, q, s, count)
            for i in map(q.__mul__, order[lazy:]):
                yield rows[i:i + q]
        return
    vectors = _direction_levels(f, _normal_coords(q, n))
    gap_flags = _gap_flags(pset)
    if q >= 256:
        gaps = list(compress(range(total), gap_flags))
        for vector in vectors:
            holes = set(map(vector.__getitem__, gaps))
            yield bytes(map(holes.__contains__, range(q)))
    else:
        # every member maps to 0xFF, which no level of q < 256 is
        members = int.from_bytes(gap_flags.translate(_FF_UNLESS_ONE), "little")
        every = b"\xff" * total
        for vector in vectors:
            at_gaps = (int.from_bytes(vector, "little") | members).to_bytes(
                total, "little")
            # each level found at a gap maps to 0xFF, every other level to itself
            yield bytes.maketrans(at_gaps, every)[:q].translate(_IS_FF)


def _column_reads(q: int, count: int) -> int:
    """How many directions _hole_flags reads one column at a time, for
    count gaps, before it builds the rest of the rows with _gap_hole_rows:
    a column costs about 3 bytes operations and the rows about
    q (5 + 2 ceil(log2 count)), so the switch comes once the columns read
    cost about what the rows cost.  F_256 has no spare byte to mark a
    level found, so it reads no column."""
    return q * (5 + 2 * (count - 1).bit_length()) // 3 if q < 256 else 0


def _gap_hole_rows(table: bytes, q: int, s: int, count: int) -> bytearray:
    """The hole flags of every direction from the gap-major table of
    _hole_flags (count rows of s levels, in lead order): byte j q + c is 1
    when a gap has level c at lead position j.  Per level, one translate
    flags the whole table, and the gaps' rows are ORed pairwise by shifts,
    ceil(log2 count) of them."""
    holes = bytearray(q * s)
    width = 8 * s
    low = (1 << width) - 1
    for c in range(q):
        flags, rows = int.from_bytes(_level_flags(table, c), "little"), count
        while rows > 1:
            rows = (rows + 1) // 2
            flags |= flags >> rows * width
        holes[c::q] = (flags & low).to_bytes(s, "little")
    return holes


def _span_points(level_vector, rows, q: int) -> list[int]:
    """Point indices of the span of rows: coordinate i of sum_j c_j rows[j]
    is the level of (c_j) under column i of the rows."""
    points = [0] * q ** len(rows)
    for column in reversed(list(zip(*rows))):
        points = [x * q + y for x, y in zip(points, level_vector(column))]
    return points


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
    order, and the check stops at the first one without a full coset.  A
    coset is full exactly when no gap (point outside E) lies on it, so a
    gap-free set gets 0 everywhere once its count of directions or
    subspaces has passed the enumeration cap.  Otherwise a direction's
    holes are the levels of the gaps (see _hole_flags).  A subspace V
    that holds no gap is a full coset with 0 its smallest point; for any
    other the gaps are moved by every vector of V (geometry._coset_union),
    and x + V is full exactly when x lies outside that set.  The witness
    picks the smallest full level per direction, or the smallest point of
    any full coset per subspace.
    """
    if f.q != pset.q:
        raise ValueError("field order does not match the point set")
    n = pset.n
    plane_dim = _resolve_plane_dim(n, plane_dim)
    q = f.q

    if pset.cardinality == pset.universe:
        if plane_dim < n - 1:
            return KakeyaVerdict(True, plane_dim, (0,) * _subspace_count(q, n, plane_dim), None)
        zeros = OffsetAssignment((0,) * _direction_count(q, n))
        return KakeyaVerdict(True, plane_dim, zeros, None)
    if plane_dim == n - 1:
        levels = []
        for pos, holes in enumerate(_hole_flags(f, pset)):
            lvl = holes.find(0)
            if lvl < 0:
                return KakeyaVerdict(False, plane_dim, None, pos)
            levels.append(lvl)
        return KakeyaVerdict(True, plane_dim, OffsetAssignment(tuple(levels)), None)

    level_vector = _level_kernel(f)
    coset_union = _coset_union(f, n)
    gaps = _gap_flags(pset)
    gap_bits = (1 << pset.universe) - 1 ^ pset.bits
    reps = []
    for pos, sub in enumerate(enumerate_subspaces(f, n, plane_dim)):
        # a subspace that holds no gap is its own full coset; every
        # subspace holds the origin
        if pset.bits & 1 and not any(map(gaps.__getitem__,
                                         _span_points(level_vector, sub.rows, q))):
            reps.append(0)
            continue
        holes = coset_union(gap_bits, sub.rows)
        # the least point outside holes, the smallest point of every full
        # coset; q^n when there is none
        rep = (~holes & holes + 1).bit_length() - 1
        if rep == pset.universe:
            return KakeyaVerdict(False, plane_dim, None, pos)
        reps.append(rep)
    return KakeyaVerdict(True, plane_dim, tuple(reps), None)


def incidence_stats(f: FieldSpec, pset: PointSet, assignment: OffsetAssignment) -> IncidenceReport:
    """Exact |I| and |W| for a set containing every assigned hyperplane.

    E holds every chosen hyperplane exactly when it holds their union,
    build_union of the assignment.  The gaps on chosen hyperplanes are the
    union's points outside E, and only their hole flags (see _hole_flags)
    name a failing set's first direction whose chosen level is a hole.
    |I| counts (direction, point) incidences on the chosen hyperplanes;
    under containment it is |S| q^(n-1).  |W| counts triples (w1, w2, v)
    with v on both chosen hyperplanes; under containment the case split
    gives |I| + |S|(|S|-1) q^(n-2) exactly.  The quotient |I|^2/|W| is an
    exact rational lower bound for |E|.
    """
    if f.q != pset.q:
        raise ValueError("field order does not match the point set")
    q, n, total = pset.q, pset.n, pset.universe
    s = _direction_count(q, n)
    if pset.cardinality == total:
        _check_assignment(f, s, assignment)
    elif missed := build_union(f, n, assignment).bits & ~pset.bits:
        holes = _hole_flags(f, PointSet(q, n, (1 << total) - 1 ^ missed))
        pos = next(pos for pos, (row, lvl) in enumerate(zip(holes, assignment.levels)) if row[lvl])
        raise ValueError(f"hyperplane for direction #{pos} is not contained in the set")

    i_count = s * q ** (n - 1)
    w_count = i_count + (s * (s - 1) * q ** (n - 2) if n >= 2 else 0)
    return IncidenceReport(
        s_count=s,
        i_count=i_count,
        w_count=w_count,
        cs_bound=Fraction(i_count * i_count, w_count),
        set_size=pset.cardinality,
    )


# -- serialization -----------------------------------------------------------
# Files and JSON output are the text of json.dumps(obj, indent=2), which
# runs json's pure-Python encoder one element at a time; the same text is
# joined here from the strings of the items.

_HEX_DIGITS = "0123456789abcdefABCDEF"


def _json_block(items, depth: int, brackets: str = "[]") -> str:
    """An array (or, with brackets "{}", an object) nested `depth` deep,
    whose items render as the strings of `items`."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return f"{brackets[0]}{pad}{body}\n{'  ' * depth}{brackets[1]}" if body else brackets


def _json_value(value, depth: int, sort_keys: bool) -> str:
    """json.dumps(value, indent=2, sort_keys=sort_keys) nested `depth` deep:
    arrays of ints, and arrays of such arrays, by joins, any other value by
    json.dumps."""
    if type(value) is list:
        kinds = set(map(type, value))
        if kinds <= {int}:
            return _json_block(map(str, value), depth)
        if kinds == {list}:
            return _json_block([_json_value(v, depth + 1, sort_keys) for v in value], depth)
    if value is None or isinstance(value, (str, int, float)):
        return json.dumps(value)  # json's C encoder, which indent turns off
    text = json.dumps(value, indent=2, sort_keys=sort_keys)
    return text.replace("\n", "\n" + "  " * depth)


def _json_object(fields: dict[str, str]) -> str:
    """The file text of an object whose values are rendered one level deep."""
    return _json_block((f"{json.dumps(k)}: {v}" for k, v in fields.items()), 0, "{}") + "\n"


def json_text(obj: dict, sort_keys: bool = False) -> str:
    """json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n" for an object
    with string keys."""
    items = sorted(obj.items()) if sort_keys else obj.items()
    return _json_object({k: _json_value(v, 1, sort_keys) for k, v in items})


def _points_text(pset: PointSet) -> str:
    """The `points` value of a point-set file: the members' coordinates in
    increasing point index, each point joined from one string per
    coordinate (its digits after the text that precedes them)."""
    n = pset.n
    head, *seps, tail = _json_block(["{}"] * n, 2).split("{}")
    digits = list(map(str, range(pset.q)))
    columns = [[head + d for d in digits]] + [[sep + d for d in digits] for sep in seps]
    columns[-1] = [d + tail for d in columns[-1]]
    # product() runs the last coordinate slowest, as the point index does,
    # so it takes the columns in reverse and itemgetter restores their order
    # (for n = 1 it returns the one string, which "".join leaves as it is)
    points = compress(product(*reversed(columns)), _member_flags(pset))
    return _json_block(map("".join, map(itemgetter(*reversed(range(n))), points)), 1)


def point_set_text(f: FieldSpec, pset: PointSet, include_points: bool = False) -> str:
    """The point-set file: json.dumps(point_set_to_json(f, pset,
    include_points), indent=2, sort_keys=True) + "\n"."""
    fields = {k: json.dumps(v) for k, v in point_set_to_json(f, pset).items()}
    if include_points:
        fields["points"] = _points_text(pset)
    return _json_object(dict(sorted(fields.items())))


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
    if type(obj) is not dict:
        raise ValueError("point set file must hold a JSON object")
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
    # int(hx, 16) alone would also take a sign, a 0x prefix, spaces,
    # underscores and non-ASCII digits
    if hx.strip(_HEX_DIGITS):
        raise ValueError("bits_hex is not valid hexadecimal")
    bits = int(hx, 16)
    if bits.bit_length() > total:
        raise ValueError("bits_hex sets bits beyond the point space")
    pset = PointSet(q, n, bits)
    points = obj.get("points")
    if points is not None:
        # checked a whole list at a time: per entry, these loops would cost
        # about as much again as decoding the list
        shape_ok = (type(points) is list and set(map(type, points)) <= {list}
                    and set(map(len, points)) <= {n})
        coords = list(chain.from_iterable(points)) if shape_ok else []
        if not (shape_ok and set(map(type, coords)) <= {int}
                and min(coords, default=0) >= 0 and max(coords, default=0) < q):
            raise ValueError(f"points must be a list of lists of {n} integers in [0, {q})")
        # point indices by Horner's rule, the last coordinate first
        index = coords[n - 1::n]
        for j in reversed(range(n - 1)):
            index = map(add, map(mul, index, repeat(q)), coords[j::n])
        if set(index) != set(compress(range(total), _member_flags(pset))):
            raise ValueError("points list disagrees with bits_hex")
    return f, pset


def write_point_set(path, f: FieldSpec, pset: PointSet, include_points: bool = False) -> None:
    Path(path).write_text(point_set_text(f, pset, include_points))


def _read_json(path):
    """The JSON value of a file; one that cannot be decoded is a ValueError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_point_set(path) -> tuple[FieldSpec, PointSet]:
    return point_set_from_json(_read_json(path))


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
    Path(path).write_text(json_text(assignment_to_json(f, n, assignment), sort_keys=True))


def read_assignment(path, q: int, n: int) -> OffsetAssignment:
    """The witness file's levels for a point set of F_q^n; the object form
    must name that space, whose direction count alone does not identify it."""
    obj = _read_json(path)
    if isinstance(obj, dict):
        for key, want in (("q", q), ("n", n)):
            got = obj.get(key)
            if type(got) is not int or got != want:
                raise ValueError(
                    f"witness {key}={got!r} does not match the point set's {key}={want}")
    return assignment_from_json(obj)

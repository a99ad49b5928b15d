"""Exact minimum size of a Kakeya set w.r.t. hyperplanes, by search.

For n >= 3 the minimum is q^n - g(q, n), where g is the most points of a
gap set: a set on which every direction's functional misses a value, so
that its complement is Kakeya.  `_gap_size` computes g from the planar
value and a few lemmas, with a small branch and bound over gap sets that
hold a fixed frame of n+1 points when n < q-1.  The rest of this module is
the level search, which proves the planar minima (n <= 2), and the
canonical-witness pass, which every proof ends with.

Any Kakeya set contains one full hyperplane per direction, and that union
is itself Kakeya, so the global minimum is attained on unions determined
by per-direction level assignments.  The search space is therefore q^|S|
assignments rather than 2^(q^n) subsets.  Three kinds of maps of F_q^n
keep the union size and shrink it further:

- translations shift levels by normal . t, so fixing the n standard-basis
  directions to level 0 removes a factor q^n and keeps the canonical
  witness (see `_search_space`);
- scalings x -> a*x (a != 0) send every level c to a*c, so while every
  level on a search path is 0 a node tries only levels 0 and 1;
- the maps that permute the n axis hyperplanes (a coordinate permutation,
  nonzero diagonal scalings and a Frobenius power) send a node two levels
  down to another with the same subtree minimum, so a node whose orbit
  was met before at that depth is skipped.

Branch and bound also cuts a node by a pairwise-overlap bound: hyperplanes
of distinct directions meet in q^(n-2) points, so the open directions add
at least the sum of their t largest cheapest gains less C(t,2)*q^(n-2).
The same fact floors a child before it is built: its hyperplane takes at
most q^(n-2) points from each other direction's, so each of its gains is
at most q^(n-2) below its parent's (`_child_floor`).  In the plane it
prices the child exactly: two lines of distinct directions meet in one
point, so a gain drops by one exactly when the child's new points meet one
of that direction's cheapest lines (`_planar_price`).  Above the plane a
child that passes the floor is covered first and priced from its own
counts.  A child cut by its floor or its price counts as one node, as its
entry would; only priced survivors are covered and entered, with their
gains and bound.  No prune changes the minimum or the canonical witness.

Each node carries, beside its union mask, one packed integer of counts:
for every (direction, level), the points of that hyperplane the union has
not covered yet (`_Counts`).  A level's gain is its count, so a node reads
its branching direction, its options and its cheapest lines off one
`to_bytes` of the counts instead of recounting q*|free| unions; a child
subtracts one precomputed per-point row for each point it covers.  The
table of rows is charged with the masks against core.MASK_BITS_CAP for
every n, though only the level search builds it.

The canonical-witness pass scans assignments in lexicographic order with
the axes at level 0, tries only levels 0 and 1 while every level so far is
0, and cuts a child whose union passes the proven size.  In the plane
(`_lex_smallest_witness`) it also reads the count table for the overlap
bound and the child floor.  Above it an optimum leaves only g(q, n) =
O(q^2) points open, so `_open_point_witness` keeps the union's complement
and builds no level mask or table of the cell.

With workers > 1 the parent expands the top of the tree, with the same
cuts, into a list of open nodes in depth-first order (about 8 per worker).
At most MAX_WORKERS processes pull them one at a time through a shared
index, so a worker that finishes a small subtree takes the next node
instead of idling.  One `_Searcher` serves every node a process takes.  The
node budget covers the parent and the workers: the processes draw what the
parent left of it from one shared count, _NODE_BATCH nodes at a time, so a
run never visits more nodes than the budget, and a worker runs out only
once that count is empty.  The shared incumbent size sits beside that
count, and a worker takes it up with each batch.  Each worker sends its
outcome over a pipe of its own, so one that dies is reported as soon as
its pipe closes.  Only this path imports multiprocessing, in the parent,
so a serial search does not load it; a worker imports nothing unless it
fails.
"""

from __future__ import annotations

import array
import itertools
import math
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import core
from .bounds import kakeya_lower_bound
from .core import (
    DEFAULT_NODE_BUDGET,
    MAX_WORKERS,
    OffsetAssignment,
    _check_mask_bits,
    build_union,
    is_kakeya,
    level_masks,
)
from .field import FieldSpec
from .geometry import (
    _direction_levels,
    _level_masks_of,
    _normal_coords,
    enumerate_directions,
    point_coords,
)
from .pointset import PointSet

_POWERSET_POINT_LIMIT = 16
# Nodes a worker draws at a time from the budget the workers share.
_NODE_BATCH = 64
# Most bytes of count-table rows _Counts builds before turning them into ints.
_COUNT_BLOCK_BYTES = 1 << 23


@dataclass(frozen=True)
class SearchResult:
    min_size: int
    witness: OffsetAssignment
    nodes_explored: int
    proof_of_optimality: bool
    lower_bound_used: Fraction


class _BudgetExhausted(Exception):
    pass


class _ProvedOptimal(Exception):
    pass


def _lane_width(most: int) -> int:
    """Bytes per count lane that hold every value up to `most`: 1 or 2.
    Hyperplanes of q^(n-1) >= 2^16 points, whose lanes need 4 bytes, are
    refused: then |S| >= 2^16 and q^(n+1) >= 2^18, so the table alone would
    hold 32*|S|*q^(n+1) >= 2^39 bits, far above core.MASK_BITS_CAP = 2^32."""
    if most >= 1 << 16:
        raise ValueError(f"hyperplanes of {most} points need count lanes wider than 2 bytes")
    return 1 if most < 1 << 8 else 2


class _Counts:
    """Counts of the points a partial union has not covered yet, one per
    (direction d, level l), packed into one integer: lane d*q + l, w bytes
    wide, holds the uncovered points of hyperplane (d, l).  The cost of a
    level is its lane, so no node recounts a union.

    pts[x] has a 1 in the lane of each hyperplane through point x, so
    covering x subtracts pts[x]; a lane never goes below 0 and never
    borrows from the next.  `full` is the count of the empty union: q^(n-1)
    in every lane.  It carries its masks, its direction count s, and `pair`,
    the points two hyperplanes of distinct directions share.
    """

    @staticmethod
    def check(q: int, n: int) -> None:
        """Refuse F_q^n above the size cap, its level masks alone above
        MASK_BITS_CAP, then masks and a count table that together would
        exceed it.  The table holds q^n rows of |S|*q lanes, w bytes each;
        both sizes follow from (q, n), so the check comes before any
        direction is listed.  Masks that fit leave fewer than 2^16 points
        per hyperplane (see `_lane_width`)."""
        mask_bits = _check_mask_bits(q, n)
        bits = mask_bits + 8 * _lane_width(q ** (n - 1)) * mask_bits
        if bits > core.MASK_BITS_CAP:
            raise ValueError(
                f"level masks and uncovered-point counts for q={q}, n={n} need"
                f" {bits // 8} bytes, above the cap of"
                f" {core.MASK_BITS_CAP // 8} (core.MASK_BITS_CAP)"
            )

    def __init__(self, f: FieldSpec, n: int, masks):
        q, s = f.q, len(masks)
        npoints = q**n
        self.q, self.s, self.masks = q, s, masks
        self.pair = q ** max(0, n - 2)
        self.w = w = _lane_width(npoints // q)
        self.nbytes = nbytes = s * q * w
        ones = int.from_bytes((1).to_bytes(w, "little") * (s * q), "little")
        self.full = npoints // q * ones
        # The rows are built a block of points at a time in one buffer of at
        # most _COUNT_BLOCK_BYTES, turned into ints before the next block,
        # so the table is never held twice.  Lane (d, c) of a block's rows
        # is one strided slice: the binary digits of the block's part of
        # mask (d, c), highest point first, so the buffer's rows run down
        # from the block's last point.  The digits are ASCII, so each lane
        # of a row holds ord("0") more than its 0/1 flag.
        block = max(1, _COUNT_BLOCK_BYTES // nbytes)
        ascii_zeros = ord("0") * ones
        self.pts = []
        for start in range(0, npoints, block):
            width = min(block, npoints - start)
            low, digits = (1 << width) - 1, f"0{width}b"
            rows = bytearray(width * nbytes)
            for lane, mask in enumerate(itertools.chain.from_iterable(masks)):
                rows[lane * w::nbytes] = format(mask >> start & low, digits).encode()
            view = memoryview(rows)
            self.pts += [int.from_bytes(view[x:x + nbytes], "little") - ascii_zeros
                         for x in range((width - 1) * nbytes, -1, -nbytes)]

    def cover(self, counts: int, new: int) -> int:
        """The counts once the points of `new`, none of them covered
        before, join the union."""
        pts = self.pts
        while new:
            x = new.bit_length() - 1
            counts -= pts[x]
            new ^= 1 << x
        return counts

    def lanes(self, counts: int):
        """The counts as a sequence indexed by d*q + l."""
        raw = counts.to_bytes(self.nbytes, "little")
        if self.w == 1:
            return raw
        lanes = array.array("H", raw)
        if sys.byteorder == "big":
            lanes.byteswap()
        return lanes

    def gains(self, lanes, free) -> list[int]:
        """Each free direction's cheapest gain: the fewest new points any of
        its levels adds."""
        q = self.q
        return [min(lanes[d * q:d * q + q]) for d in free]

    def cheapest_lines(self, lanes, free, gains) -> list[int]:
        """Per direction of `free`, the union of its levels whose lane holds
        its cheapest gain.  The lanes are bytes, as they are in the plane,
        so `bytes.find` finds those levels."""
        q, masks = self.q, self.masks
        out = []
        for d, gain in zip(free, gains):
            row, start, stop = masks[d], d * q, d * q + q
            union = 0
            at = lanes.find(gain, start, stop)
            while at >= 0:
                union |= row[at - start]
                at = lanes.find(gain, at + 1, stop)
            out.append(union)
        return out


def _planar_price(lines, gains, new: int) -> list[int]:
    """A planar child's cheapest gains on its open directions, from its
    parent's `gains` there and `lines`, their cheapest lines
    (`_Counts.cheapest_lines`).  The child's new points lie on one line,
    which meets every line of another direction in exactly one point, so a
    gain drops by one exactly when they meet one of its cheapest lines."""
    return [gain - 1 if new & union else gain for gain, union in zip(gains, lines)]


def _overlap_bound(gains, pair: int) -> int:
    """Fewest new points any completion adds, given each free direction's
    cheapest gain.  Hyperplanes of distinct directions meet in `pair` =
    q^(n-2) points, so the t largest gains add at least their sum less
    C(t,2)*pair; the best t is where the next gain stops exceeding t*pair."""
    total = 0
    for t, gain in enumerate(sorted(gains, reverse=True)):
        step = gain - t * pair
        if step <= 0:
            break
        total += step
    return total


def _child_floor(gains, pair: int) -> int:
    """Fewest new points any completion of a child adds, priced from its
    parent's cheapest gains on the child's open directions.  The child's
    hyperplane meets each of theirs in `pair` points, so each gain drops by
    at most `pair`, and `_overlap_bound` never falls as a gain grows."""
    return _overlap_bound([g - pair for g in gains], pair)


class _AxisMaps:
    """The maps of F_q^n that permute the n axis hyperplanes x_i = 0, taken
    modulo the scalings: x -> y with y[perm[i]] = phi(x_i)/mu_i for a
    coordinate permutation perm, nonzero mu with mu_0 = 1, and the Frobenius
    power phi(x) = x^(p^j).  The hyperplane u . x = c goes to u' . y =
    phi(c) with u'[perm[i]] = mu_i phi(u_i); dividing by the first nonzero
    entry alpha of u' gives the canonical normal and the level phi(c)/alpha.

    The images of a direction under every map are tabulated on its first
    use, from the field's byte tables (the mask cap keeps every searchable q
    below 256).  `open` lists the free directions at the root of the tree.
    """

    def __init__(self, f: FieldSpec, dirs, open_dirs):
        q, n = f.q, len(dirs[0].normal)
        self.dirs = dirs
        self.open = tuple(open_dirs)
        self._images: dict[int, list[tuple[int, bytes]]] = {}
        # (perm, mu, j) for all n! (q-1)^(n-1) k maps
        self.maps = [(perm, (1,) + mu, j)
                     for j in range(f.k)
                     for mu in itertools.product(range(1, q), repeat=n - 1)
                     for perm in itertools.permutations(range(n))]
        self._mul = mul = f.mul_rows
        if f.k == 1:
            self._frobenius = [bytes(range(q))]
        else:
            exp, log = f.exp_table, f.log_table
            self._frobenius = [bytes([0]) + bytes(exp[log[x] * f.p**j % (q - 1)]
                                                  for x in range(1, q))
                               for j in range(f.k)]
        self._position = {d.normal: pos for pos, d in enumerate(dirs)}
        # _scale[c][x] = x/c, and the identity for c = 0; 1/c is read off
        # the multiplication rows
        self._scale = [bytes(range(q))] + [mul[row.index(1)] for row in mul[1:]]
        # _levels[j][alpha][c] = phi_j(c)/alpha, the image of level c
        self._levels = [[bytes(row[x] for x in frob) for row in self._scale]
                        for frob in self._frobenius]

    def image(self, d: int) -> list[tuple[int, bytes]]:
        """(direction, level table) of direction d under each map, in the
        order of `maps`: level c goes to table[c]."""
        out = self._images.get(d)
        if out is not None:
            return out
        mul, scale = self._mul, self._scale
        u = self.dirs[d].normal
        v = [0] * len(u)
        out = []
        for perm, mu, j in self.maps:
            frob = self._frobenius[j]
            for i, x in enumerate(u):
                v[perm[i]] = mul[mu[i]][frob[x]]
            alpha = next(x for x in v if x)
            row = scale[alpha]
            out.append((self._position[tuple(row[x] for x in v)], self._levels[j][alpha]))
        self._images[d] = out
        return out

    def key(self, d1: int, c1: int, d2: int, c2: int) -> tuple[int, int, int, int]:
        """Name of the orbit of the pairs {(d1, c1), (d2, c2)} of distinct
        directions: the least image under the maps, each image sorted by
        direction and scaled so that its first nonzero level is 1."""
        keys = []
        for (e1, t1), (e2, t2) in zip(self.image(d1), self.image(d2)):
            a, b = t1[c1], t2[c2]
            if e2 < e1:
                e1, a, e2, b = e2, b, e1, a
            row = self._scale[a or b]
            keys.append((e1, row[a], e2, row[b]))
        return min(keys)


class _Outcome(NamedTuple):
    """What one searcher found and how its search ended."""
    size: int | None  # the best size it found itself, if any
    levels: list[int] | None  # the levels of that size
    nodes: int
    completed: bool  # false once the budget ran out
    hit_lb: bool  # an incumbent met the lower bound


class _Searcher:
    """Depth-first branch and bound over the free directions of open nodes.

    `bound` is the strictest known incumbent size; own discoveries are kept
    in found_size / found_levels so a foreign incumbent never gets paired
    with a local witness.  The nodes, the incumbent and the orbit keys in
    `seen` build up over the calls of `run`, and `budget` caps the nodes of
    all of them.  With `shared`, the workers' array (incumbent size, nodes
    left), a searcher whose budget is spent draws up to _NODE_BATCH more
    nodes and takes up the incumbent: a bound taken up late only prunes
    less, and one that meets the lower bound is seen within a batch.
    """

    def __init__(self, table, budget, lb_ceil, bound, shared=None, axes=None):
        self.table = table
        self.budget = budget
        self.lb_ceil = lb_ceil
        self.bound = bound
        self.shared = shared
        self.axes = axes
        self.levels: list[int] = []
        self.found_size: int | None = None
        self.found_levels: list[int] | None = None
        self.nodes = 0
        self.completed = True
        self.hit_lb = False
        # orbit keys of the nodes two levels down met so far
        self.seen: set[tuple[int, int, int, int]] = set()
        # the open nodes of the frontier level being built, None while searching
        self._opened: list | None = None

    def run(self, mask: int, counts: int, free, levels) -> bool:
        """Search the subtree of one open node.  Returns False when the
        search must stop: the budget is spent (`completed` turns false) or
        an incumbent meets the lower bound (`hit_lb` turns true)."""
        self.levels = list(levels)
        table = self.table
        gains = table.gains(table.lanes(counts), free)
        try:
            self._node(mask, counts, free, not any(levels), gains,
                       _overlap_bound(gains, table.pair))
        except _BudgetExhausted:
            self.completed = False
            return False
        except _ProvedOptimal:
            self.hit_lb = True
            return False
        return True

    def outcome(self) -> _Outcome:
        return _Outcome(self.found_size, self.found_levels, self.nodes, self.completed, self.hit_lb)

    def _draw(self) -> bool:
        """Take up the shared incumbent and add up to _NODE_BATCH nodes of
        the shared count to the budget, in one lock acquisition; False when
        nothing is shared or the count is empty."""
        if self.shared is None:
            return False
        with self.shared.get_lock():
            cells = self.shared.get_obj()
            bound, left = cells
            take = min(_NODE_BATCH, left)
            cells[1] = left - take
        self.bound = min(self.bound, bound)
        self.budget += take
        return take > 0

    def _enter(self) -> None:
        """Count one node against the budget; every node, searched or cut on
        entry, goes through here."""
        if self.nodes >= self.budget and not self._draw():
            raise _BudgetExhausted
        self.nodes += 1
        if self.bound <= self.lb_ceil:
            # an incumbent matching the proven lower bound is optimal
            raise _ProvedOptimal

    def _record(self, size: int) -> None:
        self.found_size = size
        self.found_levels = self.levels.copy()
        self.bound = size
        if self.shared is not None:
            with self.shared.get_lock():
                cells = self.shared.get_obj()
                cells[0] = min(cells[0], size)
        if size <= self.lb_ceil:
            raise _ProvedOptimal

    def _node(self, mask: int, counts: int, free, zero: bool, gains, lower: int) -> None:
        """Branch on one free direction: fail-first, the one whose cheapest
        level adds the most new points (the first such), so partial unions
        grow and prune early.  The node comes priced: `gains` are its
        cheapest gains on `free` and `lower` their overlap bound.  Each child
        is priced before it is built, and one that survives the cuts is
        searched, or kept open, unpriced, while the frontier is built.
        `zero` is true while every level on the path is 0: the mask is then
        fixed by the scalings x -> a*x, which send level c to a*c, so levels
        0 and 1 cover every orbit.  Two levels down, a child is dropped when
        an axis map sends it to a node met before (see `_seen_before`)."""
        self._enter()
        msize = mask.bit_count()
        # `run` or the parent priced the node; a worker's `_enter` may have
        # drawn a lower bound since
        if msize + lower >= self.bound:
            return
        table = self.table
        lanes = table.lanes(counts)
        i = gains.index(max(gains))
        d = free[i]
        q = table.q
        added = lanes[d * q:d * q + q]
        rest, rest_gains = free[:i] + free[i + 1:], gains[:i] + gains[i + 1:]
        row = table.masks[d]
        two_down = self.axes is not None and len(rest) == len(self.axes.open) - 2
        # The least any child's completion adds: `_child_floor` of the gains
        # left once d's, the largest, is taken out, which is `lower` less
        # that gain.
        floor = lower - gains[i]
        lines = None  # the cheapest lines of `rest`, built for the first priced child
        for lvl in sorted(range(2 if zero else q), key=added.__getitem__):
            csize = msize + added[lvl]
            if csize >= self.bound:
                break  # the levels are in ascending order of size
            self.levels[d] = lvl
            if not rest:
                self._record(csize)
                continue
            if two_down and self._seen_before(free, d, lvl):
                continue
            if self._opened is not None:  # `run` prices it when it is searched
                self._opened.append((mask | row[lvl], table.cover(counts, row[lvl] & ~mask),
                                     rest, self.levels.copy()))
                continue
            if csize + floor >= self.bound:
                self._enter()  # the child's own bound would cut it
                continue
            new = row[lvl] & ~mask
            # In the plane (pair 1) the child is priced from the cheapest
            # lines and covered only if it survives; above it, it is covered
            # first and priced from its own lanes.
            if table.pair == 1:
                if lines is None:
                    lines = table.cheapest_lines(lanes, rest, rest_gains)
                ccounts, cgains = None, _planar_price(lines, rest_gains, new)
            else:
                ccounts = table.cover(counts, new)
                cgains = table.gains(table.lanes(ccounts), rest)
            clower = _overlap_bound(cgains, table.pair)
            if csize + clower >= self.bound:
                self._enter()  # cut by its price, as on entry
                continue
            if ccounts is None:
                ccounts = table.cover(counts, new)
            self._node(mask | row[lvl], ccounts, rest, zero and lvl == 0, cgains, clower)

    def _seen_before(self, free, d: int, lvl: int) -> bool:
        """Whether an axis map sends the child with d at level lvl, two
        levels down, to a node met before at that depth; if not, record its
        orbit.  Related nodes have equal subtree minima, and a node met
        before was searched, cut by the bound or kept open."""
        d1 = next(x for x in self.axes.open if x not in free)
        key = self.axes.key(d1, self.levels[d1], d, lvl)
        if key in self.seen:
            return True
        self.seen.add(key)
        return False

    def frontier(self, root, workers: int) -> list[tuple[int, int, list[int], list[int]]] | None:
        """Expand the tree from the open node `root` level by level into
        open nodes (mask, counts, open directions, levels) in depth-first
        order, until there are at least 8*workers of them.  A level is taken
        only if it leaves at least min(workers, open nodes) open, so the
        frontier never shrinks below the workers it can feed.  Leaves
        reached on the way are recorded.  Returns None when `run` stops the
        search here."""
        level = [root]
        while len(level) < 8 * workers:
            nodes, self._opened = self.nodes, []
            if not all(self.run(*node) for node in level):
                level = None
                break
            if len(self._opened) < min(workers, len(level)):
                self.nodes = nodes  # the workers visit these nodes again
                break
            level = self._opened
        self._opened = None
        return level


def _lex_smallest_witness(table: _Counts, root, target: int, budget: int) -> tuple[int, ...] | None:
    """The canonical witness in the plane: the first (hence lexicographically
    smallest) assignment of the proven optimal size, scanning the free
    directions of the level search's `root` (the axes at level 0, see
    `_search_space`) in enumeration order and levels ascending; None once
    more than `budget` nodes would be visited.

    While every level so far is 0 only levels 0 and 1 are tried: an optimum
    whose first nonzero level is c > 1 scales by 1/c (x -> x/c keeps the
    axes at 0) to a lexicographically smaller one.  A child is cut once its
    union passes the target, a node on entry once its union plus the
    overlap bound does, and, once a child fails, each later sibling, as one
    node, once its union plus `_child_floor` does; without these bounds the
    pass on (13,2) visits about 6x the nodes.  The count table's charge
    admits no plane past q = 139, so the scan recurses at most 138 deep.
    """
    mask, counts, free, levels = root
    levels = list(levels)
    q, pair, depth = table.q, table.pair, len(free)
    tick = itertools.count(1)  # numbers the nodes as they are visited

    def visit(i: int, mask: int, counts: int, zero: bool) -> bool:
        if next(tick) > budget:
            raise _BudgetExhausted
        msize = mask.bit_count()
        if i == depth:
            return msize == target
        lanes = table.lanes(counts)
        gains = table.gains(lanes, free[i:])
        if msize + _overlap_bound(gains, pair) > target:
            return False
        d, floor = free[i], None  # the floor is priced once a child fails
        for lvl in range(2 if zero else q):
            csize = msize + lanes[d * q + lvl]
            if csize > target:
                continue
            if floor is not None and csize + floor > target:
                if next(tick) > budget:  # cut by the floor, as on entry
                    raise _BudgetExhausted
                continue
            levels[d] = lvl
            row = table.masks[d][lvl]
            if visit(i + 1, mask | row, table.cover(counts, row & ~mask), zero and lvl == 0):
                return True
            if floor is None:  # the child's open directions are the node's, less d
                floor = _child_floor(gains[1:], pair)
        return False

    try:
        if visit(0, mask, counts, True):
            return tuple(levels)
    except _BudgetExhausted:
        return None
    raise AssertionError("no assignment of the proven optimal size found")


def _open_point_witness(f: FieldSpec, n: int, target: int, budget: int) -> tuple[int, ...] | None:
    """The canonical witness above the plane: the first assignment, in the
    order and under the rules of `_lex_smallest_witness`, whose union has
    `target` points; None once more than `budget` nodes would be visited.

    The scan keeps the union's complement: with the axes at level 0 the open
    points are the (q-1)^n with no zero coordinate.  A child keeps the open
    points off its hyperplane and is cut when fewer than q^n - target would
    stay open, so a node reads only its open points' levels under its own
    direction and nothing q^n-sized is built.  The count table's charge
    admits no n >= 3 cell past q = 23, so the field's byte tables exist.
    The path is one level per direction, often deeper than Python's
    recursion limit, so the scan keeps a stack of its nodes' children.
    """
    q, keep = f.q, f.q**n - target
    # shift[c][x] is the translate table y -> c*x + y
    shift = [[f.add_tables[r] for r in row] for row in f.mul_rows]
    # off[c] maps level c to 0 and every other level to 1
    off = [b"\1" * c + b"\0" + b"\1" * (255 - c) for c in range(q)]
    normals = list(_normal_coords(q, n))
    free = [pos for pos, u in enumerate(normals) if u.count(0) < n - 1]
    levels = [0] * len(normals)

    def children(i: int, cols, nopen: int, zero: bool):
        # nodes (depth, open points' coordinate columns, open count, zero)
        # the first nonzero coordinate of a normal is 1; zeros are skipped
        (lead, _), *rest = [(j, c) for j, c in enumerate(normals[free[i]]) if c]
        lv = cols[lead]
        for j, c in rest:
            lv = bytes(map(operator.getitem, map(shift[c].__getitem__, cols[j]), lv))
        for lvl in range(2 if zero else q):
            cut = lv.count(lvl)
            if nopen - cut >= keep:
                levels[free[i]] = lvl
                kept = cols
                if cut:
                    flags = lv.translate(off[lvl])
                    kept = [bytes(itertools.compress(col, flags)) for col in cols]
                yield i + 1, kept, nopen - cut, zero and lvl == 0

    cols = [bytes(col) for col in zip(*itertools.product(range(1, q), repeat=n))]
    stack, tick = [iter([(0, cols, len(cols[0]), True)])], itertools.count(1)
    while stack:
        for i, cols, nopen, zero in stack[-1]:
            if next(tick) > budget:
                return None
            if i < len(free):
                stack.append(children(i, cols, nopen, zero))
            elif nopen == keep:
                return tuple(levels)
            break
        else:  # every child tried: the node fails
            stack.pop()
    raise AssertionError("no assignment of the proven optimal size found")


def _verify_result(f: FieldSpec, n: int, witness: OffsetAssignment, size: int, lb_ceil: int) -> None:
    """Post-search soundness check, independent of search internals."""
    union = build_union(f, n, witness)
    if union.cardinality != size:
        raise RuntimeError(
            f"witness union has {union.cardinality} points, reported {size}"
        )
    if not is_kakeya(f, union).ok:
        raise RuntimeError("witness union failed Kakeya verification")
    if size < lb_ceil:
        raise RuntimeError(
            f"search reported {size} below the proven lower bound {lb_ceil}"
        )


def _instance_lower_bound(q: int, n: int) -> Fraction:
    return kakeya_lower_bound(q, n) if n >= 2 else Fraction(1)


def _search_worker(widx, searcher, tasks, next_task, conn):
    """Feed open nodes, pulled by index from the shared counter, into one
    searcher until the list is used up or `run` stops; send its outcome, or
    the text of its error, over `conn`."""
    try:
        while True:
            with next_task.get_lock():
                i = next_task.value
                next_task.value = i + 1
            if i >= len(tasks) or not searcher.run(*tasks[i]):
                break
        conn.send(searcher.outcome())
    except Exception as exc:  # surface the failure instead of hanging the parent
        import traceback
        conn.send(f"{exc!r}\n{traceback.format_exc()}")


def _collect_results(procs) -> list[_Outcome]:
    """The outcome of each (worker index, process, reader) in procs, in that
    order.  A worker that reports a failure, or whose pipe closes without a
    result (killed, out of memory), raises RuntimeError."""
    import multiprocessing.connection

    results: dict[int, _Outcome] = {}
    waiting = {reader: (widx, proc) for widx, proc, reader in procs}
    while waiting:
        for reader in multiprocessing.connection.wait(list(waiting)):
            widx, proc = waiting.pop(reader)
            try:
                result = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"search worker {widx} exited with code {proc.exitcode} without a result"
                ) from None
            if isinstance(result, str):
                raise RuntimeError(f"search worker {widx} failed: {result}")
            results[widx] = result
    return [results[widx] for widx, _, _ in procs]


def _run_workers(tasks, workers, parent: _Searcher, node_budget: int) -> list[_Outcome]:
    """Search the open nodes on min(workers, len(tasks)) processes that pull
    them in order and share the incumbent.  The processes draw their nodes
    in batches from what the parent left of node_budget.  Returns each
    worker's outcome, in worker order.  On an error or an interrupt the
    workers started so far are terminated; all are joined."""
    import multiprocessing

    ctx = multiprocessing.get_context()
    searcher = _Searcher(parent.table, 0, parent.lb_ceil, parent.bound,
                         ctx.Array("q", (parent.bound, node_budget - parent.nodes)), parent.axes)
    next_task = ctx.Value("q", 0)
    procs, readers = [], []
    try:
        for widx in range(min(workers, len(tasks))):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            proc = ctx.Process(target=_search_worker,
                               args=(widx, searcher, tasks, next_task, writer))
            with writer:  # then the worker holds the only writer, later workers none
                proc.start()
            procs.append((widx, proc, reader))
        return _collect_results(procs)
    except BaseException:
        for _, proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for _, proc, _ in procs:
            proc.join()
        for reader in readers:
            reader.close()


def greedy_upper_bound(f: FieldSpec, n: int, restarts: int = 32, seed: int = 0) -> SearchResult:
    """Randomized-order greedy: per restart, assign each direction the
    level overlapping the current union most (ties to the smallest level).
    Always a valid upper bound; never a proof of optimality.  Every Kakeya
    union has at least the ceiling of the lower bound, so the restarts stop
    at the first that meets it; nodes_explored reports `restarts` anyway."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    masks = level_masks(f, n)
    q, s = f.q, len(masks)
    lb = _instance_lower_bound(q, n)
    lb_ceil = math.ceil(lb)
    rng = random.Random(seed)
    best_size = None
    best_levels = None
    for _ in range(restarts):
        order = list(range(s))
        rng.shuffle(order)
        mask = 0
        levels = [0] * s
        for d in order:
            row = masks[d]
            pick, pick_size = 0, (mask | row[0]).bit_count()
            for lvl in range(1, q):
                c = (mask | row[lvl]).bit_count()
                if c < pick_size:
                    pick, pick_size = lvl, c
            levels[d] = pick
            mask |= row[pick]
        size = mask.bit_count()
        if best_size is None or size < best_size:
            best_size, best_levels = size, levels
            if size <= lb_ceil:
                break
    witness = OffsetAssignment(tuple(best_levels))
    _verify_result(f, n, witness, best_size, lb_ceil)
    return SearchResult(best_size, witness, restarts, False, lb)


def _greedy_seed(f: FieldSpec, n: int, s: int) -> tuple[int, list[int]]:
    """The greedy incumbent of the exact search: size and levels."""
    seed = greedy_upper_bound(f, n, restarts=min(16, 4 * s), seed=0)
    return seed.min_size, list(seed.witness.levels)


def _search_space(f: FieldSpec, n: int):
    """The directions of F_q^n, the count table over their level masks, and
    the level search's root: the open node (mask, counts, free directions,
    levels) with the n axis directions e_i at level 0.  The size cap and the
    table's charge are checked before any direction is listed.

    Fixing the axes changes neither the minimum nor the lexicographically
    smallest optimum.  Translating along x_i moves the level of e_i, and of
    no direction listed before it: e_i sits at position (q^i - 1)/(q - 1),
    after exactly the normals supported on coordinates below i.  So the
    translations that put e_0, ..., e_(n-1) at level 0 in turn keep the size
    and never raise an assignment in the lexicographic order."""
    q = f.q
    _Counts.check(q, n)
    dirs = enumerate_directions(f, n)
    table = _Counts(f, n, level_masks(f, n, dirs))
    axes = {(q**i - 1) // (q - 1) for i in range(n)}
    mask = 0
    for pos in axes:
        mask |= table.masks[pos][0]
    free = [pos for pos in range(table.s) if pos not in axes]
    return dirs, table, (mask, table.cover(table.full, mask), free, [0] * table.s)


def _level_search(f: FieldSpec, n: int, dirs, table, root, node_budget: int,
                  workers: int) -> tuple[int, list[int], int, bool]:
    """Branch and bound over level assignments below the open node `root`
    of `_search_space`, from the greedy incumbent, stopped early once the
    incumbent meets the ceiling of the lower bound; the axis maps merge
    nodes two levels down.  Returns the best size and its levels, the nodes
    visited and whether that size is proven minimal."""
    lb_ceil = math.ceil(_instance_lower_bound(f.q, n))
    best_size, best_levels = _greedy_seed(f, n, table.s)
    if best_size <= lb_ceil:
        return best_size, best_levels, 0, True
    axes = _AxisMaps(f, dirs, root[2])
    searcher = _Searcher(table, node_budget, lb_ceil, best_size, axes=axes)
    if workers == 1:
        searcher.run(*root)
        tasks = None
    else:
        tasks = searcher.frontier(root, workers)
    outcomes = [searcher.outcome()]
    if tasks:
        outcomes += _run_workers(tasks, workers, searcher, node_budget)
    nodes = sum(o.nodes for o in outcomes)
    optimal = all(o.completed for o in outcomes) or any(o.hit_lb for o in outcomes)
    for o in outcomes:
        if o.levels is not None and o.size < best_size:
            best_size, best_levels = o.size, o.levels
    return best_size, best_levels, nodes, optimal


def _level_minimum(f: FieldSpec, n: int, budget: int) -> tuple[int | None, int]:
    """The minimum of F_q^n that the level search proves on one core, and
    its nodes; None in place of the minimum once the budget runs out.  No
    canonical-witness pass."""
    size, _, nodes, optimal = _level_search(f, n, *_search_space(f, n), budget, 1)
    return (size if optimal else None), nodes


class _GapSearch:
    """Branch and bound for the largest gap set of F_q^n that holds the
    frame {0, e_1, ..., e_n}; see `_gap_size` for why the frame may be
    assumed and why `cap`, g(q, n-1), bounds every hyperplane's share.

    Points join in index order.  `counts[d*q + l]` is the set's points on
    hyperplane (d, l), so the set meets level l of direction d exactly when
    that count is nonzero.  A candidate is a later point that meets no
    direction's last open level and takes no count past the cap; a point
    that fails once fails below too, so each child keeps a subset of its
    parent's candidates.  The incumbent starts at `cap`: only a larger gap
    set changes g.
    """

    def __init__(self, f: FieldSpec, n: int, cap: int, budget: int):
        q = self.q = f.q
        self.levels = list(_direction_levels(f, _normal_coords(q, n)))
        self.masks = [_level_masks_of(lv, q) for lv in self.levels]
        self.frame = [0] + [q**i for i in range(n)]
        self.npoints = q**n
        self.cap = cap
        self.budget = budget
        self.best = cap
        self.nodes = 0

    def run(self) -> int | None:
        """The most points of a gap set holding the frame, or cap if none
        has more; None once the budget is spent."""
        counts = [0] * (len(self.levels) * self.q)
        cands = (1 << self.npoints) - 1
        for x in self.frame:
            counts, banned = self._add(x, counts)
            cands &= ~banned & ~(1 << x)
        try:
            self._node(len(self.frame), counts, cands)
        except _BudgetExhausted:
            return None
        return self.best

    def _add(self, x: int, counts):
        """Counts once point x joins, and the points that can no longer
        join: those on a hyperplane at the cap, and, when x meets a level of
        a direction for the first time and leaves it one open level, those
        on that level."""
        q, cap, masks = self.q, self.cap, self.masks
        counts = counts.copy()
        banned = 0
        for d, lv in enumerate(self.levels):
            lvl = lv[x]
            i = d * q + lvl
            counts[i] += 1
            if counts[i] == cap:
                banned |= masks[d][lvl]
            if counts[i] == 1:
                row = counts[d * q:d * q + q]
                if row.count(0) == 1:
                    banned |= masks[d][row.index(0)]
        return counts, banned

    def _ceiling(self, counts, cands: int) -> int:
        """Most points a gap set between this one and it plus the
        candidates can hold.  Per direction, each level holds at most its
        points plus its candidates, and at most cap; one level the set has
        not met must stay empty, so the least of those terms drops out."""
        q, cap = self.q, self.cap
        best = self.npoints
        for d, row in enumerate(self.masks):
            total, drop = 0, cap
            for lvl in range(q):
                count = counts[d * q + lvl]
                term = min(cap, count + (cands & row[lvl]).bit_count())
                total += term
                if not count and term < drop:
                    drop = term
            if total - drop < best:
                best = total - drop
                if best <= self.best:
                    break
        return best

    def _node(self, size: int, counts, cands: int) -> None:
        if self.nodes >= self.budget:
            raise _BudgetExhausted
        self.nodes += 1
        if size > self.best:
            self.best = size
        if not cands or self._ceiling(counts, cands) <= self.best:
            return
        while size + cands.bit_count() > self.best:
            low = cands & -cands
            cands ^= low
            child_counts, banned = self._add(low.bit_length() - 1, counts)
            self._node(size + 1, child_counts, cands & ~banned)


def _gap_size(f: FieldSpec, n: int, budget: int) -> tuple[int | None, int]:
    """g(q, n), the most points of a gap set of F_q^n, and the nodes spent
    on it; None in place of g once `budget` nodes would be exceeded.

    C is a gap set when every direction's functional u misses a value on
    C, so the complement of C is Kakeya and the minimum is q^n - g(q, n).
    Subsets and affine images of gap sets are gap sets, and a subset of a
    hyperplane H is a gap set exactly when it is one of H = F_q^(n-1).  So
    every hyperplane holds at most g(q, n-1) points of a gap set, and one
    with more points spans F_q^n affinely: an affine map puts the frame
    {0, e_1, ..., e_n} inside it.  When n >= q-1 the frame has q affinely
    independent points, which some u sends onto F_q, so then
    g(q, n) = g(q, n-1); in one step, g(q, n) = g(q, min(n, max(q-2, 1))).
    The planar value comes from the level search.
    """
    q = f.q
    n = min(n, max(q - 2, 1))
    if n == 1:
        return q - 1, 0
    if n == 2:
        size, nodes = _level_minimum(f, 2, budget)
        return (None if size is None else q * q - size), nodes
    cap, nodes = _gap_size(f, n - 1, budget)
    if cap is None:
        return None, nodes
    engine = _GapSearch(f, n, cap, budget - nodes)
    return engine.run(), nodes + engine.nodes


def minimal_kakeya_exact(
    f: FieldSpec,
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> SearchResult:
    """Exact minimum cardinality of a Kakeya set w.r.t. hyperplanes in F_q^n.

    For n <= 2, branch and bound over level assignments from a greedy
    incumbent, then `_lex_smallest_witness` over the same count table.  For
    n >= 3, q^n less the largest gap set (`_gap_size`), then
    `_open_point_witness`, with no level mask or count table of the cell
    and no worker process.  With proof_of_optimality the witness is
    canonical (the lexicographically smallest optimal assignment).  The
    search and the canonical pass may each visit node_budget nodes; if
    either runs out, the best upper bound found (for n >= 3 the greedy one)
    is returned with the flag false.  nodes_explored counts the search's
    nodes, with those of every worker, and never exceeds node_budget.  An
    oversized cell is refused before anything is built or priced, by the
    same count-table charge for every n.
    """
    if node_budget < 1:
        raise ValueError(f"node budget must be >= 1, got {node_budget}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    # refuses an oversized cell before anything is built or priced
    _Counts.check(f.q, n)
    lb = _instance_lower_bound(f.q, n)

    best_levels, canonical = None, None
    if n >= 3:
        gap, nodes = _gap_size(f, n, node_budget)
        if gap is not None:
            best_size = f.q**n - gap
            canonical = _open_point_witness(f, n, best_size, node_budget)
    else:
        dirs, table, root = _search_space(f, n)
        best_size, best_levels, nodes, optimal = _level_search(
            f, n, dirs, table, root, node_budget, workers)
        if optimal:
            canonical = _lex_smallest_witness(table, root, best_size, node_budget)

    # a proof must come with the canonical witness, or the size is a bound
    optimal = canonical is not None
    if optimal:
        best_levels = list(canonical)
    elif best_levels is None:
        best_size, best_levels = _greedy_seed(f, n, (f.q**n - 1) // (f.q - 1))
    witness = OffsetAssignment(tuple(best_levels))
    _verify_result(f, n, witness, best_size, math.ceil(lb))
    return SearchResult(best_size, witness, nodes, optimal, lb)


def minimal_kakeya_powerset(f: FieldSpec, n: int) -> tuple[int, PointSet]:
    """Independent oracle: minimum over every subset of F_q^n passing the
    containment test directly.  Limited to q^n <= 16 (2^16 subsets).  Its
    hyperplanes come point by point from per-element dot products, not
    from the level kernel that the exact search reads."""
    from .oracles import dot

    q = f.q
    total = q**n
    if total > _POWERSET_POINT_LIMIT:
        raise ValueError(f"powerset oracle supports q^n <= {_POWERSET_POINT_LIMIT}")
    masks = []  # masks[d][c]: the points at level c of direction #d
    for d in enumerate_directions(f, n):
        row = [0] * q
        for x in range(total):
            row[dot(f, d.normal, point_coords(x, q, n))] |= 1 << x
        masks.append(row)
    best_size = total + 1
    best_bits = 0
    for subset in range(1 << total):
        pc = subset.bit_count()
        if pc >= best_size:
            continue
        for row in masks:
            for m in row:
                if m & ~subset == 0:
                    break
            else:
                break
        else:
            best_size = pc
            best_bits = subset
    return best_size, PointSet(q, n, best_bits)

"""Exact minimum size of a Kakeya set w.r.t. hyperplanes, by search.

Any Kakeya set contains one full hyperplane per direction, and that union
is itself Kakeya, so the global minimum is attained on unions determined
by per-direction level assignments.  The search space is therefore q^|S|
assignments rather than 2^(q^n) subsets.  Two kinds of maps of F_q^n keep
the union size and shrink it further:

- translations shift levels by normal . t, so fixing the n standard-basis
  directions to level 0 removes a factor q^n;
- scalings x -> a*x (a != 0) send every level c to a*c, so while every
  level on a search path is 0 a node tries only levels 0 and 1;
- the maps that permute the n axis hyperplanes (a coordinate permutation,
  nonzero diagonal scalings and a Frobenius power) send a node two levels
  down to another with the same subtree minimum, so a node whose orbit
  was met before at that depth is skipped.

Branch and bound also cuts a node by a pairwise-overlap bound: hyperplanes
of distinct directions meet in q^(n-2) points, so the open directions add
at least the sum of their t largest cheapest gains less C(t,2)*q^(n-2).
No prune changes the minimum or the canonical witness.

With workers > 1 the parent expands the top of the tree, with the same
cuts, into a list of open nodes in depth-first order (about 8 per worker).
At most MAX_WORKERS processes pull them one at a time through a shared
index and share the incumbent size, so a worker that finishes a small
subtree takes the next node instead of idling.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import queue as queue_module
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import kakeya_lower_bound
from .core import OffsetAssignment, _check_mask_bits, build_union, is_kakeya, level_masks
from .field import FieldSpec
from .geometry import enumerate_directions
from .pointset import PointSet

DEFAULT_NODE_BUDGET = 10_000_000
# Most processes one parallel search may start.
MAX_WORKERS = 64
_POWERSET_POINT_LIMIT = 16
# How often the parent checks for dead workers while waiting for results.
_WORKER_POLL_S = 0.1


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


def _select_direction(mask: int, msize: int, free, masks, q: int):
    """Fail-first branching: the direction whose cheapest level adds the
    most new points, so partial unions grow (and prune) early.  Returns the
    direction, its (added, level) options indexed by level, and the
    cheapest gain of every free direction."""
    best_d = None
    best_min = -1
    best_options = None
    gains = []
    for d in free:
        row = masks[d]
        options = [((mask | row[lvl]).bit_count() - msize, lvl) for lvl in range(q)]
        mn = min(options)[0]
        gains.append(mn)
        if mn > best_min:
            best_min = mn
            best_d = d
            best_options = options
    return best_d, best_options, gains


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
        self.f = f
        self.dirs = dirs
        self.open = tuple(open_dirs)
        self._images: dict[int, list[tuple[int, bytes]]] = {}
        self._level_maps: dict[tuple[int, int], bytes] = {}

    @functools.cached_property
    def maps(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """(perm, mu, j) for all n! (q-1)^(n-1) k maps."""
        n = len(self.dirs[0].normal)
        units = range(1, self.f.q)
        return [(perm, (1,) + mu, j)
                for j in range(self.f.k)
                for mu in itertools.product(units, repeat=n - 1)
                for perm in itertools.permutations(range(n))]

    @functools.cached_property
    def _frobenius(self) -> list[bytes]:
        f = self.f
        if f.k == 1:
            return [bytes(range(f.q))]
        exp, log = f.exp_table, f.log_table
        return [bytes([0]) + bytes(exp[log[x] * f.p**j % (f.q - 1)] for x in range(1, f.q))
                for j in range(f.k)]

    @functools.cached_property
    def _position(self) -> dict[tuple[int, ...], int]:
        return {d.normal: pos for pos, d in enumerate(self.dirs)}

    @functools.cached_property
    def _inv(self) -> list[int]:
        """_inv[c] = 1/c for c != 0, read off the multiplication rows."""
        return [0] + [row.index(1) for row in self.f.mul_rows[1:]]

    @functools.cached_property
    def _scale(self) -> list[bytes]:
        """_scale[c][x] = x/c, and the identity for c = 0."""
        f = self.f
        return [bytes(range(f.q))] + [f.mul_rows[c] for c in self._inv[1:]]

    def image(self, d: int) -> list[tuple[int, bytes]]:
        """(direction, level table) of direction d under each map, in the
        order of `maps`: level c goes to table[c]."""
        out = self._images.get(d)
        if out is not None:
            return out
        mul, inv = self.f.mul_rows, self._inv
        u = self.dirs[d].normal
        v = [0] * len(u)
        out = []
        for perm, mu, j in self.maps:
            frob = self._frobenius[j]
            for i, x in enumerate(u):
                v[perm[i]] = mul[mu[i]][frob[x]]
            alpha = next(x for x in v if x)
            row = mul[inv[alpha]]
            levels = self._level_maps.get((j, alpha))
            if levels is None:
                levels = self._level_maps[j, alpha] = bytes(row[x] for x in frob)
            out.append((self._position[tuple(row[x] for x in v)], levels))
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


class _Searcher:
    """Depth-first branch and bound over the free directions.

    `bound` is the strictest known incumbent size (shared across workers
    when `shared` is set); own discoveries are kept in found_size /
    found_levels so a foreign incumbent never gets paired with a local
    witness.
    """

    def __init__(self, q, pair, masks, free, levels, base_mask, budget, lb_ceil, bound,
                 shared=None, axes=None):
        self.q = q
        self.pair = pair
        self.masks = masks
        self.free = list(free)
        self.levels = list(levels)
        self.base_mask = base_mask
        self.budget = budget
        self.lb_ceil = lb_ceil
        self.bound = bound
        self.shared = shared
        self.found_size: int | None = None
        self.found_levels: list[int] | None = None
        self.nodes = 0
        self.completed = False
        self.hit_lb = False
        self.axes = axes
        # orbit keys of the nodes two levels down met so far
        self.seen: set[tuple[int, int, int, int]] = set()
        self._child = self._node

    def search(self) -> None:
        try:
            self._node(self.base_mask, self.free, not any(self.levels))
            self.completed = True
        except _BudgetExhausted:
            self.completed = False
        except _ProvedOptimal:
            self.completed = True
            self.hit_lb = True

    def _sync(self) -> None:
        if self.shared is not None:
            v = self.shared.value
            if v < self.bound:
                self.bound = v
        if self.bound <= self.lb_ceil:
            # an incumbent matching the proven lower bound is optimal
            raise _ProvedOptimal

    def _record(self, size: int) -> None:
        self.found_size = size
        self.found_levels = self.levels.copy()
        self.bound = size
        if self.shared is not None:
            with self.shared.get_lock():
                if size < self.shared.value:
                    self.shared.value = size
        if size <= self.lb_ceil:
            raise _ProvedOptimal

    def _node(self, mask: int, free, zero: bool) -> None:
        """Branch on one free direction; each child that survives the cuts
        goes to self._child, which searches it (or, while the frontier is
        built, keeps it open).  `zero` is true while every level on the path
        is 0: the mask is then fixed by the scalings x -> a*x, which send
        level c to a*c, so levels 0 and 1 cover every orbit.  Two levels
        down, a child is dropped when an axis map sends it to a node met
        before (see `_seen_before`)."""
        if self.nodes >= self.budget:
            raise _BudgetExhausted
        self.nodes += 1
        self._sync()
        msize = mask.bit_count()
        d, options, gains = _select_direction(mask, msize, free, self.masks, self.q)
        if msize + _overlap_bound(gains, self.pair) >= self.bound:
            return
        if zero:
            options = options[:2]
        rest = [x for x in free if x != d]
        row = self.masks[d]
        two_down = self.axes is not None and len(rest) == len(self.axes.open) - 2
        for added, lvl in sorted(options):
            csize = msize + added
            if csize >= self.bound:
                continue
            self.levels[d] = lvl
            if rest:
                if two_down and self._seen_before(free, d, lvl):
                    continue
                self._child(mask | row[lvl], rest, zero and lvl == 0)
            else:
                self._record(csize)

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

    def _keep_open(self, mask: int, free, zero: bool) -> None:
        self._opened.append((mask, free, self.levels.copy()))

    def frontier(self, workers: int) -> list[tuple[int, list[int], list[int]]] | None:
        """Expand the top of the tree level by level into open nodes
        (mask, open directions, levels) in depth-first order, until there
        are at least 8*workers of them.  A level is taken only if it leaves
        at least min(workers, open nodes) open, so the frontier never
        shrinks below the workers it can feed.  Leaves reached on the way
        are recorded.  Returns None when the run ends here (budget spent or
        lower bound met), with `completed` and `hit_lb` set as by `search`."""
        level = [(self.base_mask, self.free, self.levels)]
        self._child = self._keep_open
        try:
            while len(level) < 8 * workers:
                nodes = self.nodes
                self._opened = []
                for mask, free, levels in level:
                    self.levels = levels.copy()
                    self._node(mask, free, not any(levels))
                if len(self._opened) < min(workers, len(level)):
                    self.nodes = nodes  # the workers visit these nodes again
                    break
                level = self._opened
        except _BudgetExhausted:
            self.completed = False
            return None
        except _ProvedOptimal:
            self.completed = self.hit_lb = True
            return None
        finally:
            self._child = self._node
        return level


def _standard_basis_positions(dirs, n: int) -> list[int]:
    index_of = {d.normal: pos for pos, d in enumerate(dirs)}
    out = []
    for i in range(n):
        normal = tuple(1 if j == i else 0 for j in range(n))
        out.append(index_of[normal])
    return out


def _lex_smallest_witness(q, pair, masks, s, fixed, target, budget) -> tuple[int, ...] | None:
    """First (hence lexicographically smallest) assignment of the proven
    optimal size, scanning directions in enumeration order and levels
    ascending.  A partial union is pruned once it, plus the overlap bound
    of the free directions still open, exceeds the target.  Returns None once
    more than `budget` nodes would be visited."""
    fixed_set = set(fixed)
    choices = [(0,) if pos in fixed_set else range(q) for pos in range(s)]
    open_from = [[d for d in range(pos, s) if d not in fixed_set] for pos in range(s)]
    levels = [0] * s
    nodes = 0

    def rec(pos: int, mask: int) -> bool:
        nonlocal nodes
        if nodes >= budget:
            raise _BudgetExhausted
        nodes += 1
        msize = mask.bit_count()
        if pos == s:
            return msize == target
        _, _, gains = _select_direction(mask, msize, open_from[pos], masks, q)
        if msize + _overlap_bound(gains, pair) > target:
            return False
        row = masks[pos]
        for lvl in choices[pos]:
            child = mask | row[lvl]
            if child.bit_count() > target:
                continue
            levels[pos] = lvl
            if rec(pos + 1, child):
                return True
        return False

    try:
        found = rec(0, 0)
    except _BudgetExhausted:
        return None
    if not found:
        raise AssertionError("no assignment of the proven optimal size found")
    return tuple(levels)


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


def _search_worker(widx, q, pair, masks, tasks, next_task, budget, lb_ceil, init_bound,
                   shared, queue, axes):
    """Pull open nodes by index from the shared counter until the list is
    used up, the budget runs out or the lower bound is met; send one result."""
    try:
        found_size = None
        found_levels = None
        nodes = 0
        completed = True
        hit_lb = False
        bound = init_bound
        while True:
            with next_task.get_lock():
                i = next_task.value
                next_task.value = i + 1
            if i >= len(tasks):
                break
            mask, free, levels = tasks[i]
            searcher = _Searcher(q, pair, masks, free, levels, mask,
                                 max(1, budget - nodes), lb_ceil, bound, shared, axes)
            searcher.search()
            nodes += searcher.nodes
            bound = searcher.bound
            if searcher.found_levels is not None:
                found_size = searcher.found_size
                found_levels = searcher.found_levels
            hit_lb = hit_lb or searcher.hit_lb
            if not searcher.completed:
                completed = False
                break
            if hit_lb:
                break
        queue.put((widx, found_size, found_levels, nodes, completed, hit_lb))
    except Exception as exc:  # surface the failure instead of hanging the parent
        queue.put((widx, None, None, 0, False, False, repr(exc)))


def _collect_results(procs, queue) -> list[tuple]:
    """One result per (worker index, process), then join them all.

    A worker that exits without reporting (killed, out of memory) raises
    RuntimeError; on that or an interrupt the other workers are terminated.
    """
    results: list[tuple] = []
    try:
        while len(results) < len(procs):
            # A worker that exited before this wait has its result, if it
            # sent one, in the pipe already, so the wait cannot miss it.
            reported = {r[0] for r in results}
            exited = [(widx, proc.exitcode) for widx, proc in procs
                      if widx not in reported and proc.exitcode is not None]
            try:
                results.append(queue.get(timeout=_WORKER_POLL_S))
            except queue_module.Empty:
                if exited:
                    widx, code = exited[0]
                    raise RuntimeError(
                        f"search worker {widx} exited with code {code} without a result"
                    ) from None
    except BaseException:
        for _, proc in procs:
            proc.terminate()
        raise
    finally:
        for _, proc in procs:
            proc.join()
    return results


def _run_workers(tasks, workers, q, pair, masks, node_budget, lb_ceil, bound, axes):
    """Search the open nodes on min(workers, len(tasks)) processes that pull
    them in order and share the incumbent.  Returns the best size and levels
    found (None if none beat `bound`), the nodes visited and whether the
    run proves optimality."""
    ctx = multiprocessing.get_context()
    shared = ctx.Value("q", bound)
    next_task = ctx.Value("q", 0)
    queue = ctx.Queue()
    per_budget = max(1, node_budget // workers)
    procs = []
    for widx in range(min(workers, len(tasks))):
        proc = ctx.Process(
            target=_search_worker,
            args=(widx, q, pair, masks, tasks, next_task, per_budget, lb_ceil, bound,
                  shared, queue, axes),
        )
        proc.start()
        procs.append((widx, proc))
    results = _collect_results(procs, queue)
    results.sort()
    failures = [r for r in results if len(r) == 7]
    if failures:
        raise RuntimeError(f"search worker failed: {failures[0][6]}")
    best_size, best_levels = bound, None
    nodes = 0
    completed_all = True
    hit_lb_any = False
    for _, fsize, flevels, wnodes, completed, hit_lb in results:
        nodes += wnodes
        completed_all = completed_all and completed
        hit_lb_any = hit_lb_any or hit_lb
        if flevels is not None and fsize < best_size:
            best_size, best_levels = fsize, flevels
    return best_size, best_levels, nodes, completed_all or hit_lb_any


def greedy_upper_bound(f: FieldSpec, n: int, restarts: int = 32, seed: int = 0) -> SearchResult:
    """Randomized-order greedy: per restart, assign each direction the
    level overlapping the current union most (ties to the smallest level).
    Always a valid upper bound; never a proof of optimality."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    _check_mask_bits(f.q, n)
    dirs = enumerate_directions(f, n)
    q, s = f.q, len(dirs)
    masks = level_masks(f, n, dirs)
    lb = _instance_lower_bound(q, n)
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
    witness = OffsetAssignment(tuple(best_levels))
    _verify_result(f, n, witness, best_size, math.ceil(lb))
    return SearchResult(best_size, witness, restarts, False, lb)


def minimal_kakeya_exact(
    f: FieldSpec,
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
    normalize: bool = True,
) -> SearchResult:
    """Exact minimum cardinality of a Kakeya set w.r.t. hyperplanes in F_q^n.

    Branch and bound over level assignments, seeded with a deterministic
    greedy incumbent.  With proof_of_optimality the witness is canonical
    (lexicographically smallest optimal assignment in the searched space).
    Branch and bound and the canonical-witness pass may each visit
    node_budget nodes; if either runs out, the best upper bound found is
    returned with the flag false.
    """
    if node_budget < 1:
        raise ValueError(f"node budget must be >= 1, got {node_budget}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    _check_mask_bits(f.q, n)
    dirs = enumerate_directions(f, n)
    q, s = f.q, len(dirs)
    masks = level_masks(f, n, dirs)
    lb = _instance_lower_bound(q, n)
    lb_ceil = math.ceil(lb)
    pair = q ** max(0, n - 2)  # points shared by two hyperplanes of distinct directions

    fixed = _standard_basis_positions(dirs, n) if normalize else []
    fixed_set = set(fixed)
    base_mask = 0
    levels = [0] * s
    for pos in fixed:
        base_mask |= masks[pos][0]
    free = [i for i in range(s) if i not in fixed_set]

    seed_result = greedy_upper_bound(f, n, restarts=min(16, 4 * s), seed=0)
    best_size = seed_result.min_size
    best_levels = list(seed_result.witness.levels)
    nodes = 0
    optimal = False

    if best_size <= lb_ceil:
        optimal = True
    else:
        axes = _AxisMaps(f, dirs, free) if normalize else None
        searcher = _Searcher(q, pair, masks, free, levels, base_mask, node_budget,
                             lb_ceil, best_size, axes=axes)
        if workers == 1:
            searcher.search()
            tasks = None
        else:
            tasks = searcher.frontier(workers)
        nodes = searcher.nodes
        if searcher.found_levels is not None:
            best_size, best_levels = searcher.found_size, searcher.found_levels
        optimal = searcher.completed
        if tasks:
            found_size, found_levels, wnodes, optimal = _run_workers(
                tasks, workers, q, pair, masks, node_budget, lb_ceil, best_size, axes)
            nodes += wnodes
            if found_levels is not None:
                best_size, best_levels = found_size, found_levels

    if optimal:
        canonical = _lex_smallest_witness(q, pair, masks, s, fixed, best_size, node_budget)
        if canonical is None:
            # a proof must come with the canonical witness, so report a bound
            optimal = False
        else:
            best_levels = list(canonical)
    witness = OffsetAssignment(tuple(best_levels))
    _verify_result(f, n, witness, best_size, lb_ceil)
    return SearchResult(best_size, witness, nodes, optimal, lb)


def minimal_kakeya_powerset(f: FieldSpec, n: int) -> tuple[int, PointSet]:
    """Independent oracle: minimum over every subset of F_q^n passing the
    containment test directly.  Limited to q^n <= 16 (2^16 subsets)."""
    q = f.q
    total = q**n
    if total > _POWERSET_POINT_LIMIT:
        raise ValueError(f"powerset oracle supports q^n <= {_POWERSET_POINT_LIMIT}")
    masks = level_masks(f, n)
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

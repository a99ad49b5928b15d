"""Exact minimum size of a Kakeya set w.r.t. hyperplanes, by search.

Any Kakeya set contains one full hyperplane per direction, and that union
is itself Kakeya, so the global minimum is attained on unions determined
by per-direction level assignments.  The search space is therefore q^|S|
assignments rather than 2^(q^n) subsets; translations shift levels by
normal . t, so fixing the n standard-basis directions to level 0 removes a
further factor q^n without changing the minimum.
"""

from __future__ import annotations

import math
import multiprocessing
import queue as queue_module
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import kakeya_lower_bound
from .core import OffsetAssignment, _check_mask_bits, build_union, is_kakeya, level_masks
from .field import FieldSpec, parse_field_spec
from .geometry import count_directions_formula, enumerate_directions
from .pointset import PointSet

DEFAULT_NODE_BUDGET = 10_000_000
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


@dataclass(frozen=True)
class TightnessCell:
    q: int
    n: int
    bound: Fraction | None
    bound_ceiling: int | None
    size: int | None
    optimal: bool
    gap: int | None
    method: str  # "exact" | "greedy" | "infeasible"
    note: str = ""


class _BudgetExhausted(Exception):
    pass


class _ProvedOptimal(Exception):
    pass


def _select_direction(mask: int, msize: int, free, masks, q: int):
    """Fail-first branching: the direction whose cheapest level adds the
    most new points, so partial unions grow (and prune) early.  Returns the
    direction and its (added, level) options."""
    best_d = None
    best_min = -1
    best_options = None
    for d in free:
        row = masks[d]
        options = [((mask | row[lvl]).bit_count() - msize, lvl) for lvl in range(q)]
        mn = min(options)[0]
        if mn > best_min:
            best_min = mn
            best_d = d
            best_options = options
    return best_d, best_options


class _Searcher:
    """Depth-first branch and bound over the free directions.

    `bound` is the strictest known incumbent size (shared across workers
    when `shared` is set); own discoveries are kept in found_size /
    found_levels so a foreign incumbent never gets paired with a local
    witness.
    """

    def __init__(self, q, masks, free, levels, base_mask, budget, lb_ceil, bound, shared=None):
        self.q = q
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

    def search(self) -> None:
        try:
            if not self.free:
                size = self.base_mask.bit_count()
                if size < self.bound:
                    self._record(size)
            else:
                self._node(self.base_mask, self.free)
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

    def _node(self, mask: int, free) -> None:
        if self.nodes >= self.budget:
            raise _BudgetExhausted
        self.nodes += 1
        self._sync()
        msize = mask.bit_count()
        d, options = _select_direction(mask, msize, free, self.masks, self.q)
        rest = [x for x in free if x != d]
        row = self.masks[d]
        for added, lvl in sorted(options):
            csize = msize + added
            if csize >= self.bound:
                continue
            self.levels[d] = lvl
            if rest:
                self._node(mask | row[lvl], rest)
            else:
                self._record(csize)


def _standard_basis_positions(dirs, n: int) -> list[int]:
    index_of = {d.normal: pos for pos, d in enumerate(dirs)}
    out = []
    for i in range(n):
        normal = tuple(1 if j == i else 0 for j in range(n))
        out.append(index_of[normal])
    return out


def _lex_smallest_witness(q, masks, s, fixed, target) -> tuple[int, ...]:
    """First (hence lexicographically smallest) assignment of the proven
    optimal size, scanning directions in enumeration order and levels
    ascending; partial unions above the target are pruned."""
    fixed_set = set(fixed)
    levels = [0] * s

    def rec(pos: int, mask: int) -> bool:
        if pos == s:
            return mask.bit_count() == target
        choices = (0,) if pos in fixed_set else range(q)
        for lvl in choices:
            child = mask | masks[pos][lvl]
            if child.bit_count() > target:
                continue
            levels[pos] = lvl
            if rec(pos + 1, child):
                return True
        return False

    if not rec(0, 0):
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


def _search_worker(widx, q, masks, free_rest, levels, base_mask, d0, my_levels,
                   budget, lb_ceil, init_bound, shared, queue):
    try:
        found_size = None
        found_levels = None
        nodes = 0
        completed = True
        hit_lb = False
        bound = init_bound
        for lvl in my_levels:
            lv = list(levels)
            lv[d0] = lvl
            searcher = _Searcher(q, masks, free_rest, lv, base_mask | masks[d0][lvl],
                                 max(1, budget - nodes), lb_ceil, bound, shared)
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


def greedy_upper_bound(f: FieldSpec, n: int, restarts: int = 32, seed: int = 0) -> SearchResult:
    """Randomized-order greedy: per restart, assign each direction the
    level overlapping the current union most (ties to the smallest level).
    Always a valid upper bound; never a proof of optimality."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    _check_mask_bits(f.q, n, count_directions_formula(f.q, n))
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
    (lexicographically smallest optimal assignment in the searched space);
    on budget exhaustion the best upper bound found is returned with the
    flag false.
    """
    if node_budget < 1:
        raise ValueError(f"node budget must be >= 1, got {node_budget}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_mask_bits(f.q, n, count_directions_formula(f.q, n))
    dirs = enumerate_directions(f, n)
    q, s = f.q, len(dirs)
    masks = level_masks(f, n, dirs)
    lb = _instance_lower_bound(q, n)
    lb_ceil = math.ceil(lb)

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
    elif not free:
        size = base_mask.bit_count()
        if size < best_size:
            best_size, best_levels = size, list(levels)
        optimal = True
    elif workers == 1:
        searcher = _Searcher(q, masks, free, levels, base_mask, node_budget,
                             lb_ceil, best_size)
        searcher.search()
        nodes = searcher.nodes
        if searcher.found_levels is not None:
            best_size, best_levels = searcher.found_size, searcher.found_levels
        optimal = searcher.completed
    else:
        d0, options = _select_direction(base_mask, base_mask.bit_count(), free, masks, q)
        free_rest = [x for x in free if x != d0]
        level_order = [lvl for _, lvl in sorted(options)]
        buckets = [level_order[w::workers] for w in range(workers)]
        ctx = multiprocessing.get_context()
        shared = ctx.Value("q", best_size)
        queue = ctx.Queue()
        procs = []
        per_budget = max(1, node_budget // workers)
        for widx, bucket in enumerate(buckets):
            if not bucket:
                continue
            proc = ctx.Process(
                target=_search_worker,
                args=(widx, q, masks, free_rest, levels, base_mask, d0, bucket,
                      per_budget, lb_ceil, best_size, shared, queue),
            )
            proc.start()
            procs.append((widx, proc))
        results = _collect_results(procs, queue)
        results.sort()
        failures = [r for r in results if len(r) == 7]
        if failures:
            raise RuntimeError(f"search worker failed: {failures[0][6]}")
        completed_all = True
        hit_lb_any = False
        for _, fsize, flevels, wnodes, completed, hit_lb in results:
            nodes += wnodes
            completed_all = completed_all and completed
            hit_lb_any = hit_lb_any or hit_lb
            if flevels is not None and fsize < best_size:
                best_size, best_levels = fsize, flevels
        optimal = completed_all or hit_lb_any

    if optimal:
        best_levels = list(_lex_smallest_witness(q, masks, s, fixed, best_size))
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


def tightness_report(
    cells,
    node_budget: int = DEFAULT_NODE_BUDGET,
    exact_space_limit: int = 10**6,
    restarts: int = 64,
    seed: int = 0,
    workers: int = 1,
) -> list[TightnessCell]:
    """Bound vs. achieved minimum per (q, n) cell.

    Cells whose normalized assignment space exceeds exact_space_limit run
    the greedy heuristic only; cells that cannot be set up at all are
    reported as infeasible.
    """
    out = []
    for q, n in cells:
        try:
            f = parse_field_spec(str(q))
            bound = _instance_lower_bound(q, n)
            ceiling = math.ceil(bound)
            s = count_directions_formula(q, n)
            space = q ** max(0, s - n)
            if space <= exact_space_limit:
                res = minimal_kakeya_exact(f, n, node_budget=node_budget, workers=workers)
                method = "exact"
            else:
                res = greedy_upper_bound(f, n, restarts=restarts, seed=seed)
                method = "greedy"
        except (ValueError, OverflowError) as exc:
            out.append(TightnessCell(q, n, None, None, None, False, None,
                                     "infeasible", str(exc)))
            continue
        out.append(TightnessCell(
            q, n, bound, ceiling, res.min_size, res.proof_of_optimality,
            res.min_size - ceiling, method,
        ))
    return out

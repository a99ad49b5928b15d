"""The gap-set engine behind the exact search for n >= 3: the sizes it
proves, the lemmas it rests on, checked point by point, and the duality
between Kakeya sets and gap sets against a brute-force oracle."""

import hashlib
import itertools
import json
import multiprocessing
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya import cli, search
from kakeya.bounds import kakeya_lower_bound, kakeya_lower_bound_ceiling
from kakeya.core import build_union, is_kakeya
from kakeya.field import field_add, field_mul, field_sub, make_field
from kakeya.geometry import enumerate_directions, point_coords, point_index
from kakeya.oracles import (annihilator_brute, dot, framed_gap_size_brute, gap_size_brute,
                            is_gap_set_brute, rank, rref)
from kakeya.pointset import PointSet
from kakeya.search import minimal_kakeya_exact, minimal_kakeya_powerset

FIELD_OF = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}
# q, n, g(q, n), and the most the paper's bound allows: q^n less the
# ceiling of its lower bound on the minimum q^n - g(q, n)
GAP_TABLE = (
    [(2, n, 1, 1) for n in range(2, 9)]
    + [(3, n, 2, 3) for n in range(2, 6)]
    + [(4, 2, 6, 6), (4, 3, 6, 8), (4, 4, 6, 8), (4, 5, 6, 8)]
    + [(5, 2, 8, 10), (5, 3, 8, 14), (5, 4, 8, 15)]
)
# (p, k, n) cells whose gap sets the brute-force scan reaches: g <= 6 here,
# and F_8^2 (g = 28) did not finish in 120 s
BRUTE_GAP_CELLS = [(2, 1, 3), (3, 1, 3), (2, 2, 3), (2, 1, 4), (3, 1, 4), (2, 1, 5)]
# canonical witnesses of the level search's proofs; (5,3) took it 650,306 nodes
CANONICAL_WITNESSES = {
    (3, 1, 3): (0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0),
    (2, 1, 4): (0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1),
    (5, 1, 3): (0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 4, 0, 4, 4, 0, 3, 2, 0, 3, 3, 2, 0, 1,
                0, 1, 1, 3, 4, 0, 0),
}
# (p, k, n, minimum, nodes_explored, the first 16 hex digits of the sha256
# of the witness's levels as bytes) of proofs past the reach of the
# brute-force lex scan, so the canonical pass keeps them byte for byte
WITNESS_DIGESTS = [
    (2, 1, 10, 1023, 0, "4fb34aedbfd1764c"),
    (3, 1, 7, 2185, 0, "d08287c52f69ba19"),
    (2, 2, 5, 1018, 0, "764e5f50683c12a2"),
    (5, 1, 5, 3117, 119, "87b794255e12a896"),
    (2, 2, 6, 4090, 0, "0892bf28835b74b2"),
    (2, 1, 12, 4095, 0, "1135bdaee56f3d67"),
    (3, 1, 8, 6559, 0, "c3ecb65149d4fc41"),
]
# (p, k, n) cells for the duality test
DUALITY_CELLS = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3)]


def _field(q):
    return make_field(*FIELD_OF[q])


@pytest.mark.parametrize("q,n,g,most", GAP_TABLE)
def test_gap_sizes(q, n, g, most):
    f = _field(q)
    found, nodes = search._gap_size(f, n, 10**6)
    assert found == g
    assert g <= most == q**n - kakeya_lower_bound_ceiling(q, n)
    if n >= max(3, q - 1):  # g(q, n) = g(q, n-1) with no node of its own
        assert nodes == search._gap_size(f, n - 1, 10**6)[1]


def test_gap_size_takes_lemma_d_in_one_step():
    # one call per n would pass Python's recursion limit
    assert search._gap_size(make_field(2, 1), 5000, 1) == (1, 0)
    assert search._gap_size(make_field(3, 1), 5000, 1) == (2, 0)


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
def test_gap_sizes_match_every_subset(p, k, n):
    f = make_field(p, k)
    points = range(f.q**n)
    largest = max(len(c) for r in range(len(points) + 1)
                  for c in itertools.combinations(points, r) if is_gap_set_brute(f, n, c))
    assert search._gap_size(f, n, 10**6)[0] == largest


@pytest.mark.parametrize("q", [4, 5])
def test_gap_search_on_planar_cells(q):
    """With the cap g(q,1) = q-1 per line, the branch and bound over gap
    sets finds the planar value the level search and the literature give."""
    f = _field(q)
    expected = q * q - (minimal_kakeya_powerset(f, 2)[0] if q == 4 else 17)
    engine = search._GapSearch(f, 2, q - 1, 10**6)
    assert engine.run() == expected
    assert search._gap_size(f, 2, 10**6)[0] == expected


def _grow(engine, points):
    """Counts and candidates once `points` join in order, with the
    candidates left as the engine's rules leave them."""
    counts, cands = [0] * (len(engine.levels) * engine.q), (1 << engine.npoints) - 1
    for x in points:
        counts, banned = engine._add(x, counts)
        cands &= ~banned & ~(1 << x)
    return counts, cands


@pytest.mark.parametrize("p,k,n,cap", [(5, 1, 3, 3), (2, 2, 3, 2), (7, 1, 2, 4)])
def test_gap_search_candidates_follow_the_cap_and_the_last_level(p, k, n, cap):
    """A point stays a candidate exactly while no hyperplane through it
    holds cap points and no direction has met every level but its own."""
    f = make_field(p, k)
    engine = search._GapSearch(f, n, cap, 10**6)
    dirs = enumerate_directions(f, n)
    coords = [point_coords(x, f.q, n) for x in range(f.q**n)]
    levels = [[dot(f, d.normal, x) for x in coords] for d in dirs]
    rng = random.Random(p + k + n)
    for _ in range(10):
        chosen = []
        for x in rng.sample(range(f.q**n), f.q**n):
            if len(chosen) == 2 * cap:
                break
            _, cands = _grow(engine, chosen)
            if not chosen or cands >> x & 1:
                chosen.append(x)
        _, cands = _grow(engine, chosen)
        for y in range(f.q**n):
            ok = y not in chosen
            for lv in levels:
                on = [lv[x] for x in chosen]
                ok = ok and on.count(lv[y]) < cap and len(set(on) | {lv[y]}) < f.q
            assert (cands >> y & 1) == ok


@pytest.mark.parametrize("q", [4, 5])
def test_gap_search_ceiling_bounds_every_completion(q):
    """Over random partial gap sets of F_q^2 that hold the frame, no gap set
    between one and it plus its candidates has more points than the
    engine's ceiling."""
    f = _field(q)
    engine = search._GapSearch(f, 2, q - 1, 10**6)
    engine.best = 0  # no early exit: the ceiling is the least over every direction
    dirs = enumerate_directions(f, 2)
    coords = [point_coords(x, q, 2) for x in range(q * q)]
    rng = random.Random(q)
    for _ in range(12):
        points = list(engine.frame)
        while True:
            counts, cands = _grow(engine, points)
            options = [y for y in range(q * q) if cands >> y & 1]
            if len(options) <= 10:
                break
            points.append(rng.choice(options))
        most = max(len(points) + r for r in range(len(options) + 1)
                   for more in itertools.combinations(options, r)
                   if is_gap_set_brute(f, 2, points + list(more)))
        ceiling = engine._ceiling(counts, cands)
        assert ceiling >= most
        # the same ceiling from levels taken point by point
        terms = []
        for d in dirs:
            on = [dot(f, d.normal, coords[x]) for x in points]
            free = [dot(f, d.normal, coords[y]) for y in options]
            per_level = [min(q - 1, on.count(c) + free.count(c)) for c in range(q)]
            terms.append(sum(per_level) - min(per_level[c] for c in range(q) if c not in on))
        assert ceiling == min(terms)


@pytest.mark.parametrize("p,k,n", BRUTE_GAP_CELLS)
def test_gap_engine_agrees_with_the_brute_force_scan(p, k, n):
    f = make_field(p, k)
    gap, _ = search._gap_size(f, n, 10**6)
    assert gap == gap_size_brute(f, n)
    result = minimal_kakeya_exact(f, n)
    assert result.proof_of_optimality and result.min_size == f.q**n - gap


@pytest.mark.parametrize("cap", range(3, 10))
def test_gap_engine_agrees_with_the_framed_scan(cap):
    """The branch and bound runs only for 3 <= n < q-1, beyond every cell
    the unframed scan finishes, so on F_5^3 it is checked cap by cap
    against a scan of the gap sets that hold the frame: the engine reports
    the most points of one, or cap when none has more."""
    f = make_field(5, 1)
    engine = search._GapSearch(f, 3, cap, 10**4)
    assert engine.run() == max(cap, framed_gap_size_brute(f, 3, cap))


@pytest.mark.parametrize("cell", sorted(CANONICAL_WITNESSES))
def test_canonical_witnesses_of_the_level_search_are_kept(cell):
    result = minimal_kakeya_exact(make_field(*cell[:2]), cell[2])
    assert result.proof_of_optimality
    assert result.witness.levels == CANONICAL_WITNESSES[cell]


@pytest.mark.parametrize("p,k,n,minimum,nodes,digest", WITNESS_DIGESTS)
def test_canonical_witnesses_past_the_lex_scan_are_pinned(p, k, n, minimum, nodes, digest):
    result = minimal_kakeya_exact(make_field(p, k), n)
    assert result.proof_of_optimality
    assert (result.min_size, result.nodes_explored) == (minimum, nodes)
    assert hashlib.sha256(bytes(result.witness.levels)).hexdigest()[:16] == digest


@pytest.mark.parametrize("q,n,minimum,nodes", [(5, 3, 117, 119), (4, 4, 250, 0), (5, 4, 617, 119),
                                               (2, 12, 4095, 0)])
def test_cells_beyond_the_level_search_are_proven_fast(q, n, minimum, nodes):
    # the level search took 650,306 nodes on (5,3) and 57,873 on (4,4); a
    # canonical pass priced from the count table took 3.8 s on (2,12)
    f = _field(q)
    start = time.process_time()
    result = minimal_kakeya_exact(f, n)
    assert time.process_time() - start < 1
    assert result.proof_of_optimality
    assert (result.min_size, result.nodes_explored) == (minimum, nodes)
    assert result.lower_bound_used == kakeya_lower_bound(q, n)


@pytest.mark.parametrize("q,n,minimum", [(4, 6, 4090), (3, 7, 2185)])
def test_cells_with_more_directions_than_the_recursion_limit_are_proven(q, n, minimum):
    # 1,365 and 1,093 directions: the canonical-witness pass goes that deep
    result = minimal_kakeya_exact(_field(q), n)
    assert len(result.witness) > sys.getrecursionlimit()
    assert result.proof_of_optimality
    assert (result.min_size, result.nodes_explored) == (minimum, 0)


def test_gap_engine_stays_within_its_budget():
    f = _field(5)
    # (5,2) takes 12 nodes, then the gap search on (5,3) 107
    for budget in (1, 11, 12, 13, 60, 118):
        gap, nodes = search._gap_size(f, 3, budget)
        assert gap is None and nodes <= budget
    assert search._gap_size(f, 3, 119) == (8, 119)


def test_exhausted_gap_engine_reports_the_greedy_bound(capsys):
    f = _field(5)
    result = minimal_kakeya_exact(f, 3, node_budget=60)
    assert not result.proof_of_optimality
    assert result.nodes_explored <= 60
    union = build_union(f, 3, result.witness)
    assert union.cardinality == result.min_size >= 117
    assert is_kakeya(f, union).ok
    assert cli.main(["search", "--field", "5", "--n", "3", "--budget", "60", "--format",
                     "json"]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["proof_of_optimality"] is False and obj["nodes_explored"] <= 60


def test_workers_start_no_process_above_the_plane(monkeypatch):
    def refuse(proc):
        raise AssertionError("no worker may start for n >= 3")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    result = minimal_kakeya_exact(_field(5), 3, workers=4)
    assert result.proof_of_optimality and result.min_size == 117


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kakeya_sets_are_the_complements_of_gap_sets(data):
    p, k, n = data.draw(st.sampled_from(DUALITY_CELLS))
    f = make_field(p, k)
    total = f.q**n
    gaps = data.draw(st.sets(st.integers(0, total - 1), max_size=min(total, 2 * f.q + 2)))
    bits = (1 << total) - 1
    for x in gaps:
        bits &= ~(1 << x)
    assert is_kakeya(f, PointSet(f.q, n, bits)).ok == is_gap_set_brute(f, n, gaps)


# -- the lemmas, point by point ------------------------------------------------


def _affine_map(f, n, origin, columns):
    """Point index y -> origin + sum_i y_i columns[i], by per-element
    arithmetic, over every point y of F_q^(len columns)."""
    out = []
    for idx in range(f.q ** len(columns)):
        y = point_coords(idx, f.q, len(columns))
        x = list(origin)
        for c, col in zip(y, columns):
            x = [field_add(f, a, field_mul(f, c, b)) for a, b in zip(x, col)]
        out.append(point_index(x, f.q))
    return out


def _random_maximal_gap_set(f, n, rng):
    """Points in random order, each kept while every nonzero functional
    still misses a value."""
    points = [point_coords(i, f.q, n) for i in range(f.q**n)]
    functionals = [u for u in itertools.product(range(f.q), repeat=n) if any(u)]
    values = [[dot(f, u, x) for x in points] for u in functionals]
    met = [set() for _ in functionals]
    gaps = []
    for x in rng.sample(range(len(points)), len(points)):
        if all(len(m | {v[x]}) < f.q for m, v in zip(met, values)):
            gaps.append(x)
            for m, v in zip(met, values):
                m.add(v[x])
    return gaps


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3)])
def test_lemma_b_a_hyperplane_is_a_smaller_space(p, k, n):
    """A subset of a hyperplane H is a gap set of F_q^n exactly when its
    chart in F_q^(n-1) is one of that space."""
    f = make_field(p, k)
    rng = random.Random(p * 100 + k * 10 + n)
    dirs = enumerate_directions(f, n)
    for _ in range(12):
        u = rng.choice(dirs).normal
        c = rng.randrange(f.q)
        lead = next(i for i, a in enumerate(u) if a)  # u[lead] = 1
        origin = [c if i == lead else 0 for i in range(n)]
        chart = _affine_map(f, n, origin, rref(f, annihilator_brute(f, [u], n))[0])
        assert all(dot(f, u, point_coords(x, f.q, n)) == c for x in chart)
        subset = rng.sample(range(f.q ** (n - 1)), rng.randrange(2 * f.q + 1))
        assert (is_gap_set_brute(f, n - 1, subset)
                == is_gap_set_brute(f, n, [chart[y] for y in subset]))


@pytest.mark.parametrize("q", [4, 5, 7])
def test_lemmas_b_and_c_on_large_gap_sets(q):
    """Every line meets a gap set of F_q^2 in at most g(q,1) = q-1 points;
    one with more points spans the plane, and the affine map that sends
    three of its points to 0, e_1 and e_2 gives a gap set with the frame."""
    f = _field(q)
    rng = random.Random(q)
    large = 0
    for _ in range(20):
        gaps = _random_maximal_gap_set(f, 2, rng)
        assert is_gap_set_brute(f, 2, gaps)
        coords = [point_coords(x, q, 2) for x in gaps]
        for d in enumerate_directions(f, 2):
            levels = [dot(f, d.normal, x) for x in coords]
            assert max(levels.count(c) for c in range(q)) <= q - 1
        if len(gaps) <= q - 1:
            continue
        large += 1
        base = coords[0]
        diffs = [[field_sub(f, a, b) for a, b in zip(x, base)] for x in coords[1:]]
        assert rank(f, diffs) == 2
        first = diffs[0]
        second = next(v for v in diffs if rank(f, [first, v]) == 2)
        to = _affine_map(f, 2, base, [first, second])  # frame point y -> to[y]
        back = {x: y for y, x in enumerate(to)}
        moved = [back[x] for x in gaps]
        assert {0, 1, q} <= set(moved)
        assert is_gap_set_brute(f, 2, moved)
    assert large > 0


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5) for n in range(1, 5)])
def test_lemma_d_the_frame_is_a_gap_set_only_below_q_minus_1(q, n):
    f = _field(q)
    frame = [0] + [q**i for i in range(n)]
    assert is_gap_set_brute(f, n, frame) == (n < q - 1)

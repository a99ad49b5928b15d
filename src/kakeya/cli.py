"""Command-line interface: bounds, direction listings, verification,
construction, incidence reports, exact search and the self-test suite.

Exit codes: 0 success/verified, 1 verified-false, 2 usage or validation
error, 3 search budget exhausted without a proof of optimality.

Each command imports only what it runs: only search and selftest load the
search engine, and only --format csv loads csv.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from .bounds import kakeya_lower_bound, planar_lower_bound
from .core import (
    DEFAULT_NODE_BUDGET,
    MAX_WORKERS,
    OffsetAssignment,
    build_union,
    incidence_stats,
    is_kakeya,
    json_text,
    point_set_text,
    random_assignment,
    read_assignment,
    read_point_set,
    write_assignment,
)
from .field import FieldSpec, factor_prime_power, parse_field_spec, size_cap
from .geometry import (
    ENUM_CAP,
    _normal_coords,
    count_directions_formula,
    enumerate_directions,
    point_coords,
)

SCHEMA_VERSION = 1


def _space(args) -> tuple[FieldSpec, int]:
    """The field and dimension given by --field and --n."""
    f = parse_field_spec(args.field)
    if args.n < 1:
        raise ValueError("--n must be a positive integer")
    return f, args.n


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _render(args, record: dict, lines: list[str], table=None) -> None:
    """Write a command's result in its --format to --output or stdout: the
    record as JSON after the schema version, the (header, rows) table as
    CSV when the command has one, and the text lines otherwise."""
    if args.format == "json":
        text = json_text({"schema_version": SCHEMA_VERSION, **record})
    elif args.format == "csv" and table is not None:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table[0])
        writer.writerows(table[1])
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)


def _rational_decimal(fr: Fraction, digits: int = 20) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(fr.numerator) / Decimal(fr.denominator))


def _parse_range(text: str) -> list[int]:
    """"2..5" -> [2, 3, 4, 5]; "7" -> [7].  A range of more than ENUM_CAP
    values is refused before it is listed."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"cannot parse range {text!r}") from None
        if hi_i < lo_i:
            raise ValueError(f"empty range {text!r}")
        if hi_i - lo_i >= ENUM_CAP:
            raise ValueError(f"range {text!r} has more than {ENUM_CAP} values")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ValueError(f"cannot parse range {text!r}") from None


# -- bound -------------------------------------------------------------------


def _too_many_digits(q: int, n: int, limit: int) -> ValueError:
    """The refusal of a bound with more than `limit` digits."""
    return ValueError(
        f"q={q} n={n}: the bound has more than {limit} digits, the most this"
        " process converts to text (PYTHONINTMAXSTRDIGITS raises it)")


def cmd_bound(args) -> int:
    qs = _parse_range(args.q)
    ns = _parse_range(args.n_range)
    cap = size_cap()
    for q in qs:
        if q > cap:
            # before the trial division in factor_prime_power
            raise ValueError(f"field order {q} exceeds size cap {cap}")
        if q < 2 or factor_prime_power(q) is None:
            raise ValueError(f"q={q} is not a prime power")
    for n in ns:
        if n < 2:
            raise ValueError(f"n={n} is out of range (need n >= 2)")
    # Refuse the grid's largest bound, that of its largest q and n, before
    # any power of q is built when it must have more digits than Python
    # converts to text (0 means no limit).  For n >= 2 a bound is at least
    # q^n - q^2 >= q^n / 2, and q^n has at least n (bit_length(q) - 1)
    # bits; 0.30102 is just below log10(2).
    limit = sys.get_int_max_str_digits()
    q, n = max(qs), max(ns)
    if limit and (n * (q.bit_length() - 1) - 1) * 30102 // 100000 >= limit:
        raise _too_many_digits(q, n, limit)
    most = 10**limit if limit else 0  # the least integer with too many digits

    header = ["q", "n", "numerator", "denominator", "decimal", "ceiling"]
    rows, items, lines = [], [], []
    for q in qs:
        for n in ns:
            fr = kakeya_lower_bound(q, n)
            if most and max(fr.numerator, fr.denominator) >= most:
                raise _too_many_digits(q, n, limit)
            approx, ceiling = _rational_decimal(fr), math.ceil(fr)
            row = (q, n, fr.numerator, fr.denominator, approx, ceiling)
            item = dict(zip(header, row))
            line = (f"q={q} n={n}: bound {fr.numerator}/{fr.denominator}"
                    f" (approx {approx}) ceiling {ceiling}")
            if n == 2:
                planar = planar_lower_bound(q)
                item["planar_numerator"] = planar.numerator
                item["planar_denominator"] = planar.denominator
                line += f"; planar bound {planar.numerator}/{planar.denominator} (equal)"
            rows.append(row)
            items.append(item)
            lines.append(line)
    _render(args, {"rows": items}, lines, (header, rows))
    return 0


# -- directions --------------------------------------------------------------


def cmd_directions(args) -> int:
    f, n = _space(args)
    normals = [d.normal for d in enumerate_directions(f, n)]
    _render(
        args,
        {"q": f.q, "n": n, "count": len(normals), "directions": [list(u) for u in normals]},
        [f"{len(normals)} directions in F_{f.q}^{n}"]
        + [f"{i}: ({', '.join(map(str, u))})" for i, u in enumerate(normals)],
        (["index", "normal"], [(i, " ".join(map(str, u))) for i, u in enumerate(normals)]),
    )
    return 0


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    f, pset = read_point_set(args.file)
    q, n = pset.q, pset.n
    verdict = is_kakeya(f, pset, args.plane_dim)
    witness = None if verdict.witness is None else list(verdict.witness)
    if verdict.ok and isinstance(verdict.witness, OffsetAssignment):
        lines = ["KAKEYA", f"witness levels: {witness}"]
    elif verdict.ok:
        reps = [point_coords(i, q, n) for i in witness]
        lines = ["KAKEYA", f"witness coset representatives: {reps}"]
    elif verdict.plane_dim == max(n - 1, 0):
        normal = next(itertools.islice(_normal_coords(q, n), verdict.failing_index, None))
        lines = ["NOT KAKEYA", f"no full hyperplane for direction #{verdict.failing_index}"
                               f" normal ({', '.join(map(str, normal))})"]
    else:
        lines = ["NOT KAKEYA", f"no full coset for subspace #{verdict.failing_index}"]
    _render(args, {"q": q, "n": n, "plane_dim": verdict.plane_dim, "kakeya": verdict.ok,
                   "witness": witness, "failing_index": verdict.failing_index}, lines)
    return 0 if verdict.ok else 1


# -- construct ---------------------------------------------------------------


def _parse_levels(text: str) -> OffsetAssignment:
    """--levels: comma-separated ASCII decimal integers.  int() alone would
    also take a sign, spaces, underscores and non-ASCII digits."""
    entries = text.split(",")
    for pos, entry in enumerate(entries):
        if not entry or entry.strip("0123456789"):
            raise ValueError(f"--levels entry #{pos} {entry!r} is not a decimal integer")
    return OffsetAssignment(tuple(map(int, entries)))


def cmd_construct(args) -> int:
    f, n = _space(args)
    if (args.levels is None) == (args.seed is None):
        raise ValueError("exactly one of --seed and --levels is required")
    if args.levels is not None:
        assignment = _parse_levels(args.levels)
    else:
        assignment = random_assignment(f, n, args.seed)
    pset = build_union(f, n, assignment)
    _emit(point_set_text(f, pset, include_points=args.points), args.output)
    if args.witness_out:
        write_assignment(args.witness_out, f, n, assignment)
    return 0


# -- stats -------------------------------------------------------------------


def cmd_stats(args) -> int:
    f, pset = read_point_set(args.file)
    report = incidence_stats(f, pset, read_assignment(args.witness, pset.q, pset.n))
    cs_bound = f"{report.i_count**2}/{report.w_count}"
    _render(args, {
        "q": pset.q,
        "n": pset.n,
        "s_count": report.s_count,
        "i_count": report.i_count,
        "w_count": report.w_count,
        "cs_bound": cs_bound,
        "cs_bound_numerator": report.cs_bound.numerator,
        "cs_bound_denominator": report.cs_bound.denominator,
        "set_size": report.set_size,
    }, [
        f"directions |S| = {report.s_count}",
        f"incidences |I| = {report.i_count}",
        f"triples |W| = {report.w_count}",
        f"bound |I|^2/|W| = {cs_bound}"
        f" = {report.cs_bound.numerator}/{report.cs_bound.denominator}",
        f"set size |E| = {report.set_size}",
    ])
    return 0


# -- search ------------------------------------------------------------------


def cmd_search(args) -> int:
    from . import search

    f, n = _space(args)
    if args.heuristic_only:
        result = search.greedy_upper_bound(f, n, restarts=args.restarts, seed=args.seed)
    else:
        result = search.minimal_kakeya_exact(f, n, node_budget=args.budget,
                                             workers=args.workers)
    lb = result.lower_bound_used
    witness = list(result.witness.levels)
    status = "exact minimum" if result.proof_of_optimality else "upper bound"
    _render(args, {
        "q": f.q,
        "n": n,
        "min_size": result.min_size,
        "witness": witness,
        "nodes_explored": result.nodes_explored,
        "proof_of_optimality": result.proof_of_optimality,
        "lower_bound": {"numerator": lb.numerator, "denominator": lb.denominator},
        "lower_bound_ceiling": math.ceil(lb),
    }, [
        f"{status}: {result.min_size}"
        f" (lower bound {lb.numerator}/{lb.denominator}, ceiling {math.ceil(lb)})",
        f"witness levels: {witness}",
        f"nodes explored: {result.nodes_explored}",
    ])
    if not args.heuristic_only and not result.proof_of_optimality:
        return 3
    return 0


# -- selftest ----------------------------------------------------------------


def _selftest_checks():
    from . import oracles, search
    from .field import make_field
    from .pointset import PointSet

    def directions_vs_brute(p, k, n):
        f = make_field(p, k)
        assert len(enumerate_directions(f, n)) == oracles.span_count_brute(f, n)

    def hyperplane_spans(p, k, n):
        f = make_field(p, k)
        assert oracles.hyperplane_span_count_brute(f, n) == count_directions_formula(f.q, n)

    def census(p, k, n):
        from .geometry import count_fiber, count_spanning_tuples
        f = make_field(p, k)
        total, fibers = oracles.spanning_tuple_census(f, n)
        assert total == count_spanning_tuples(f.q, n)
        assert set(fibers.values()) == {count_fiber(f.q, n)}
        assert len(fibers) == count_directions_formula(f.q, n)

    def incidence(p, k, n):
        f = make_field(p, k)
        for seed in range(5):
            assignment = random_assignment(f, n, seed)
            pset = build_union(f, n, assignment)
            report = incidence_stats(f, pset, assignment)
            assert report.w_count == oracles.triple_count_direct(f, pset, assignment)

    def powerset_vs_exact(p, k, n):
        f = make_field(p, k)
        oracle_size, _ = search.minimal_kakeya_powerset(f, n)
        assert oracle_size == search.minimal_kakeya_exact(f, n).min_size

    def coset_check(p, k, n, plane_dim):
        import random as _random
        from .geometry import enumerate_subspaces
        f = make_field(p, k)
        rng = _random.Random(7)
        for _ in range(5):
            bits = rng.randrange(1 << f.q**n)
            pset = PointSet(f.q, n, bits)
            verdict = is_kakeya(f, pset, plane_dim)
            subs = enumerate_subspaces(f, n, plane_dim)
            brute = all(
                oracles.coset_containment_brute(f, pset, sub.rows, n) for sub in subs
            )
            assert verdict.ok == brute

    def kplane_vs_coset_brute(p, k, n):
        # less the origin, every subspace holds a gap, and its least full
        # coset is that of the least point off it
        from .geometry import enumerate_subspaces
        f = make_field(p, k)
        pset = PointSet(f.q, n, PointSet.full(f.q, n).bits - 1)
        for dim in range(1, n - 1):
            verdict = is_kakeya(f, pset, dim)
            reps = [oracles.least_full_coset_brute(f, pset, sub.rows, n)
                    for sub in enumerate_subspaces(f, n, dim)]
            assert verdict.ok and verdict.witness == tuple(reps)

    def gap_engine_vs_level_search(p, k, n):
        f = make_field(p, k)
        gap, _ = search._gap_size(f, n, 10**6)
        assert search._level_minimum(f, n, 10**6)[0] == f.q**n - gap

    def complement_duality(p, k, n):
        f = make_field(p, k)
        total = f.q**n
        for bits in range(1 << total):
            gaps = [x for x in range(total) if not bits >> x & 1]
            assert is_kakeya(f, PointSet(f.q, n, bits)).ok == oracles.is_gap_set_brute(f, n, gaps)

    def hole_flags_vs_brute(p, k, n):
        # one and two gaps are read along the gaps; |S| - 1 and |S|, more
        # than a Kakeya set leaves, along the directions
        import random as _random
        from .core import _hole_flags
        from .geometry import _direction_count
        f = make_field(p, k)
        s = _direction_count(f.q, n)
        rng = _random.Random(11)
        for count in (1, 2, s - 1, s):
            gaps = rng.sample(range(f.q**n), count)
            pset = PointSet(f.q, n, PointSet.full(f.q, n).bits & ~sum(1 << i for i in gaps))
            rows = [{c for c, hole in enumerate(row) if hole}
                    for row in _hole_flags(f, pset)]
            assert rows == oracles.gap_levels_brute(f, n, gaps)

    def union_vs_brute(p, k, n):
        # random unions fill the space; the search's witness leaves its gaps open
        f = make_field(p, k)
        assignments = [random_assignment(f, n, seed) for seed in range(3)]
        assignments.append(search.minimal_kakeya_exact(f, n).witness)
        for assignment in assignments:
            assert build_union(f, n, assignment) == oracles.union_brute(f, n, assignment)

    def containment_vs_brute(p, k, n):
        # points removed from random unions and from the search's witness
        # union: the check fails exactly when a chosen hyperplane holds a
        # removed point, at the first such direction
        import random as _random
        f = make_field(p, k)
        normals = [d.normal for d in enumerate_directions(f, n)]
        rng = _random.Random(13)
        assignments = [random_assignment(f, n, seed) for seed in range(3)]
        assignments.append(search.minimal_kakeya_exact(f, n).witness)
        for assignment in assignments:
            union = build_union(f, n, assignment)
            members = list(union.indices())
            gaps = sorted(set(range(f.q**n)) - set(members))
            for removed in (rng.sample(members, 1), rng.sample(members, 2),
                            gaps[:2], gaps[:1] + members[-1:]):
                coords = [point_coords(x, f.q, n) for x in removed]
                first = next((pos for pos, (u, lvl) in enumerate(zip(normals, assignment))
                              if any(oracles.dot(f, u, x) == lvl for x in coords)), None)
                pset = PointSet(f.q, n, union.bits & ~sum(1 << x for x in removed))
                try:
                    incidence_stats(f, pset, assignment)
                except ValueError as exc:
                    assert first is not None and str(exc) == (
                        f"hyperplane for direction #{first} is not contained in the set")
                else:
                    assert first is None

    def canonical_vs_lex_scan(p, k, n):
        f = make_field(p, k)
        result = search.minimal_kakeya_exact(f, n)
        assert result.proof_of_optimality
        assert result.witness.levels == oracles.lex_smallest_optimum_brute(f, n, result.min_size)

    def child_price_vs_brute(p, k):
        # every child of one open direction of random partial unions
        import random as _random
        f = make_field(p, k)
        _, table, _ = search._search_space(f, 2)
        rng = _random.Random(17)
        for _ in range(4):
            free = rng.sample(range(table.s), table.s)
            mask, counts = 0, table.full
            while len(free) > 2 and rng.randrange(3):
                row = table.masks[free.pop()][rng.randrange(f.q)]
                mask, counts = mask | row, table.cover(counts, row & ~mask)
            d = free.pop()
            lanes = table.lanes(counts)
            gains = table.gains(lanes, free)
            lines = table.cheapest_lines(lanes, free, gains)
            for row in table.masks[d]:
                assert search._planar_price(lines, gains, row & ~mask) == (
                    oracles.cheapest_gains_brute(f, 2, PointSet(f.q, 2, mask | row), free))

    checks = [
        ("field axioms F_2", lambda: oracles.check_field_axioms(make_field(2, 1))),
        ("field axioms F_4", lambda: oracles.check_field_axioms(make_field(2, 2))),
        ("field axioms F_5", lambda: oracles.check_field_axioms(make_field(5, 1))),
        ("field axioms F_8", lambda: oracles.check_field_axioms(make_field(2, 3))),
        ("field axioms F_9", lambda: oracles.check_field_axioms(make_field(3, 2))),
        ("multiplicative order F_9", lambda: oracles.check_multiplicative_order(make_field(3, 2))),
        ("direction count vs span brute force (2,2)", lambda: directions_vs_brute(2, 1, 2)),
        ("direction count vs span brute force (3,2)", lambda: directions_vs_brute(3, 1, 2)),
        ("direction count vs span brute force (2,3)", lambda: directions_vs_brute(2, 1, 3)),
        ("hyperplane span count (2,3)", lambda: hyperplane_spans(2, 1, 3)),
        ("hyperplane span count (3,3)", lambda: hyperplane_spans(3, 1, 3)),
        ("spanning tuple census (2,2)", lambda: census(2, 1, 2)),
        ("spanning tuple census (2,3)", lambda: census(2, 1, 3)),
        ("spanning tuple census (3,2)", lambda: census(3, 1, 2)),
        ("incidence triple count (2,3)", lambda: incidence(2, 1, 3)),
        ("incidence triple count (3,2)", lambda: incidence(3, 1, 2)),
        ("coset containment brute force (2,3,k=1)", lambda: coset_check(2, 1, 3, 1)),
        ("coset containment brute force (2,3,k=2)", lambda: coset_check(2, 1, 3, 2)),
        ("k-plane check vs coset brute force F_4^3 and F_3^4 less the origin",
         lambda: (kplane_vs_coset_brute(2, 2, 3), kplane_vs_coset_brute(3, 1, 4))),
        ("powerset oracle vs exact search (2,2)", lambda: powerset_vs_exact(2, 1, 2)),
        ("powerset oracle vs exact search (3,2)", lambda: powerset_vs_exact(3, 1, 2)),
        ("gap engine vs level search (3,3)", lambda: gap_engine_vs_level_search(3, 1, 3)),
        ("complement duality F_3^2", lambda: complement_duality(3, 1, 2)),
        ("hole flags vs gap-level brute force (3,3)", lambda: hole_flags_vs_brute(3, 1, 3)),
        ("hole flags vs gap-level brute force F_4^3", lambda: hole_flags_vs_brute(2, 2, 3)),
        ("canonical witness vs brute-force lex scan of every assignment (5,2)",
         lambda: canonical_vs_lex_scan(5, 1, 2)),
        ("canonical witness vs brute-force lex scan (2,4)", lambda: canonical_vs_lex_scan(2, 1, 4)),
        ("canonical witness vs brute-force lex scan (3,3)", lambda: canonical_vs_lex_scan(3, 1, 3)),
        ("child price vs brute force (7,2), F_9^2",
         lambda: (child_price_vs_brute(7, 1), child_price_vs_brute(3, 2))),
        ("union vs brute force (3,3)", lambda: union_vs_brute(3, 1, 3)),
        ("union vs brute force F_4^3", lambda: union_vs_brute(2, 2, 3)),
        ("union vs brute force (5,3)", lambda: union_vs_brute(5, 1, 3)),
        ("stats containment vs brute force (3,3)", lambda: containment_vs_brute(3, 1, 3)),
        ("stats containment vs brute force F_4^3", lambda: containment_vs_brute(2, 2, 3)),
    ]
    return checks


def cmd_selftest(args) -> int:
    failures = 0
    for label, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # report every check, keep going
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------


def _add_common(sub, field=False):
    if field:
        sub.add_argument("--field", required=True,
                         help='field as "p^k" (e.g. 3^2) or a prime power q')
        sub.add_argument("--n", type=int, required=True, help="ambient dimension")
    sub.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sub.add_argument("--output", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kakeya",
        description="Exact computations for Kakeya sets w.r.t. hyperplanes over F_q^n",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bound", help="evaluate the size bounds over a (q, n) grid")
    p.add_argument("--q", required=True, help="q value or range, e.g. 2..5")
    p.add_argument("--n", dest="n_range", required=True, help="n value or range, e.g. 2..4")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("directions", help="list canonical hyperplane normals")
    _add_common(p, field=True)
    p.set_defaults(func=cmd_directions)

    p = subs.add_parser("verify", help="check the Kakeya property of a point-set file")
    p.add_argument("file", help="point-set JSON file")
    p.add_argument("--plane-dim", type=int, default=None,
                   help="plane dimension to verify (default n-1)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("construct", help="build a union-of-hyperplanes point set")
    _add_common(p, field=True)
    p.add_argument("--seed", type=int, help="seeded random level per direction")
    p.add_argument("--levels", help="comma-separated decimal level per direction")
    p.add_argument("--points", action="store_true",
                   help="include the redundant coordinate list in the file")
    p.add_argument("--witness-out", help="also write the assignment JSON here")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("stats", help="incidence report for a set and witness")
    p.add_argument("file", help="point-set JSON file")
    p.add_argument("--witness", required=True, help="assignment JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("search", help="exact minimum Kakeya set size")
    _add_common(p, field=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="node budget for the search (for n >= 3 the gap-set search and "
                        "the planar search under it), and again for the "
                        "canonical-witness pass")
    p.add_argument("--workers", type=int, default=1,
                   help=f"processes for branch and bound when n <= 2; at most {MAX_WORKERS};"
                        " the top of the tree is split into open nodes that workers pull;"
                        " for n >= 3 the gap-set search runs on one core")
    p.add_argument("--heuristic-only", action="store_true",
                   help="run only the greedy upper bound")
    p.add_argument("--restarts", type=int, default=64,
                   help="greedy restarts for --heuristic-only")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --heuristic-only restarts")
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("selftest", help="run the brute-force oracle suite")
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use: parse_args reads it
    and changes nothing in it, so every call of `main` can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: bounds, direction listings, verification,
construction, incidence reports, exact search and the self-test suite.

Exit codes: 0 success/verified, 1 verified-false, 2 usage or validation
error, 3 search budget exhausted without a proof of optimality.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from . import oracles
from .bounds import kakeya_lower_bound, planar_lower_bound
from .core import (
    IncidenceReport,
    OffsetAssignment,
    assignment_from_json,
    build_union,
    incidence_stats,
    is_kakeya,
    point_set_to_json,
    random_assignment,
    read_point_set,
    write_assignment,
)
from .field import FieldSpec, factor_prime_power, parse_field_spec
from .geometry import count_directions_formula, enumerate_directions, point_coords
from .search import (
    MAX_WORKERS,
    greedy_upper_bound,
    minimal_kakeya_exact,
    minimal_kakeya_powerset,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Validated common options for a subcommand invocation."""

    field: FieldSpec | None
    n: int | None
    seed: int | None
    fmt: str
    output: str | None


def _config(args, need_field: bool = False) -> RunConfig:
    f = None
    if getattr(args, "field", None) is not None:
        f = parse_field_spec(args.field)
    elif need_field:
        raise ValueError("--field is required")
    n = getattr(args, "n", None)
    if need_field and (n is None or n < 1):
        raise ValueError("--n must be a positive integer")
    return RunConfig(
        field=f,
        n=n,
        seed=getattr(args, "seed", None),
        fmt=getattr(args, "format", "text"),
        output=getattr(args, "output", None),
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _rational_decimal(fr: Fraction, digits: int = 20) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(fr.numerator) / Decimal(fr.denominator))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _parse_range(text: str) -> list[int]:
    """"2..5" -> [2, 3, 4, 5]; "7" -> [7]."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"cannot parse range {text!r}") from None
        if hi_i < lo_i:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ValueError(f"cannot parse range {text!r}") from None


# -- bound -------------------------------------------------------------------


def cmd_bound(args) -> int:
    cfg = _config(args)
    qs = _parse_range(args.q)
    ns = _parse_range(args.n_range)
    for q in qs:
        if q < 2 or factor_prime_power(q) is None:
            raise ValueError(f"q={q} is not a prime power")
    for n in ns:
        if n < 2:
            raise ValueError(f"n={n} is out of range (need n >= 2)")

    rows = []
    for q in qs:
        for n in ns:
            fr = kakeya_lower_bound(q, n)
            rows.append((q, n, fr))

    if cfg.fmt == "csv":
        _emit(_csv_text(
            ["q", "n", "numerator", "denominator", "decimal", "ceiling"],
            [(q, n, fr.numerator, fr.denominator, _rational_decimal(fr), math.ceil(fr))
             for q, n, fr in rows],
        ), cfg.output)
    elif cfg.fmt == "json":
        out = []
        for q, n, fr in rows:
            item = {
                "q": q,
                "n": n,
                "numerator": fr.numerator,
                "denominator": fr.denominator,
                "decimal": _rational_decimal(fr),
                "ceiling": math.ceil(fr),
            }
            if n == 2:
                planar = planar_lower_bound(q)
                item["planar_numerator"] = planar.numerator
                item["planar_denominator"] = planar.denominator
            out.append(item)
        _emit(_json_text({"schema_version": SCHEMA_VERSION, "rows": out}), cfg.output)
    else:
        lines = []
        for q, n, fr in rows:
            line = (f"q={q} n={n}: bound {fr.numerator}/{fr.denominator}"
                    f" (approx {_rational_decimal(fr)}) ceiling {math.ceil(fr)}")
            if n == 2:
                planar = planar_lower_bound(q)
                line += f"; planar bound {planar.numerator}/{planar.denominator} (equal)"
            lines.append(line)
        _emit("\n".join(lines) + "\n", cfg.output)
    return 0


# -- directions --------------------------------------------------------------


def cmd_directions(args) -> int:
    cfg = _config(args, need_field=True)
    dirs = enumerate_directions(cfg.field, cfg.n)
    if cfg.fmt == "json":
        obj = {
            "schema_version": SCHEMA_VERSION,
            "q": cfg.field.q,
            "n": cfg.n,
            "count": len(dirs),
            "directions": [list(d.normal) for d in dirs],
        }
        _emit(_json_text(obj), cfg.output)
    elif cfg.fmt == "csv":
        _emit(_csv_text(
            ["index", "normal"],
            [(i, " ".join(map(str, d.normal))) for i, d in enumerate(dirs)],
        ), cfg.output)
    else:
        lines = [f"{len(dirs)} directions in F_{cfg.field.q}^{cfg.n}"]
        lines += [f"{i}: ({', '.join(map(str, d.normal))})" for i, d in enumerate(dirs)]
        _emit("\n".join(lines) + "\n", cfg.output)
    return 0


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = _config(args)
    f, pset = read_point_set(args.file)
    verdict = is_kakeya(f, pset, args.plane_dim)

    witness_out = None
    if verdict.ok:
        if isinstance(verdict.witness, OffsetAssignment):
            witness_out = list(verdict.witness.levels)
        else:
            witness_out = list(verdict.witness)

    if cfg.fmt == "json":
        obj = {
            "schema_version": SCHEMA_VERSION,
            "q": pset.q,
            "n": pset.n,
            "plane_dim": verdict.plane_dim,
            "kakeya": verdict.ok,
            "witness": witness_out,
            "failing_index": verdict.failing_index,
        }
        _emit(_json_text(obj), cfg.output)
    else:
        if verdict.ok:
            lines = ["KAKEYA"]
            if isinstance(verdict.witness, OffsetAssignment):
                lines.append(f"witness levels: {witness_out}")
            else:
                reps = [point_coords(i, pset.q, pset.n) for i in verdict.witness]
                lines.append(f"witness coset representatives: {reps}")
        else:
            lines = ["NOT KAKEYA"]
            if verdict.plane_dim == max(pset.n - 1, 0):
                normal = enumerate_directions(f, pset.n)[verdict.failing_index].normal
                lines.append(
                    f"no full hyperplane for direction #{verdict.failing_index}"
                    f" normal ({', '.join(map(str, normal))})"
                )
            else:
                lines.append(f"no full coset for subspace #{verdict.failing_index}")
        _emit("\n".join(lines) + "\n", cfg.output)
    return 0 if verdict.ok else 1


# -- construct ---------------------------------------------------------------


def cmd_construct(args) -> int:
    cfg = _config(args, need_field=True)
    f, n = cfg.field, cfg.n
    if (args.levels is None) == (cfg.seed is None):
        raise ValueError("exactly one of --seed and --levels is required")
    if args.levels is not None:
        levels = tuple(int(v) for v in args.levels.split(","))
        assignment = OffsetAssignment(levels)
    else:
        assignment = random_assignment(f, n, cfg.seed)
    pset = build_union(f, n, assignment)
    text = json.dumps(point_set_to_json(f, pset, include_points=args.points),
                      indent=2, sort_keys=True) + "\n"
    _emit(text, cfg.output)
    if args.witness_out:
        write_assignment(args.witness_out, f, n, assignment)
    return 0


# -- stats -------------------------------------------------------------------


def _stats_json(q: int, n: int, report: IncidenceReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "q": q,
        "n": n,
        "s_count": report.s_count,
        "i_count": report.i_count,
        "w_count": report.w_count,
        "cs_bound": f"{report.i_count**2}/{report.w_count}",
        "cs_bound_numerator": report.cs_bound.numerator,
        "cs_bound_denominator": report.cs_bound.denominator,
        "set_size": report.set_size,
    }


def _read_witness(path, q: int, n: int) -> OffsetAssignment:
    """The witness file's levels; the object form must name the point
    set's space, whose direction count alone does not identify it."""
    obj = json.loads(Path(path).read_text())
    if isinstance(obj, dict):
        for key, want in (("q", q), ("n", n)):
            got = obj.get(key)
            if type(got) is not int or got != want:
                raise ValueError(
                    f"witness {key}={got!r} does not match the point set's {key}={want}")
    return assignment_from_json(obj)


def cmd_stats(args) -> int:
    cfg = _config(args)
    f, pset = read_point_set(args.file)
    assignment = _read_witness(args.witness, pset.q, pset.n)
    report = incidence_stats(f, pset, assignment)
    obj = _stats_json(pset.q, pset.n, report)
    if cfg.fmt == "json":
        _emit(_json_text(obj), cfg.output)
    else:
        lines = [
            f"directions |S| = {report.s_count}",
            f"incidences |I| = {report.i_count}",
            f"triples |W| = {report.w_count}",
            f"bound |I|^2/|W| = {obj['cs_bound']}"
            f" = {report.cs_bound.numerator}/{report.cs_bound.denominator}",
            f"set size |E| = {report.set_size}",
        ]
        _emit("\n".join(lines) + "\n", cfg.output)
    return 0


# -- search ------------------------------------------------------------------


def cmd_search(args) -> int:
    cfg = _config(args, need_field=True)
    f, n = cfg.field, cfg.n
    if args.heuristic_only:
        result = greedy_upper_bound(f, n, restarts=args.restarts,
                                    seed=cfg.seed if cfg.seed is not None else 0)
    else:
        result = minimal_kakeya_exact(f, n, node_budget=args.budget,
                                      workers=args.workers, normalize=args.normalize)
    lb = result.lower_bound_used
    obj = {
        "schema_version": SCHEMA_VERSION,
        "q": f.q,
        "n": n,
        "min_size": result.min_size,
        "witness": list(result.witness.levels),
        "nodes_explored": result.nodes_explored,
        "proof_of_optimality": result.proof_of_optimality,
        "lower_bound": {"numerator": lb.numerator, "denominator": lb.denominator},
        "lower_bound_ceiling": math.ceil(lb),
    }
    if cfg.fmt == "json":
        _emit(_json_text(obj), cfg.output)
    else:
        status = "exact minimum" if result.proof_of_optimality else "upper bound"
        lines = [
            f"{status}: {result.min_size}"
            f" (lower bound {lb.numerator}/{lb.denominator},"
            f" ceiling {math.ceil(lb)})",
            f"witness levels: {obj['witness']}",
            f"nodes explored: {result.nodes_explored}",
        ]
        _emit("\n".join(lines) + "\n", cfg.output)
    if not args.heuristic_only and not result.proof_of_optimality:
        return 3
    return 0


# -- selftest ----------------------------------------------------------------


def _selftest_checks():
    from .field import make_field

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
        oracle_size, _ = minimal_kakeya_powerset(f, n)
        assert oracle_size == minimal_kakeya_exact(f, n).min_size

    def coset_check(p, k, n, plane_dim):
        import random as _random
        from .geometry import enumerate_subspaces
        from .pointset import PointSet
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
        ("powerset oracle vs exact search (2,2)", lambda: powerset_vs_exact(2, 1, 2)),
        ("powerset oracle vs exact search (3,2)", lambda: powerset_vs_exact(3, 1, 2)),
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
    p.add_argument("--levels", help="comma-separated level per direction")
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
    p.add_argument("--budget", type=int, default=10_000_000,
                   help="node budget for branch and bound, and again for the "
                        "canonical-witness pass")
    p.add_argument("--workers", type=int, default=1,
                   help=f"processes for branch and bound; at most {MAX_WORKERS}; the top "
                        "of the tree is split into open nodes that workers pull")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True,
                   help="fix the standard-basis directions to level 0")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Workloads of the kakeya benchmark: seeded inputs, timed passes, output checks.

Every workload runs the same pass: an exact-search phase over a list of
(q, n) cells, then a verify phase that constructs unions, verifies them,
counts incidences, rejects near-misses, verifies lines (plane_dim=1) and
makes a CLI round trip.  The workloads differ in which phase carries the
weight, so each end-to-end metric is defined on every workload.

Expected outputs come from a table of proven minima, from closed-form
counting identities, and from a reference level kernel below that uses
none of the library's arithmetic.
"""

from __future__ import annotations

import json
import operator
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from busyclock import CLOCK
from kakeya import cli, core, geometry, search
from kakeya import field as kfield
from kakeya.core import OffsetAssignment
from kakeya.pointset import PointSet


@dataclass(frozen=True)
class SearchCell:
    spec: str
    n: int
    minimum: int  # expected result, never passed to the search


@dataclass(frozen=True)
class VerifyCell:
    spec: str
    n: int
    near_misses: int = 0
    kplane: bool = False
    cli: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    search: tuple[SearchCell, ...]
    workers: int
    verify: tuple[VerifyCell, ...]
    verify_rounds: int = 1  # verify phases per pass


# Cells proven at the seed.  The planar odd-q minima follow Blokhuis and
# Mazzocca, q(q+1)/2 + (q-1)/2; (8,2) and (2,4) close on the greedy bound.
PROVEN = (
    SearchCell("5", 2, 17),
    SearchCell("7", 2, 31),
    SearchCell("8", 2, 36),
    SearchCell("9", 2, 49),
    SearchCell("3", 3, 25),
    SearchCell("4", 3, 58),
    SearchCell("2", 4, 15),
)
# (9,2) alone is about 95% of the proven list; the rest close in ~0.1 s.
PROVEN_SMALL = tuple(c for c in PROVEN if (c.spec, c.n) != ("9", 2))

# Prime against extension fields, n = 2, 3 and 4, and density: random
# unions fill the whole space at n >= 3, so sparse sets come from n = 2.
# Near-misses sit on cells where the verifier exits exactly at the broken
# direction; in dense sets with small q or n >= 4, late directions cannot be
# broken alone, and the exit point would then vary with the seed.
VERIFY_FULL = (
    VerifyCell("13", 3),
    VerifyCell("3^2", 3, near_misses=2),
    VerifyCell("5", 4),
    VerifyCell("2^2", 4, kplane=True),
    VerifyCell("7", 3, near_misses=10, kplane=True, cli=True),
    VerifyCell("31", 2, near_misses=12),
    VerifyCell("3^3", 2, near_misses=12, cli=True),
    VerifyCell("5^2", 2, near_misses=14),
    VerifyCell("3", 4, kplane=True),
)
VERIFY_LIGHT = (
    VerifyCell("7", 3, near_misses=20, kplane=True, cli=True),
    VerifyCell("31", 2, near_misses=15),
    VerifyCell("2^3", 2, near_misses=15),
    VerifyCell("2^2", 3, kplane=True),
    VerifyCell("3", 4, kplane=True),
)

WORKLOADS = {
    w.name: w
    for w in (
        # The light verify phase is short; four rounds a pass give its
        # millisecond calls enough samples for a steady median.
        Workload("search-proven", PROVEN, 1, VERIFY_LIGHT, verify_rounds=4),
        Workload("search-parallel", PROVEN, 2, VERIFY_LIGHT, verify_rounds=4),
        Workload("verify-construct", PROVEN_SMALL, 1, VERIFY_FULL),
    )
}

PASS_METRICS = ("time_to_proof_s", "construct_s", "verify_accept_s", "stats_s",
                "kplane_verify_s", "cli_roundtrip_s")
# Near-misses per pass: fifty latencies put ten beyond their 80th percentile.
REJECTS_PER_PASS = 50


# -- reference level kernel --------------------------------------------------


def _field_tables(f) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables of F_q from p, k and the modulus.

    Element e stands for the polynomial whose x^i coefficient is the i-th
    base-p digit of e; products are reduced by the monic modulus.
    """
    p, k, q, mod = f.p, f.k, f.q, f.modulus
    digits = [[e // p**i % p for i in range(k)] for e in range(q)]

    def undigits(coeffs):
        return sum(c % p * p**i for i, c in enumerate(coeffs))

    add = [[undigits([x + y for x, y in zip(a, b)]) for b in digits] for a in digits]
    mul = []
    for a in digits:
        row = []
        for b in digits:
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] += x * y
            for d in range(2 * k - 2, k - 1, -1):
                c = prod[d] % p
                for t in range(k + 1):
                    prod[d - k + t] -= c * mod[t]
            row.append(undigits(prod[:k]))
        mul.append(row)
    return add, mul


class Reference:
    """Level of every point for every direction, and per-level bitmasks."""

    def __init__(self, f, n: int, dirs) -> None:
        q = f.q
        size = q**n
        add, mul = _field_tables(f)
        add_flat = [add[a][b] for a in range(q) for b in range(q)]
        scale = [bytes(mul[c][a] if a < q else 0 for a in range(256)) for c in range(q)]
        coord = [bytes(x // q**t % q for x in range(size)) for t in range(n)]
        select = [bytes(49 if v == c else 48 for v in range(256)) for c in range(q)]
        self.q = q
        self.levels: list[bytes] = []
        self.masks: list[list[int]] = []
        for d in dirs:
            lv = coord[0].translate(scale[d.normal[0]])
            for t in range(1, n):
                w = coord[t].translate(scale[d.normal[t]])
                lv = bytes(map(add_flat.__getitem__,
                               map(operator.add, map(q.__mul__, lv), w)))
            self.levels.append(lv)
            self.masks.append([int(lv.translate(select[c])[::-1], 2) for c in range(q)])

    def union(self, levels) -> int:
        bits = 0
        for row, lvl in zip(self.masks, levels):
            bits |= row[lvl]
        return bits

    def full_levels(self, i: int, bits: int) -> list[int]:
        return [c for c, m in enumerate(self.masks[i]) if m & ~bits == 0]


def _members(bits: int) -> list[int]:
    return [i for i, b in enumerate(reversed(bin(bits)[2:])) if b == "1"]


# -- seeded inputs -------------------------------------------------------------


@dataclass
class NearMiss:
    pset: PointSet
    broken_dir: int  # this direction has no full level
    broken: frozenset[int]  # every direction without a full level
    path: Path | None = None


@dataclass
class SearchInput:
    cell: SearchCell
    f: object
    directions: int
    ref: Reference


@dataclass
class VerifyInput:
    cell: VerifyCell
    f: object
    n: int
    directions: int
    assignment: OffsetAssignment
    pset: PointSet
    witness: tuple[int, ...]  # smallest full level per direction
    near: list[NearMiss] = field(default_factory=list)
    workdir: Path | None = None


@dataclass
class Inputs:
    search: list[SearchInput]
    workers: int
    verify: list[VerifyInput]
    verify_rounds: int


def _near_miss(ref: Reference, bits: int, j: int, rng: random.Random) -> int:
    """Remove one point from every full level of direction j.

    Each point is picked so that every earlier direction keeps a full level
    where possible; the verifier then exits at direction j, or earlier when
    no such point exists.
    """
    full = [set(ref.full_levels(i, bits)) for i in range(j)]
    for c in ref.full_levels(j, bits):
        cands = _members(ref.masks[j][c] & bits)
        rng.shuffle(cands)
        pick = next((x for x in cands
                     if all(len(fl) > 1 or ref.levels[i][x] not in fl
                            for i, fl in enumerate(full))), cands[0])
        bits &= ~(1 << pick)
        for i, fl in enumerate(full):
            fl.discard(ref.levels[i][pick])
    return bits


def _point_set_json(f, n: int, bits: int) -> str:
    width = (f.q**n + 3) // 4
    return json.dumps({"q": f.q, "p": f.p, "k": f.k, "n": n,
                       "bits_hex": format(bits, f"0{width}x")})


def setup(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Build every input of one pass from the seed, with its expected output."""
    rng = random.Random(f"{workload.name}/{seed}")
    searches = []
    for cell in workload.search:
        f = kfield.parse_field_spec(cell.spec)
        dirs = geometry.enumerate_directions(f, cell.n)
        searches.append(SearchInput(cell, f, len(dirs), Reference(f, cell.n, dirs)))
    rng.shuffle(searches)

    verifies = []
    for idx, cell in enumerate(workload.verify):
        f = kfield.parse_field_spec(cell.spec)
        n, q = cell.n, f.q
        dirs = geometry.enumerate_directions(f, n)
        ref = Reference(f, n, dirs)
        levels = tuple(rng.randrange(q) for _ in dirs)
        bits = ref.union(levels)
        v = VerifyInput(cell, f, n, len(dirs), OffsetAssignment(levels), PointSet(q, n, bits),
                        tuple(ref.full_levels(i, bits)[0] for i in range(len(dirs))))
        # Broken directions are evenly spaced over the direction order, so
        # the spread of exit points does not depend on the seed.
        for r in range(cell.near_misses):
            j = (2 * r + 1) * len(dirs) // (2 * cell.near_misses)
            nbits = _near_miss(ref, bits, j, rng)
            broken = frozenset(i for i in range(len(dirs)) if not ref.full_levels(i, nbits))
            v.near.append(NearMiss(PointSet(q, n, nbits), j, broken))
        if cell.cli:
            v.workdir = workdir / f"cell{idx}"
            v.workdir.mkdir(parents=True, exist_ok=True)
            nm = v.near[0]
            nm.path = v.workdir / "near_miss.json"
            nm.path.write_text(_point_set_json(f, n, nm.pset.bits))
        verifies.append(v)
    return Inputs(searches, workload.workers, verifies, workload.verify_rounds)


# -- checks ----------------------------------------------------------------------


class Mismatch(Exception):
    """An output disagrees with its expected value."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def check_search(s: SearchInput, r) -> None:
    expect(r.proof_of_optimality, "search ended without a proof")
    expect(r.min_size == s.cell.minimum, f"minimum {r.min_size}, expected {s.cell.minimum}")
    levels = tuple(r.witness.levels)
    expect(len(levels) == s.directions and all(0 <= v < s.f.q for v in levels),
           "witness is not a level per direction")
    bits = s.ref.union(levels)
    expect(bits.bit_count() == s.cell.minimum, "witness union has the wrong size")
    union = core.build_union(s.f, s.cell.n, r.witness)
    expect(union.bits == bits, "build_union disagrees on the witness union")
    expect(core.is_kakeya(s.f, union).ok, "witness union is not Kakeya")


def check_accept(v: VerifyInput, verdict) -> None:
    expect(verdict.ok and verdict.plane_dim == v.n - 1, "Kakeya union rejected")
    expect(tuple(verdict.witness.levels) == v.witness, "witness is not the smallest full level")


def check_stats(v: VerifyInput, rep) -> None:
    s, q, n = v.directions, v.f.q, v.n
    expect(rep.s_count == s, "direction count")
    expect(rep.i_count == s * q ** (n - 1), "|I| != |S| q^(n-1)")
    expect(rep.w_count == rep.i_count + s * (s - 1) * q ** (n - 2), "|W| identity")
    expect(rep.cs_bound == Fraction(rep.i_count**2, rep.w_count), "bound != |I|^2/|W|")
    expect(rep.set_size == v.pset.cardinality and rep.cs_bound <= rep.set_size, "bound > |E|")


def check_kplane(v: VerifyInput, verdict) -> None:
    expect(verdict.ok and verdict.plane_dim == 1, "Kakeya union misses a line direction")
    expect(len(verdict.witness) == (v.f.q**v.n - 1) // (v.f.q - 1), "one coset per line")


def check_reject(nm: NearMiss, verdict) -> None:
    expect(not verdict.ok, "near-miss accepted")
    fi = verdict.failing_index
    expect(fi is not None and fi <= nm.broken_dir and fi in nm.broken,
           f"failing index {fi}, broken direction {nm.broken_dir}")


# -- one timed pass ------------------------------------------------------------


class Tally:
    """Operations attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


class Pass:
    """Times the library calls of one pass; checks run outside the timing."""

    def __init__(self, tally: Tally, tracer=None, phase=None) -> None:
        self.tally = tally
        self.tracer = tracer
        self.phase = phase
        # (metric, operation) -> time of each time the operation ran
        self.samples: dict[tuple[str, str], list[float]] = {}
        self.nodes: dict[str, int] = {}

    def call(self, key: tuple[str, str], fn, *args, **kwargs):
        """Run one library call and add its busy time (see BusyClock) to `key`."""
        if self.tracer is not None:
            self.tracer.phase = self.phase
        t0 = CLOCK.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if self.tracer is not None:
                self.tracer.phase = None
        self.samples[key][-1] += CLOCK.since(t0)
        return result

    def op(self, key: tuple[str, str], body) -> None:
        """One counted operation: `body` makes its calls and checks, or raises."""
        self.tally.attempted += 1
        self.samples.setdefault(key, []).append(0.0)
        try:
            body(key)
        except Exception:  # any failure of one operation is counted, the run goes on
            self.tally.fail(f"{key}: {traceback.format_exc(limit=3)}")

    def checked(self, check, fn, *args):
        """Body of an operation that is one library call and a check."""
        return lambda key: check(self.call(key, fn, *args))

    def run(self, inp: Inputs) -> None:
        for s in inp.search:
            self.op(("time_to_proof_s", f"({s.cell.spec},{s.cell.n})"),
                    lambda key, s=s: self._search(key, s, inp.workers))
        for v in inp.verify * inp.verify_rounds:
            label = f"{v.cell.spec} n={v.n}"
            self.op(("construct_s", label), lambda key, v=v: self._construct(key, v))
            self.op(("verify_accept_s", label), self.checked(
                lambda r, v=v: check_accept(v, r), core.is_kakeya, v.f, v.pset))
            self.op(("stats_s", label), self.checked(
                lambda r, v=v: check_stats(v, r), core.incidence_stats, v.f, v.pset, v.assignment))
            if v.cell.kplane:
                self.op(("kplane_verify_s", label), self.checked(
                    lambda r, v=v: check_kplane(v, r), core.is_kakeya, v.f, v.pset, 1))
            for r, nm in enumerate(v.near):
                self.op(("reject", f"{label} #{r}"), self.checked(
                    lambda res, nm=nm: check_reject(nm, res), core.is_kakeya, v.f, nm.pset))
            if v.cell.cli:
                self.op(("cli_roundtrip_s", label), lambda key, v=v: self._cli(key, v))

    def _search(self, key, s: SearchInput, workers: int) -> None:
        r = self.call(key, search.minimal_kakeya_exact, s.f, s.cell.n, workers=workers)
        self.nodes[key[1]] = r.nodes_explored
        check_search(s, r)

    def _construct(self, key, v: VerifyInput) -> None:
        union = self.call(key, core.build_union, v.f, v.n, v.assignment)
        expect(union.bits == v.pset.bits, "union differs from the reference")

    def _cli(self, key, v: VerifyInput) -> None:
        d = v.workdir
        spec = f"{v.f.p}^{v.f.k}"
        levels = ",".join(map(str, v.assignment.levels))
        nm = v.near[0]

        def main(argv, code):
            got = self.call(key, cli.main, argv)
            expect(got == code, f"cli {argv[0]} exit {got}, expected {code}")

        def read(name):
            return json.loads((d / name).read_text())

        main(["construct", "--field", spec, "--n", str(v.n), "--levels", levels, "--points",
              "--output", str(d / "set.json"), "--witness-out", str(d / "wit.json")], 0)
        obj = read("set.json")
        expect(int(obj["bits_hex"], 16) == v.pset.bits
               and len(obj["points"]) == v.pset.cardinality, "construct output")
        expect(tuple(read("wit.json")["levels"]) == v.assignment.levels, "witness file")

        main(["verify", str(d / "set.json"), "--format", "json",
              "--output", str(d / "verify.json")], 0)
        obj = read("verify.json")
        expect(obj["kakeya"] is True and tuple(obj["witness"]) == v.witness, "verify output")

        main(["stats", str(d / "set.json"), "--witness", str(d / "wit.json"),
              "--format", "json", "--output", str(d / "stats.json")], 0)
        obj = read("stats.json")
        s, q = v.directions, v.f.q
        expect(obj["i_count"] == s * q ** (v.n - 1)
               and obj["w_count"] == obj["i_count"] + s * (s - 1) * q ** (v.n - 2)
               and obj["set_size"] == v.pset.cardinality, "stats output")

        main(["verify", str(nm.path), "--format", "json",
              "--output", str(d / "reject.json")], 1)
        obj = read("reject.json")
        expect(obj["kakeya"] is False and obj["failing_index"] in nm.broken
               and obj["failing_index"] <= nm.broken_dir, "verify output on a near-miss")

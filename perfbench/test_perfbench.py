"""Tests of the benchmark itself: every workload path at tiny sizes, the
reference kernel, and that wrong outputs are counted instead of passing."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import busyclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import SearchCell, VerifyCell, Workload  # noqa: E402

from kakeya import cli, core, geometry, search  # noqa: E402
from kakeya.core import KakeyaVerdict, OffsetAssignment  # noqa: E402
from kakeya.field import parse_field_spec  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# One tiny stand-in per named workload, taking the same code paths.
TINY_VERIFY = (
    VerifyCell("3", 3, near_misses=2, kplane=True, cli=True),
    VerifyCell("2^2", 2, near_misses=2),
)
TINY = {
    "search-proven": Workload("tiny", (SearchCell("3", 2, 7), SearchCell("2", 3, 7)), 1,
                              TINY_VERIFY, verify_rounds=2),
    "search-parallel": Workload("tiny", (SearchCell("3", 2, 7), SearchCell("4", 2, 10)), 2,
                                TINY_VERIFY),
    "verify-construct": Workload("tiny", (SearchCell("2", 2, 3),), 1,
                                 TINY_VERIFY + (VerifyCell("2", 4, kplane=True),)),
}


@pytest.fixture(autouse=True)
def _two_setups(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def _measure(workload, tmp_path, trace=False, seed=3):
    return run.measure(workload, seed, 0.0, trace, tmp_path)


def test_named_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)
    for w in workloads.WORKLOADS.values():
        assert w.search and any(c.kplane for c in w.verify)
        assert any(c.cli and c.near_misses for c in w.verify)
        assert sum(c.near_misses for c in w.verify) == workloads.REJECTS_PER_PASS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_reports_every_metric(name, trace, tmp_path):
    res = _measure(TINY[name], tmp_path, trace)
    assert res["failed"] == 0, res["messages"]
    assert res["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(res["metrics"]) == {m["name"] for m in BENCH[kind]}
    if not trace:
        assert all(v > 0 for v in res["metrics"].values())
    # the tracer leaves no wrapper behind
    assert search.build_union is core.build_union
    assert cli.main.__module__ == "kakeya.cli" and not hasattr(cli.main, "__wrapped__")


def test_traced_search_nodes_are_counted(tmp_path):
    w = TINY["search-proven"]
    res = _measure(w, tmp_path, trace=True)
    expected = sum(search.minimal_kakeya_exact(parse_field_spec(c.spec), c.n).nodes_explored
                   for c in w.search)
    assert res["metrics"]["search.nodes"] == expected
    assert res["metrics"]["search.parallel_nodes"] == 0


def test_spans_nest_under_library_calls(tmp_path):
    tracer = spans.Tracer()
    out = tmp_path / "set.json"
    with tracer.installed():
        tracer.phase = 0
        search.minimal_kakeya_exact(parse_field_spec("3"), 2)
        cli.main(["construct", "--field", "3", "--n", "2", "--seed", "1", "--output", str(out)])
        tracer.phase = None
    parents = {(s.name, s.parent.name if s.parent else None) for s in tracer.spans}
    assert ("core.level_masks", "search.minimal_kakeya_exact") in parents
    assert ("core.level_masks", "search.greedy_upper_bound") in parents
    assert ("core.is_kakeya", "search.minimal_kakeya_exact") in parents
    assert ("core.build_union", "cli.main") in parents
    assert ("field.make_field", "cli.main") in parents
    layers = spans.pass_layers(tracer.spans)
    assert 0 < layers["search.bnb_self_s"] and 0 < layers["cli.self_s"]


def test_inputs_follow_the_seed(tmp_path):
    w = TINY["verify-construct"]

    def key(seed):
        inp = workloads.setup(w, seed, tmp_path)
        return ([s.cell for s in inp.search],
                [(v.assignment, [nm.pset.bits for nm in v.near]) for v in inp.verify])

    assert key(5) == key(5)
    assert key(5) != key(6)


@pytest.mark.parametrize("spec,n", [("5", 2), ("2^2", 3), ("3^2", 2), ("2^3", 2), ("3", 3)])
def test_reference_kernel_matches_level_masks(spec, n):
    f = parse_field_spec(spec)
    dirs = geometry.enumerate_directions(f, n)
    assert workloads.Reference(f, n, dirs).masks == core.level_masks(f, n, dirs)


def test_near_misses_break_the_chosen_direction(tmp_path):
    inp = workloads.setup(TINY["verify-construct"], 9, tmp_path)
    for v in inp.verify:
        for nm in v.near:
            assert nm.broken_dir in nm.broken
            verdict = core.is_kakeya(v.f, nm.pset)
            assert not verdict.ok and verdict.failing_index <= nm.broken_dir


def _corrupt_witness(real):
    def wrong(*args, **kwargs):
        r = real(*args, **kwargs)
        levels = list(r.witness.levels)
        levels[-1] = (levels[-1] + 1) % args[0].q
        return dataclasses.replace(r, witness=OffsetAssignment(tuple(levels)))
    return wrong


def _accept_everything(real):
    def wrong(f, pset, plane_dim=None):
        v = real(f, pset, plane_dim)
        return v if v.ok else KakeyaVerdict(True, v.plane_dim, None, None)
    return wrong


def _off_by_one_incidences(real):
    def wrong(*args):
        return dataclasses.replace(real(*args), i_count=real(*args).i_count + 1)
    return wrong


def _drop_a_point(real):
    def wrong(f, n, assignment):
        pset = real(f, n, assignment)
        return dataclasses.replace(pset, bits=pset.bits & (pset.bits - 1))
    return wrong


def _always_exit_zero(real):
    def wrong(argv=None):
        real(argv)
        return 0
    return wrong


@pytest.mark.parametrize("module,name,corrupt", [
    (search, "minimal_kakeya_exact", _corrupt_witness),
    (core, "is_kakeya", _accept_everything),
    (core, "incidence_stats", _off_by_one_incidences),
    (core, "build_union", _drop_a_point),
    (cli, "main", _always_exit_zero),
])
def test_wrong_outputs_raise_failed_share(module, name, corrupt, monkeypatch, tmp_path):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    res = _measure(TINY["verify-construct"], tmp_path)
    assert res["failed"] > 0
    assert res["failed"] / res["attempted"] > 0


def test_busy_time_is_scaled_by_the_probes_around_it():
    w = busyclock.WINDOW
    speed = busyclock.Speedometer()
    speed.at = [float(i) for i in range(2 * w)]
    speed.took = [0.002] * w + [0.004] * w
    # the last w probes run inside this call
    busy, factor = speed.scale(w - 0.5, 2 * w - 0.5)
    assert busy == pytest.approx(w - 0.004 * w)
    assert factor == pytest.approx(busyclock.REF_PROBE_S / 0.004)
    # a call between two probes takes its speed from the w before it
    busy, factor = speed.scale(w - 0.9, w - 0.4)
    assert busy == pytest.approx(0.5)
    assert factor == pytest.approx(busyclock.REF_PROBE_S / 0.002)
    assert speed.scale(-2.0, -1.0) == (1.0, 1.0)  # no probe yet


def test_parallel_search_counts_its_slower_worker():
    f = parse_field_spec("5")
    with busyclock.CLOCK.installed():
        t0 = busyclock.CLOCK.start()
        search.minimal_kakeya_exact(f, 2, workers=2)
        first = busyclock.CLOCK.start()[2]
        busy = busyclock.CLOCK.since(t0)
    children = busyclock.CLOCK._child_busy[first - 2:first]
    assert first - t0[2] == 2 and min(children) > 0
    assert busy >= max(children)


def test_p80_leaves_ten_near_misses_beyond_it():
    samples = list(range(workloads.REJECTS_PER_PASS))
    p80 = run.nearest_rank(samples, 80)
    assert sum(1 for s in samples if s > p80) == 10


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search-proven",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout

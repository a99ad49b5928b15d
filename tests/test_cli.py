import csv
import io
import json
import multiprocessing
import time

import pytest

from kakeya import search
from kakeya.cli import main
from kakeya.core import point_set_to_json, write_point_set
from kakeya.field import make_field
from kakeya.pointset import PointSet


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_csv_grid(capsys):
    code, out, _ = run(capsys, ["bound", "--q", "2..5", "--n", "2..4", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    first = rows[0]
    assert (first["q"], first["n"]) == ("2", "2")
    assert (first["numerator"], first["denominator"], first["ceiling"]) == ("3", "1", "3")
    r33 = next(r for r in rows if r["q"] == "3" and r["n"] == "3")
    assert (r33["numerator"], r33["denominator"], r33["ceiling"]) == ("117", "5", "24")


def test_bound_single_cell_text(capsys):
    code, out, _ = run(capsys, ["bound", "--q", "2", "--n", "2"])
    assert code == 0
    assert "ceiling 3" in out
    assert "(approx" in out
    assert "planar bound" in out  # n = 2 reference value


def test_bound_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, ["bound", "--q", "6", "--n", "2"])
    assert code == 2
    assert "6" in err


def test_bound_rejects_bad_n(capsys):
    code, _, err = run(capsys, ["bound", "--q", "2", "--n", "1"])
    assert code == 2


def test_directions_json(capsys):
    code, out, _ = run(capsys, ["directions", "--field", "2", "--n", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 3
    assert obj["directions"] == [[1, 0], [0, 1], [1, 1]]


def test_directions_accepts_pk_form(capsys):
    code, out, _ = run(capsys, ["directions", "--field", "2^2", "--n", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_construct_is_byte_reproducible(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _, _ = run(capsys, [
            "construct", "--field", "2", "--n", "3", "--seed", "7",
            "--output", str(path),
        ])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_construct_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, ["construct", "--field", "2", "--n", "2"])
    assert code == 2
    code, _, err = run(capsys, [
        "construct", "--field", "2", "--n", "2", "--seed", "1", "--levels", "0,0,0",
    ])
    assert code == 2


def test_construct_then_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "set.json"
    code, _, _ = run(capsys, [
        "construct", "--field", "3", "--n", "2", "--seed", "11",
        "--output", str(path), "--points",
    ])
    assert code == 0
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert out.startswith("KAKEYA")


def test_verify_full_and_empty(tmp_path, capsys):
    f = make_field(2, 1)
    full_path = tmp_path / "full.json"
    empty_path = tmp_path / "empty.json"
    write_point_set(full_path, f, PointSet.full(2, 3))
    write_point_set(empty_path, f, PointSet.empty(2, 3))

    code, out, _ = run(capsys, ["verify", str(full_path)])
    assert code == 0
    assert "KAKEYA" in out

    code, out, _ = run(capsys, ["verify", str(empty_path)])
    assert code == 1
    assert "NOT KAKEYA" in out
    assert "direction #0" in out


# Each bad entry stands in for the origin [0, 0] of the full F_2^2; the
# ones that still encode index 0 would pass the bits_hex agreement check.
@pytest.mark.parametrize("entry", [
    ["0", 0],  # a string coordinate
    [0, 0, 0],  # three coordinates when n = 2
    [0],  # one coordinate
    [0, 2],  # 2 is not in F_2
    [False, False],  # a bool is not a coordinate
    0,  # not a coordinate list
])
def test_verify_rejects_malformed_points(tmp_path, capsys, entry):
    obj = point_set_to_json(make_field(2, 1), PointSet.full(2, 2), include_points=True)
    assert obj["points"][0] == [0, 0]
    obj["points"][0] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: points must be a list of lists of 2 integers in [0, 2)")


def test_verify_rejects_points_that_are_not_a_list(tmp_path, capsys):
    obj = point_set_to_json(make_field(2, 1), PointSet.full(2, 2))
    obj["points"] = "xx"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert err.startswith("error: points must be a list of lists")


@pytest.mark.parametrize("key", ["q", "p", "k", "n"])
@pytest.mark.parametrize("value", [None, 2.0, 2.5, True, "2"])
def test_verify_rejects_fields_that_are_not_integers(tmp_path, capsys, key, value):
    obj = point_set_to_json(make_field(2, 1), PointSet.full(2, 2))
    obj[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {key} must be an integer")


@pytest.mark.parametrize("level", [None, 1.0, True, "1"])
def test_stats_rejects_witness_levels_that_are_not_integers(tmp_path, capsys, level):
    set_path = tmp_path / "set.json"
    wit_path = tmp_path / "wit.json"
    code, _, _ = run(capsys, ["construct", "--field", "2", "--n", "2", "--seed", "1",
                              "--output", str(set_path), "--witness-out", str(wit_path)])
    assert code == 0
    witness = json.loads(wit_path.read_text())
    for levels in ([level] + witness["levels"][1:], "".join(map(str, witness["levels"]))):
        witness["levels"] = levels
        wit_path.write_text(json.dumps(witness))
        code, out, err = run(capsys, ["stats", str(set_path), "--witness", str(wit_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: witness levels must be a list of integers")


def test_search_exits_3_when_the_witness_pass_runs_out(capsys):
    # (2,2) is proven by the greedy seed alone; one node is too few for the
    # canonical-witness pass, so the result is only an upper bound
    code, out, _ = run(capsys, ["search", "--field", "2", "--n", "2", "--budget", "1"])
    assert code == 3
    assert out.startswith("upper bound: 3")
    code, out, _ = run(capsys, ["search", "--field", "2", "--n", "2"])
    assert code == 0
    assert out.startswith("exact minimum: 3")


def test_verify_minus_point_witness(tmp_path, capsys):
    f = make_field(2, 1)
    path = tmp_path / "minus.json"
    write_point_set(path, f, PointSet(2, 3, (1 << 8) - 2))  # drop the origin
    code, out, _ = run(capsys, ["verify", str(path), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kakeya"] is True
    assert len(obj["witness"]) == 7


def test_verify_general_plane_dim(tmp_path, capsys):
    f = make_field(2, 1)
    path = tmp_path / "full.json"
    write_point_set(path, f, PointSet.full(2, 3))
    code, out, _ = run(capsys, ["verify", str(path), "--plane-dim", "1"])
    assert code == 0
    assert "KAKEYA" in out


def test_verify_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 2, "p": 2, "k": 1, "n": 2, "bits_hex": "123"}))
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "hex" in err


def test_stats_matches_example(tmp_path, capsys):
    set_path = tmp_path / "set.json"
    wit_path = tmp_path / "wit.json"
    code, _, _ = run(capsys, [
        "construct", "--field", "2", "--n", "3", "--seed", "7",
        "--output", str(set_path), "--witness-out", str(wit_path),
    ])
    assert code == 0
    code, out, _ = run(capsys, [
        "stats", str(set_path), "--witness", str(wit_path), "--format", "json",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["i_count"] == 28
    assert obj["w_count"] == 112
    assert obj["cs_bound"] == "784/112"
    assert obj["cs_bound_numerator"] == 7
    assert obj["set_size"] >= 7


def test_stats_rejects_nonconforming_witness(tmp_path, capsys):
    f = make_field(2, 1)
    set_path = tmp_path / "set.json"
    wit_path = tmp_path / "wit.json"
    write_point_set(set_path, f, PointSet.empty(2, 2))
    wit_path.write_text(json.dumps({"q": 2, "n": 2, "levels": [0, 0, 0]}))
    code, _, err = run(capsys, ["stats", str(set_path), "--witness", str(wit_path)])
    assert code == 2
    assert "not contained" in err


def test_stats_refuses_a_witness_for_another_space(tmp_path, capsys):
    # F_2^5 and F_5^3 both have 31 directions: only the file's q and n tell
    # a witness for one from a witness for the other
    set_path = tmp_path / "set.json"
    wit_path = tmp_path / "wit.json"
    write_point_set(set_path, make_field(5, 1), PointSet.full(5, 3))
    levels = [0] * 31
    for witness in ({"q": 2, "n": 5, "levels": levels}, {"q": 5, "n": 2, "levels": levels},
                    {"q": 5, "n": 3.0, "levels": levels}, {"q": "5", "n": 3, "levels": levels},
                    {"q": True, "n": 3, "levels": levels}, {"levels": levels}):
        wit_path.write_text(json.dumps(witness))
        code, out, err = run(capsys, ["stats", str(set_path), "--witness", str(wit_path)])
        assert code == 2, witness
        assert out == ""
        assert err.startswith("error: witness ") and "does not match" in err
    for witness in ({"q": 5, "n": 3, "levels": levels}, levels):
        wit_path.write_text(json.dumps(witness))
        code, out, _ = run(capsys, ["stats", str(set_path), "--witness", str(wit_path)])
        assert code == 0
        assert "set size |E| = 125" in out


def test_oversized_dimension_refused_before_q_pow_n(tmp_path, capsys):
    # 3^(10^7) has millions of digits; every command refuses the space from
    # the dimension alone, with the cap in the message
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"q": 3, "p": 3, "k": 1, "n": 10**7, "bits_hex": "0"}))
    wit_path = tmp_path / "wit.json"
    wit_path.write_text("[]")
    big = ["--field", "3", "--n", str(10**7)]
    for argv in (["directions", *big], ["construct", *big, "--seed", "1"],
                 ["search", *big], ["search", *big, "--heuristic-only"],
                 ["verify", str(set_path)], ["stats", str(set_path), "--witness", str(wit_path)]):
        start = time.perf_counter()
        code, _, err = run(capsys, argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert "point space 3^10000000 exceeds size cap" in err


def test_search_json(capsys):
    code, out, _ = run(capsys, ["search", "--field", "2", "--n", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["min_size"] == 3
    assert obj["proof_of_optimality"] is True
    assert obj["witness"] == [0, 0, 1]
    assert obj["lower_bound"] == {"numerator": 3, "denominator": 1}


def test_search_budget_exhaustion_exit_code(capsys):
    code, out, _ = run(capsys, [
        "search", "--field", "3", "--n", "3", "--budget", "1", "--format", "json",
    ])
    assert code == 3
    obj = json.loads(out)
    assert obj["proof_of_optimality"] is False
    assert obj["min_size"] >= 24


def test_search_refuses_oversized_mask_tables(capsys, monkeypatch):
    # F_2^19 passes the point and direction caps, but its level masks would
    # take about 68 GB; the refusal comes before directions are listed.
    def enumerate_directions(*args):
        raise AssertionError("directions listed before the mask-size check")

    monkeypatch.setattr(search, "enumerate_directions", enumerate_directions)
    start = time.perf_counter()
    code, _, err = run(capsys, ["search", "--field", "2", "--n", "19"])
    assert code == 2
    assert "level masks" in err
    assert time.perf_counter() - start < 0.5


def test_parallel_search_out_of_budget_exits_3(capsys):
    code, out, _ = run(capsys, ["search", "--field", "9", "--n", "2", "--workers", "2",
                                "--budget", "100"])
    assert code == 3
    assert out.startswith("upper bound: ")


def test_search_refuses_too_many_workers(capsys, monkeypatch):
    def refuse(proc):
        raise AssertionError("no process may start")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    for workers in (search.MAX_WORKERS + 1, 100_000):
        code, out, err = run(capsys, ["search", "--field", "7", "--n", "2",
                                      "--workers", str(workers)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: workers must be in [1, {search.MAX_WORKERS}]")


def test_search_heuristic_only(capsys):
    code, out, _ = run(capsys, [
        "search", "--field", "3", "--n", "2", "--heuristic-only",
        "--restarts", "8", "--seed", "2", "--format", "json",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["min_size"] >= 7
    assert obj["proof_of_optimality"] is False


def test_search_no_normalize(capsys):
    code, out, _ = run(capsys, [
        "search", "--field", "2", "--n", "2", "--no-normalize", "--format", "json",
    ])
    assert code == 0
    assert json.loads(out)["min_size"] == 3


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "bounds.csv"
    code, out, _ = run(capsys, [
        "bound", "--q", "2", "--n", "2..3", "--format", "csv", "--output", str(target),
    ])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("q,n,numerator")


def test_size_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KAKEYA_SIZE_CAP", "8")
    code, _, err = run(capsys, ["directions", "--field", "3", "--n", "3"])
    assert code == 2
    assert "cap" in err


def test_selftest_runs_clean(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) >= 15
    assert all(ln.startswith("ok") for ln in lines)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bound"])  # missing required arguments
    assert exc.value.code == 2

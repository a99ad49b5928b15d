import csv
import io
import json
import multiprocessing
import sys
import time
from pathlib import Path

import pytest

from kakeya import cli, core, search
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


def test_bound_json_adds_the_planar_bound_at_n_2(capsys):
    code, out, _ = run(capsys, ["bound", "--q", "3", "--n", "2..3", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    plane, space = obj["rows"]
    assert plane == {"q": 3, "n": 2, "numerator": 6, "denominator": 1, "decimal": "6",
                     "ceiling": 6, "planar_numerator": 6, "planar_denominator": 1}
    assert (space["n"], space["numerator"], space["denominator"]) == (3, 117, 5)
    assert "planar_numerator" not in space


@pytest.mark.parametrize("q", ["5..2", "x", "2..y"])
def test_bound_rejects_bad_ranges(capsys, q):
    code, out, err = run(capsys, ["bound", "--q", q, "--n", "2"])
    assert code == 2
    assert out == ""
    assert err == (f"error: empty range {q!r}\n" if q == "5..2"
                   else f"error: cannot parse range {q!r}\n")


def test_bound_refuses_a_field_above_the_size_cap_before_factoring(capsys, monkeypatch):
    def refuse(q):
        raise AssertionError("factor_prime_power called")

    monkeypatch.setattr(cli, "factor_prime_power", refuse)
    monkeypatch.delenv("KAKEYA_SIZE_CAP", raising=False)
    q = "99999999999999999989"  # prime; its trial division would not end
    code, out, err = run(capsys, ["bound", "--q", q, "--n", "2"])
    assert (code, out) == (2, "")
    assert err == f"error: field order {q} exceeds size cap 1048576\n"


@pytest.mark.parametrize("option", ["--q", "--n"])
def test_bound_refuses_a_range_above_the_enumeration_cap_at_once(capsys, option):
    # 2,000,000 values, which would take far longer than a second to list
    # and evaluate
    ranges = {"--q": "2", "--n": "2", option: "2..2000001"}
    start = time.process_time()
    code, out, err = run(capsys, ["bound", "--q", ranges["--q"], "--n", ranges["--n"]])
    assert time.process_time() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: range '2..2000001' has more than 1000000 values\n"


@pytest.fixture
def digits_4300():
    """Python's default limit of 4,300 digits on int-to-str conversion."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_bound_refuses_a_built_bound_past_the_digit_limit(capsys, digits_4300):
    # q^n has at least 13,300 bits, too few to refuse up front; the built
    # numerator has more than 4,300 digits
    code, out, err = run(capsys, ["bound", "--q", "1048573", "--n", "700"])
    assert (code, out) == (2, "")
    assert err == ("error: q=1048573 n=700: the bound has more than 4300 digits, the most"
                   " this process converts to text (PYTHONINTMAXSTRDIGITS raises it)\n")


def test_bound_refuses_past_the_digit_limit_before_building_it(capsys, monkeypatch, digits_4300):
    def refuse(q, n):
        raise AssertionError("bound built")

    monkeypatch.setattr(cli, "kakeya_lower_bound", refuse)
    code, out, err = run(capsys, ["bound", "--q", "2", "--n", "1000000"])
    assert (code, out) == (2, "")
    assert err == ("error: q=2 n=1000000: the bound has more than 4300 digits, the most"
                   " this process converts to text (PYTHONINTMAXSTRDIGITS raises it)\n")
    # the grid's largest q and n are checked before any bound of the grid
    code, _, err = run(capsys, ["bound", "--q", "2..3", "--n", "2..1000000"])
    assert code == 2 and err.startswith("error: q=3 n=1000000: the bound has more than")


def test_bound_prints_a_bound_within_the_digit_limit(capsys, digits_4300):
    code, out, _ = run(capsys, ["bound", "--q", "2", "--n", "7200", "--format", "json"])
    assert code == 0
    (row,) = json.loads(out)["rows"]
    # (2^14400 - 2^7200) / 2^7200 = 2^7200 - 1
    assert (row["numerator"], row["denominator"]) == (2**7200 - 1, 1)
    assert len(str(row["numerator"])) == 2168


def test_directions_csv_and_text(capsys):
    code, out, _ = run(capsys, ["directions", "--field", "3", "--n", "2", "--format", "csv"])
    assert code == 0
    assert out == "index,normal\n0,1 0\n1,0 1\n2,1 1\n3,1 2\n"
    code, out, _ = run(capsys, ["directions", "--field", "3", "--n", "2"])
    assert code == 0
    assert out == "4 directions in F_3^2\n0: (1, 0)\n1: (0, 1)\n2: (1, 1)\n3: (1, 2)\n"


@pytest.mark.parametrize("argv", [["directions"], ["construct", "--seed", "1"], ["search"]])
def test_dimension_below_1_is_refused(capsys, argv):
    code, out, err = run(capsys, [*argv, "--field", "2", "--n", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: --n must be a positive integer\n"


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


@pytest.mark.parametrize("levels,pos,entry", [
    ("\u0661,0,0", 0, "\u0661"),  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
    ("1_0,0,0", 0, "1_0"),  # which int() reads as 10
    ("1,0,0,", 3, ""),
    ("0,,1", 1, ""),
    ("", 0, ""),
    ("0, 1,0", 1, " 1"),
    ("0,+1,0", 1, "+1"),
    ("0,-1,0", 1, "-1"),
    ("0,1.0,0", 1, "1.0"),
    ("0,0x1,0", 1, "0x1"),
])
def test_construct_levels_take_only_ascii_decimal_integers(capsys, levels, pos, entry):
    code, out, err = run(capsys, ["construct", "--field", "2", "--n", "2", "--levels", levels])
    assert (code, out) == (2, "")
    assert err == f"error: --levels entry #{pos} {entry!r} is not a decimal integer\n"


def test_construct_levels_in_decimal_are_read_as_before(capsys):
    f = make_field(3, 1)
    code, out, _ = run(capsys, ["construct", "--field", "3", "--n", "2", "--levels", "00,1,02,1"])
    assert code == 0
    assert out == core.point_set_text(f, core.build_union(f, 2, core.OffsetAssignment((0, 1, 2, 1))))
    code, _, err = run(capsys, ["construct", "--field", "3", "--n", "2", "--levels", "0,1,3,1"])
    assert code == 2
    assert err == "error: level 3 out of range for F_3\n"


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


def test_verify_text_names_the_subspace_without_a_full_coset(tmp_path, capsys):
    # no line of F_2^3 in the direction of subspace #3 lies in {0, 2, 3, 6}
    path = tmp_path / "set.json"
    write_point_set(path, make_field(2, 1), PointSet.from_indices(2, 3, [0, 2, 3, 6]))
    code, out, _ = run(capsys, ["verify", str(path), "--plane-dim", "1"])
    assert code == 1
    assert out == "NOT KAKEYA\nno full coset for subspace #3\n"


def test_verify_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 2, "p": 2, "k": 1, "n": 2, "bits_hex": "123"}))
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "hex" in err


# a JSON value that is not an object, and one nested too deep to decode
@pytest.mark.parametrize("text", ["5", "null", "true", "[" * 200_000],
                         ids=["int", "null", "bool", "deep"])
def test_verify_and_stats_refuse_files_they_cannot_read(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    set_path = tmp_path / "set.json"
    wit_path = tmp_path / "wit.json"
    code, _, _ = run(capsys, ["construct", "--field", "2", "--n", "2", "--seed", "1",
                              "--output", str(set_path), "--witness-out", str(wit_path)])
    assert code == 0
    for argv in (["verify", str(bad)],
                 ["stats", str(bad), "--witness", str(wit_path)],
                 ["stats", str(set_path), "--witness", str(bad)]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


# an empty file, text that is not JSON, and bytes that are not UTF-8
@pytest.mark.parametrize("data", [b"", b"{oops", b"\xff\xfe[]"],
                         ids=["empty", "malformed", "not-utf-8"])
def test_unreadable_json_errors_name_the_file(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    set_path = tmp_path / "set.json"
    wit_path = tmp_path / "wit.json"
    code, _, _ = run(capsys, ["construct", "--field", "2", "--n", "2", "--seed", "1",
                              "--output", str(set_path), "--witness-out", str(wit_path)])
    assert code == 0
    for argv in (["verify", str(bad)],
                 ["stats", str(bad), "--witness", str(wit_path)],
                 ["stats", str(set_path), "--witness", str(bad)]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err


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


def test_search_deeper_than_the_recursion_limit_exits_0_with_a_proof(capsys):
    # the canonical-witness pass goes one level down per direction: 1,023 here
    code, out, _ = run(capsys, ["search", "--field", "2", "--n", "10", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["min_size"], obj["proof_of_optimality"]) == (1023, True)
    assert len(obj["witness"]) == 1023 > sys.getrecursionlimit()


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


def test_search_refuses_oversized_count_tables(capsys, monkeypatch):
    # (9,2): 7,290 bits of level masks plus 58,320 bits of counts (81 points,
    # 90 one-byte lanes each); (8,2): 4,608 plus 36,864 bits
    monkeypatch.setattr(core, "MASK_BITS_CAP", 50_000)
    seeded = []
    greedy = search.greedy_upper_bound

    def recording_greedy(*args, **kwargs):
        seeded.append(args[:2])
        return greedy(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("no node may be visited")

    monkeypatch.setattr(search, "greedy_upper_bound", recording_greedy)
    monkeypatch.setattr(search, "_Searcher", refuse)
    code, out, err = run(capsys, ["search", "--field", "9", "--n", "2"])
    assert code == 2
    assert out == ""
    assert "uncovered-point counts for q=9, n=2 need 8201 bytes" in err
    assert "above the cap of 6250 (core.MASK_BITS_CAP)" in err
    assert not seeded  # refused before the greedy seed
    # (8,2) closes on its greedy bound and its counts fit
    code, out, _ = run(capsys, ["search", "--field", "8", "--n", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["min_size"], obj["proof_of_optimality"]) == (36, True)


def test_search_refuses_31_3_before_building_masks(capsys):
    # 1.95 GB of masks and counts; the refusal comes from (q, n) alone
    start = time.perf_counter()
    code, out, err = run(capsys, ["search", "--field", "31", "--n", "3"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "uncovered-point counts for q=31, n=3 need 1948744750 bytes" in err


@pytest.mark.parametrize("spec", ["2^100000", "1000000000000000003", "1000000000000000003^1"])
def test_oversized_fields_refused_before_slow_work(capsys, spec):
    # 2^100000 has over 4,300 digits; the prime 10^18 + 3 would take
    # trial division up to 10^9
    start = time.perf_counter()
    code, out, err = run(capsys, ["directions", "--field", spec, "--n", "2"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert f"field order {spec} exceeds size cap" in err


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


def test_heuristic_search_refuses_oversized_masks_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["search", "--field", "2", "--n", "16", "--heuristic-only"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: level masks for q=2, n=16 need 1073725440 bytes,"
                   " above the cap of 536870912\n")


def test_search_no_normalize(capsys):
    # the axis directions are always fixed, so the switch is gone
    with pytest.raises(SystemExit) as exc:
        main(["search", "--field", "2", "--n", "2", "--no-normalize"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-normalize" in capsys.readouterr().err


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
    assert out.splitlines() == [f"ok   {label}" for label, _ in cli._selftest_checks()]


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    def broken():
        raise AssertionError("broken on purpose")

    monkeypatch.setattr(cli, "_selftest_checks", lambda: [("fine", lambda: None), ("bad", broken)])
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert out == "ok   fine\nFAIL bad: broken on purpose\n"


def test_calls_sharing_one_parser_match_fresh_parsers(tmp_path, capsys):
    """No option of one call leaks into the next: a run of calls with
    different subcommands and options prints what fresh parsers print."""
    pset, witness, report = (str(tmp_path / name) for name in ("set", "witness", "report"))
    calls = [
        ["construct", "--field", "3", "--n", "3", "--seed", "1", "--output", pset,
         "--witness-out", witness],
        ["verify", pset, "--plane-dim", "1"],
        ["verify", pset],
        ["verify", pset, "--format", "json", "--output", report],
        ["verify", pset],
        ["stats", pset, "--witness", witness, "--format", "csv"],
        ["stats", pset, "--witness", witness],
        ["search", "--field", "3", "--n", "2", "--heuristic-only", "--restarts", "2"],
        ["search", "--field", "3", "--n", "2"],
    ]

    def outcomes(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            got.append(run(capsys, argv))
        return got + [Path(report).read_text()]

    shared = outcomes(False)
    assert outcomes(True) == shared
    assert "coset representatives" in shared[1][1] and "witness levels" in shared[2][1]
    assert shared[3][1] == "" and shared[4][1].startswith("KAKEYA\n")
    assert shared[7][1].startswith("upper bound") and shared[8][1].startswith("exact minimum")


def test_build_parser_runs_once_per_process(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    for argv in (["bound", "--q", "2", "--n", "2"], ["directions", "--field", "2", "--n", "2"],
                 ["bound", "--q", "3", "--n", "2", "--format", "json"]):
        assert run(capsys, argv)[0] == 0
    assert len(built) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bound"])  # missing required arguments
    assert exc.value.code == 2

"""Every subcommand in every --format, to stdout and to --output, compared
byte for byte with the outputs kept in cli_golden.json.

The inputs are the fixed files in INPUTS.  After a deliberate change of
output, refresh the expected outputs with
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kakeya.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
INPUTS = {
    # F_3^2: the union of levels (0, 1, 2, 0), and it less point 8, which
    # leaves direction #3 without a full line
    "accept.json": '{"q": 3, "p": 3, "k": 1, "n": 2, "bits_hex": "17d"}',
    "reject.json": '{"q": 3, "p": 3, "k": 1, "n": 2, "bits_hex": "07d"}',
    "witness.json": '{"q": 3, "n": 2, "levels": [0, 1, 2, 0]}',
    # F_2^3 less the origin holds a line in every direction; the second set
    # has none in the direction of subspace #3
    "lines.json": '{"q": 2, "p": 2, "k": 1, "n": 3, "bits_hex": "fe"}',
    "no_lines.json": '{"q": 2, "p": 2, "k": 1, "n": 3, "bits_hex": "4d"}',
}
CASES = {
    "bound": ["bound", "--q", "2..5", "--n", "2..3"],
    "directions": ["directions", "--field", "2^2", "--n", "2"],
    "verify-accept": ["verify", "{dir}/accept.json"],
    "verify-reject": ["verify", "{dir}/reject.json"],
    "verify-kplane-accept": ["verify", "{dir}/lines.json", "--plane-dim", "1"],
    "verify-kplane-reject": ["verify", "{dir}/no_lines.json", "--plane-dim", "1"],
    "construct-seed": ["construct", "--field", "3", "--n", "2", "--seed", "5"],
    "construct-levels": ["construct", "--field", "2", "--n", "3", "--levels", "0,1,0,1,1,0,1",
                         "--points", "--witness-out", "{dir}/witness_out.json"],
    # two-digit coordinates in the points list
    "construct-points": ["construct", "--field", "11", "--n", "2", "--seed", "1", "--points",
                         "--witness-out", "{dir}/witness_out.json"],
    "stats": ["stats", "{dir}/accept.json", "--witness", "{dir}/witness.json"],
    "search-plane": ["search", "--field", "5", "--n", "2"],
    # even planes proven on the tangent seed; the greedy's 612 misses (32,2)'s 528
    "search-plane-8": ["search", "--field", "8", "--n", "2"],
    "search-plane-32": ["search", "--field", "32", "--n", "2"],
    "search-space": ["search", "--field", "2", "--n", "3"],
    "search-heuristic": ["search", "--field", "4", "--n", "2", "--heuristic-only",
                         "--restarts", "4", "--seed", "3"],
}
FORMATS = ["text", "json", "csv"]


def _outcome(workdir: Path, case: str, fmt: str, to_file: bool) -> dict:
    """Exit code, stdout, stderr and the files a run leaves besides its inputs."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text + "\n")
    argv = [arg.format(dir=workdir) for arg in CASES[case]] + ["--format", fmt]
    if to_file:
        argv += ["--output", str(workdir / "out.txt")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir()) if p.name not in INPUTS}
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(tmp_path, case, fmt):
    want = json.loads(GOLDEN.read_text())[f"{case} {fmt}"]
    (tmp_path / "stdout").mkdir()
    (tmp_path / "file").mkdir()
    assert _outcome(tmp_path / "stdout", case, fmt, False) == want
    assert _outcome(tmp_path / "file", case, fmt, True) == {
        **want, "stdout": "", "files": {**want["files"], "out.txt": want["stdout"]}}


if __name__ == "__main__":
    import tempfile

    golden = {}
    for case in CASES:
        for fmt in FORMATS:
            with tempfile.TemporaryDirectory() as workdir:
                golden[f"{case} {fmt}"] = _outcome(Path(workdir), case, fmt, False)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

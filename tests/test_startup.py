"""Cold starts, each in a fresh interpreter: a command imports only what it
runs, so only `search` loads the search engine and only `--format csv`
loads csv.  These run in a subprocess because conftest.py itself imports
multiprocessing."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each command in turn and prints, after each stage, which of the
# modules that only some commands need have been loaded.
COLD_START = """
import json, sys
from kakeya import cli

WATCHED = ("csv", "kakeya.search", "multiprocessing")


def loaded():
    return [m for m in WATCHED if m in sys.modules]


def run(*argv):
    code = cli.main(list(argv))
    assert code == 0, (argv, code)


seen = {"import": loaded()}
run("bound", "--q", "2..3", "--n", "2", "--output", "bound.txt")
run("directions", "--field", "3", "--n", "2", "--output", "directions.txt")
run("construct", "--field", "3", "--n", "2", "--seed", "1", "--output", "set.json",
    "--witness-out", "wit.json")
run("verify", "set.json", "--output", "verify.txt")
run("stats", "set.json", "--witness", "wit.json", "--output", "stats.txt")
seen["text commands"] = loaded()
run("search", "--field", "3", "--n", "2", "--output", "search.txt")
seen["search"] = loaded()
run("bound", "--q", "2", "--n", "2", "--format", "csv", "--output", "bound.csv")
seen["csv"] = loaded()
print(json.dumps(seen))
"""

STAR_IMPORT = """
import kakeya
names = {}
exec("from kakeya import *", names)
missing = [name for name in kakeya.__all__ if name not in names]
assert not missing, missing
assert kakeya.minimal_kakeya_exact is kakeya.search.minimal_kakeya_exact
assert kakeya.SearchResult is kakeya.search.SearchResult
print("ok")
"""


def _python(args, cwd):
    """Run the interpreter of this test on args with the package's sources
    first on its path; return its stdout, and fail on a nonzero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_search_loads_the_search_engine(tmp_path):
    seen = json.loads(_python(["-c", COLD_START], tmp_path))
    assert seen == {
        "import": [],
        "text commands": [],
        "search": ["kakeya.search"],
        "csv": ["csv", "kakeya.search"],
    }


def test_star_import_binds_every_export(tmp_path):
    assert _python(["-c", STAR_IMPORT], tmp_path) == "ok\n"


def test_parallel_search_from_a_cold_start(tmp_path):
    argv = ["-m", "kakeya.cli", "search", "--field", "5", "--n", "2", "--workers"]
    serial = _python(argv + ["1"], tmp_path)
    assert serial.startswith("exact minimum: 17")
    assert _python(argv + ["2"], tmp_path) == serial

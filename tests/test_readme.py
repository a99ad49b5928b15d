"""The README's library example runs against the package's exports and
prints what its comments claim."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys):
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "# min_size 7, proof_of_optimality True" in code
    assert "# 6, 7" in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    result = namespace["result"]
    assert (result.min_size, result.proof_of_optimality) == (7, True)
    assert capsys.readouterr().out == "6 7\n"

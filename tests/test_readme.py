"""README's library example runs as written, so it cannot name a removed function."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_example_runs(capsys):
    (block,) = python_blocks()
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    # the Hadamard's |+> on its two patterns, at their row-major indices
    assert out.splitlines()[-1] == "[(1, 0.7071067811865475, 0.0), (4, 0.7071067811865475, 0.0)]"

"""README's library example runs as written, so it cannot name a removed function."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_example_runs(capsys):
    (block,) = python_blocks()
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out

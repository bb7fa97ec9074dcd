"""The README library example runs and prints what its comment lines show."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comment_lines(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    exec(block, {})
    assert expected and capsys.readouterr().out.splitlines() == expected

"""The README's Quick example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs():
    [block] = re.findall(r"Quick example:\n\n```python\n(.*?)```",
                         README.read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})

"""The README's Quick example and command-line block run as documented."""

import re
import shlex
from pathlib import Path

from doubleshuffle.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs():
    [block] = re.findall(r"Quick example:\n\n```python\n(.*?)```",
                         README.read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_command_line_block_runs(capsys):
    commands = [shlex.split(line, comments=True)
                for block in re.findall(r"```sh\n(.*?)```",
                                        README.read_text(), re.S)
                for line in block.splitlines()
                if line.startswith("doubleshuffle ")]
    assert "express" in [argv[1] for argv in commands]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if argv[1] == "express":
            assert out.split()[-1] == "-116"

"""The README's CLI examples run as written: each ``ising-density`` line of
its CLI block, in order, in one directory, exits 0."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from ising_density.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```bash\n(.*?)^```", text, re.S | re.M)
    assert block is not None, "README has no bash block under '## CLI'"
    return [line for line in block[1].splitlines() if line.startswith("ising-density ")]


def test_every_cli_example_of_the_readme_exits_0(tmp_path, monkeypatch):
    examples = cli_examples()
    assert len(examples) >= 10
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for line in examples:
        result = runner.invoke(main, shlex.split(line)[1:])
        assert result.exit_code == 0, (line, result.output)

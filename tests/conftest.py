"""Shared fixtures."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import ising_density

# Runs ``python -m ising_density ARGS`` and, at exit, writes the names of
# the loaded modules to the file named by the first argument.
_CLI_SCRIPT = """\
import atexit, json, runpy, sys
modules_file = sys.argv[1]
atexit.register(lambda: json.dump(sorted(sys.modules), open(modules_file, "w")))
sys.argv = ["ising-density", *sys.argv[2:]]
runpy.run_module("ising_density", run_name="__main__", alter_sys=True)
"""


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    modules: frozenset[str]


@pytest.fixture
def run_cli(tmp_path):
    """Run the CLI with the given arguments in a fresh interpreter that
    imports this package from the same root as the test process; return
    its exit code, output and the modules it had loaded at exit."""
    package_root = str(Path(ising_density.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    modules_file = tmp_path / "modules.json"

    def run(*args: str, cwd: Path = tmp_path) -> CliRun:
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_SCRIPT, str(modules_file), *args],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        modules = frozenset(json.loads(modules_file.read_text()))
        return CliRun(proc.returncode, proc.stdout, proc.stderr, modules)

    return run

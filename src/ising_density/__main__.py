"""Run the command-line interface as ``python -m ising_density``."""

from .cli import main

main(prog_name="ising-density")

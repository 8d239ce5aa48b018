"""Run the ising-density CLI from the source tree, optionally traced.

Usage:
    python bench/launch.py [--spans FILE] <ising-density arguments...>

The package is imported from ``src/`` next to this directory, so neither an
installed package nor the ``ising-density`` console script is needed.  With
``--spans FILE`` the calls between the package's modules are timed from
outside the package (see ``tracer.py``) and written to FILE as JSON when the
process exits.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> None:
    argv = sys.argv[1:]
    sys.path.insert(0, SRC)
    if argv[:1] == ["--spans"]:
        import tracer

        tracer.run(argv[1], argv[2:])
        return
    from ising_density.cli import main as cli_main

    cli_main(args=argv, prog_name="ising-density")


if __name__ == "__main__":
    main()

"""Run the command-line front end: ``python -m pbpsolve <subcommand> ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""The command line as a module: ``python -m hilbfock ...`` runs cli.main."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

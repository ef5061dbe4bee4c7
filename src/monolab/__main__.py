"""``python -m monolab`` runs the scenario CLI (see ``monolab.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

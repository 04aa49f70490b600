"""``python -m branchlab``: the ``branchlab`` command line of ``branchlab.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

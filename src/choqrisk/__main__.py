"""``python -m choqrisk``: the same command line as the ``choqrisk`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

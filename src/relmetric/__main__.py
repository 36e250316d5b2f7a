"""``python -m relmetric``: the same command as ``relmetric``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

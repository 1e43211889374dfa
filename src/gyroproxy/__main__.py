"""Entry point for ``python -m gyroproxy``; the same CLI as the ``gyroproxy`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

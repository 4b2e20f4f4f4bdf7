"""``python -m pavcore``: the command-line interface of `pavcore.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

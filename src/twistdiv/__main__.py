"""``python -m twistdiv``: the ``twistdiv`` command line, which also runs
from a source checkout that is not installed (``PYTHONPATH=src``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

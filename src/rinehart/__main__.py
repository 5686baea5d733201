"""``python -m rinehart``: the ``rinehart`` command line."""

import sys

from .cli import main

sys.exit(main())

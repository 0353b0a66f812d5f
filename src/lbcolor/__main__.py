"""``python -m lbcolor``: the command-line interface of ``lbcolor.cli``."""

import sys

from .cli import main

sys.exit(main())

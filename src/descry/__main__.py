"""`python -m descry <command>`: the same entry point as the `descry` script."""

import sys

from .cli import main

sys.exit(main())

"""``python -m crossscene``: the command-line front end, installed or not."""

import sys

from .cli import main

sys.exit(main())

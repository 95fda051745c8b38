"""``python -m geoladders``: the experiment CLI, as the installed
``geoladders`` command runs it."""

import sys

from .cli import main

sys.exit(main())

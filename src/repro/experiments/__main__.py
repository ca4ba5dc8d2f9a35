"""``python -m repro.experiments`` — the ``repro-experiments`` figure CLI."""

import sys

from repro.orchestrate.cli import main

sys.exit(main())

"""Experiment runners: one module per figure of the paper's evaluation.

Every figure panel of Section 4.3 has a runner that regenerates it:

====================  =======================================  ================
Figure                What it shows                            Runner
====================  =======================================  ================
1(a) / 1(b)           hits & messages per hour, TTL 2          :mod:`.figure1`
2(a) / 2(b)           hits & messages per hour, TTL 4          :mod:`.figure2`
3(a)                  first-result delay vs TTL 1-4            :mod:`.figure3a`
3(b)                  total hits vs reconfiguration threshold  :mod:`.figure3b`
====================  =======================================  ================

Run from the command line::

    python -m repro.experiments fig1 --preset scaled --seed 0

Presets (see :mod:`.common`): ``paper`` is the full Section 4.2 scale,
``scaled`` preserves the figures' shapes at laptop runtimes, ``smoke`` is for
tests.
"""

from repro.experiments import figure1, figure2, figure3a, figure3b
from repro.experiments.common import PRESETS, preset_config

__all__ = [
    "PRESETS",
    "figure1",
    "figure2",
    "figure3a",
    "figure3b",
    "preset_config",
]

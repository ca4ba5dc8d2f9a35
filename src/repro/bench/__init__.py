"""Measurement helpers shared by the repo benchmark (``benchmarks/e2e``).

* :mod:`repro.bench.host` — which machine produced a measurement;
* :mod:`repro.bench.scale` — the large-population tier configurations and
  ``python -m repro.bench.scale``, which prints the README's scale table.

Unlike everything under the deterministic simulation packages, this package
may read wall clocks; it exists to measure them.
"""

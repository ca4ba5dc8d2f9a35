"""The repo benchmark: four workloads, three gated end-to-end metrics, layer spans.

``python3 benchmarks/e2e/run.py`` (or ``python -m benchmarks.e2e``) is the one
command; ``README.md`` beside this file says what each workload is for, how
each number is estimated and what is deliberately left out.
"""

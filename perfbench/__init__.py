"""Benchmark of the mrfrecon pipeline.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root. ``workload`` defines the workloads, operations and
output checks; ``trace`` wraps the package's public functions for the traced
run that yields the per-layer metrics. See ``perfbench/README.md``.
"""

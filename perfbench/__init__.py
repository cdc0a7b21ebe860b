"""End-to-end benchmark of the simulator: four workloads run through the
program's public entry points, their outputs checked, and an optional
traced pass that splits the wall time across layers.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md``.
"""

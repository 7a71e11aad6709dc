"""End-to-end and per-layer benchmark of the repro test planner.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` maps
each workload's metrics to the layers that should move them.
"""

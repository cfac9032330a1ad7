"""The delpezzo benchmark: seeded workloads, output oracles and tracing.

Run ``python3 bench/run.py --help`` from the repository root.
"""

"""Benchmark of defosc: seeded workloads, output oracle and per-module tracing.

Run it from the root of a checkout with ``python3 bench/run.py --help``.
"""

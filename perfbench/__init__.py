"""Benchmark harness for tourcraft: workloads, tracing and checks.

`python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1`
runs one workload; see README.md in this directory.
"""

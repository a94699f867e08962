"""Benchmark for stepcheck: model text to verdict, end to end and by module.

Run everything with ``python3 -m bench --workload NAME --seed N``; see
``bench/README.md``.
"""

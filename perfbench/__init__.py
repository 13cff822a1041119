"""Benchmark of time-to-solution and served latency (see run.py)."""

"""Benchmark of the tailbayes package; see run.py."""

"""Benchmark harness for the gjg package; the entry point is perfbench/run.py."""

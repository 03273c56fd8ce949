"""Benchmark harness for qlocc: workloads, tracing and order statistics."""

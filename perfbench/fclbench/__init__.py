"""Benchmark harness for fcl: workloads, oracles, tracing and metrics."""

"""Benchmark harness, workloads and tracing for nomacell (see ../README.md)."""

"""Benchmark of coexsim: timed workloads, output checks and a per-layer trace."""

"""Host-time benchmark of the ``repro`` library (see ``hostbench/README.md``).

The package measures what a run of the simulator costs *us* — host
seconds and host memory — on four workloads that drive ``repro`` only
through its public functions.  ``python3 -m hostbench`` is the one
entry point; ``BENCHMARK.json`` at the repository root is its contract.
"""

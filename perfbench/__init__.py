"""The repository's benchmark: three fixed workloads, one command.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in fresh processes and prints one
JSON result line (see :mod:`perfbench.run` and ``README.md``).  The
workloads and their request lists live in :mod:`perfbench.workloads`,
the measured process in :mod:`perfbench.child`, the query server's
boot in :mod:`perfbench.serve_host` and the per-layer ledger of the
traced run in :mod:`perfbench.ledger`.  ``python3 -m pytest perfbench``
runs the benchmark's self-tests.
"""

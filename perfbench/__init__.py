"""Campaign benchmark for the reproduction (see ``perfbench/README.md``).

``python -m perfbench run`` measures the end-to-end metrics of four
workloads, each in a fresh child process with tracing off;
``python -m perfbench trace`` is the separate traced run that yields the
per-layer metrics.  The package treats :mod:`repro` as a library: it
times calls into public functions and adds no instrumentation to it.

Importing this package (or any of its modules except ``workloads``,
``gate``, ``spans`` and ``probes``, which the child loads) must stay
cheap and side-effect free: supervised campaign workers are spawned
processes that re-import the child's main module.
"""

"""The repository benchmark: Scalla workloads driven through ``ScallaCluster``.

``perfbench/run.py`` is the command-line entry point; this package holds
the pieces it is built from:

* :mod:`.inputs` — seeded generators for every workload input;
* :mod:`.stats` — the percentile helper and metric assembly;
* :mod:`.layers` — always-on counter collection and the traced run's
  self-time wrappers;
* :mod:`.workloads` — the three workloads and the run loop.
"""

"""repro — a reproduction of *Scalla: Structured Cluster Architecture for
Low Latency Access* (Hanushevsky & Wang, 2012).

Layers:

* :mod:`repro.core` — the paper's primary contribution: the cmsd name cache
  (bit-vector location objects, CRC32 + Fibonacci hash table, sliding-window
  eviction, O(1) accuracy corrections, fast response queue, deadline
  synchronization, replica selection).
* :mod:`repro.sim` — a from-scratch deterministic discrete-event simulator
  (processes, network, latency models, failures, measurement).
* :mod:`repro.cluster` — the simulated Scalla deployment: xrootd + cmsd
  nodes in a 64-ary tree, redirection-following clients, MSS staging, cnsd.
* :mod:`repro.baselines` — the designs the paper argues against, made
  measurable (GFS-style master, AFS volume DB, power-of-two tables,
  always-respond protocol, eager re-chaining).
* :mod:`repro.qserv` — the LSST Qserv distributed-dispatch application of
  §IV-B, built purely on the file abstraction.
* :mod:`repro.workloads` — HEP-shaped names, Zipf popularity, analysis jobs.

Quickstart::

    from repro.cluster import ScallaCluster, ScallaConfig

    cluster = ScallaCluster(64, config=ScallaConfig(seed=1))
    cluster.populate([f"/store/run1/f{i}.root" for i in range(100)])
    cluster.settle()
    data = cluster.run_process(cluster.client().fetch("/store/run1/f0.root"))
"""

from repro.core import NameCache
from repro.cluster import ScallaClient, ScallaCluster, ScallaConfig

__version__ = "1.0.0"

__all__ = ["NameCache", "ScallaCluster", "ScallaConfig", "ScallaClient", "__version__"]

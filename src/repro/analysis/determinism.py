"""The determinism harness: run the same workload twice, diff everything.

The simulation kernel promises bit-identical runs for identical seeds — no
wall clock, no global RNG, no hash-order-dependent iteration (the lint
rules SIM001-SIM003 police the code side of that promise).  This module
checks the promise end to end: it builds a cluster, drives an E1-style
locate workload (hits, misses, a membership disconnect, enough sim time
for eviction ticks and queue expiries) and a short data-plane phase
(fetches, a create and write, stats and a staged open), freezes the full
observability snapshot — every metric series and every resolution
trace, all stamped with sim time — and compares two runs field by field.

Any divergence means nondeterminism leaked in somewhere, and the diff
pinpoints the first diverging metric or trace event.

Used four ways:

* ``python -m repro.analysis.determinism`` — CI's ``determinism`` job and
  ``scripts/check.sh``; exit 0 on identical runs, 1 on divergence;
* :func:`run_workload` / :func:`diff_snapshots` from tests;
* with ``--sanitize`` the second run sweeps SimSan, doubling as a check
  that sanitization really is a pure read (identical streams with it on);
* :func:`send_log_record` hashes every message the workload sends, for
  seeds 51, 7 and 1234, with observability on and off (the off run keeps
  silent-leaf copies on the wire).  ``scripts/smoke_bench.sh`` commits
  the digests as ``benchmarks/results/send-log.md`` and fails when a
  change moves one message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from typing import Any, Callable

from repro.cluster.client import NoSuchFile
from repro.cluster.scalla import ScallaCluster, ScallaConfig
from repro.obs import export
from repro.sim.latency import Fixed
from repro.sim.network import Network

__all__ = [
    "run_workload",
    "SendLog",
    "send_log_digest",
    "send_log_record",
    "diff_snapshots",
    "main",
]

#: The seeds :func:`send_log_record` covers.
SEND_LOG_SEEDS = (51, 7, 1234)


def run_workload(
    seed: int = 51,
    *,
    n_servers: int = 12,
    fanout: int = 12,
    files: int = 30,
    lookups: int = 60,
    misses: int = 8,
    sanitize: bool = False,
    observability: bool = True,
    on_network: Callable[[Network], None] | None = None,
) -> dict[str, Any]:
    """Run one deterministic locate workload; return its full snapshot
    (without *observability*, only its ``extra`` counts).

    The workload exercises every subsystem whose iteration order could
    leak nondeterminism: cache lookups and adds (hash table), fast
    response queue waits and releases, query flooding over membership
    vectors, a server disconnect mid-run (correction machinery), two
    window ticks (eviction sweep + background removal), and the xrootd's
    request handling: service timers, NIC transfers and MSS staging.
    *on_network* gets the cluster's network before any daemon starts.
    """
    config = ScallaConfig(
        seed=seed,
        fanout=fanout,
        observability=observability,
        sanitize=sanitize,
        lifetime=1200.0,  # tick every 18.75 s: the run crosses several ticks
        stage_latency=Fixed(0.5),
    )
    cluster = ScallaCluster(n_servers, config=config, start=False)
    if on_network is not None:
        on_network(cluster.network)
    cluster.start()
    paths = [f"/store/d{i % 5}/f{i:03d}.root" for i in range(files)]
    cluster.populate(paths)
    cluster.settle()

    rng = random.Random(seed ^ 0xD5)
    client = cluster.client()
    resolved = 0
    notfound = 0
    for i in range(lookups):
        path = rng.choice(paths)
        node, _pending = cluster.run_process(client.locate(path))
        assert node, f"locate returned no node for {path}"
        resolved += 1
        if i == lookups // 2:
            # Membership churn mid-run: silence one server long enough for
            # the liveness sweep to mark it offline, then let it re-login,
            # forcing the lazy-correction path on later fetches.
            victim = cluster.servers[rng.randrange(len(cluster.servers))]
            cluster.nodes[victim].cmsd.stop()
            cluster.run(until=cluster.sim.now + 5.0)
            cluster.nodes[victim].cmsd.start()
            cluster.settle()
    for i in range(misses):
        try:
            cluster.run_process(client.locate(f"/store/nowhere/g{i}.root"))
        except NoSuchFile:
            notfound += 1
    # Data plane: whole-file fetches, a create and write, two stats and one
    # open that stages an archived file in from mass storage.
    for path in rng.sample(paths, 3):
        cluster.run_process(client.fetch(path))
    new = "/store/new/out.root"
    created = cluster.run_process(client.open(new, mode="w", create=True))
    cluster.run_process(client.write(created, 0, bytes(range(256)) * 8))
    cluster.run_process(client.close(created))
    for path in (rng.choice(paths), new):
        cluster.run_process(client.stat(path))
    tape = "/store/tape/t000.root"
    cluster.archive(tape, cluster.servers[rng.randrange(len(cluster.servers))], size=4096)
    cluster.run_process(client.fetch(tape))
    # Cross a few eviction ticks and queue-expiry periods with the cluster
    # otherwise idle, then freeze.
    cluster.run(until=cluster.sim.now + 2.5 * cluster.config.lifetime / 64)
    snap = cluster.obs_snapshot() if observability else {}
    snap["extra"] = {"seed": seed, "resolved": resolved, "notfound": notfound}
    return snap


class SendLog:
    """Hashes every copy a network sends, in send order, one ``(time repr,
    src, dst, repr(payload), size)`` line each: a flood sent as one
    ``Network.send`` call with a tuple of destinations hashes as the same
    copies sent one by one."""

    def __init__(self) -> None:
        self.sends = 0
        self.digest = hashlib.sha256()

    def attach(self, network: Network) -> None:
        """Log every copy *network* sends from now on, then send it."""
        send, sim, update = network.send, network.sim, self.digest.update

        def logged(src, dst, payload, *, size=0):
            for name in dst if dst.__class__ is tuple else (dst,):
                self.sends += 1
                update(f"{sim.now!r}\t{src}\t{name}\t{payload!r}\t{size}\n".encode())
            return send(src, dst, payload, size=size)

        network.send = logged


def send_log_digest(seed: int = 51, *, observability: bool = True, **sizes) -> tuple[int, str]:
    """Run the workload and hash every copy it sends (:class:`SendLog`);
    returns the number of copies and their SHA-256 hex digest."""
    log = SendLog()
    run_workload(seed, observability=observability, on_network=log.attach, **sizes)
    return log.sends, log.digest.hexdigest()


def send_log_record() -> str:
    """The send-log digests of :data:`SEND_LOG_SEEDS`, observability on
    and off, as the text of ``benchmarks/results/send-log.md``."""
    lines = [
        "# Send log: SHA-256 of every Network.send of the determinism workload",
        "",
        "seed  observability  sends  sha256",
    ]
    for seed in SEND_LOG_SEEDS:
        for obs in ("on", "off"):
            sends, digest = send_log_digest(seed, observability=obs == "on")
            lines.append(f"{seed:<4}  {obs:<13}  {sends:<5}  {digest}")
    return "\n".join(lines) + "\n"


def diff_snapshots(a: dict[str, Any], b: dict[str, Any], *, limit: int = 20) -> list[str]:
    """Human-readable differences between two snapshots (empty = identical).

    Compares the canonical JSON renderings line by line, so a diff names
    the exact metric value or trace field that diverged rather than just
    saying "not equal".
    """
    ja, jb = export.to_json(a), export.to_json(b)
    if ja == jb:
        return []
    diffs: list[str] = []
    la, lb = ja.splitlines(), jb.splitlines()
    for i in range(max(len(la), len(lb))):
        left = la[i] if i < len(la) else "<missing>"
        right = lb[i] if i < len(lb) else "<missing>"
        if left != right:
            diffs.append(f"line {i + 1}: {left.strip()!r} != {right.strip()!r}")
            if len(diffs) >= limit:
                diffs.append("... (diff truncated)")
                break
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.determinism",
        description="Run the reference workload twice with one seed and "
        "fail on any event-stream divergence.",
    )
    parser.add_argument("--seed", type=int, default=51)
    parser.add_argument("--runs", type=int, default=2, help="how many runs to compare")
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="enable SimSan on all runs after the first (also proves "
        "sanitization is a pure read)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    reference = run_workload(args.seed)
    all_diffs: list[str] = []
    for run in range(1, args.runs):
        snap = run_workload(args.seed, sanitize=args.sanitize)
        all_diffs.extend(f"run {run + 1}: {d}" for d in diff_snapshots(reference, snap))

    if args.format == "json":
        print(
            json.dumps(
                {
                    "tool": "scalla-determinism",
                    "seed": args.seed,
                    "runs": args.runs,
                    "resolved": reference["extra"]["resolved"],
                    "identical": not all_diffs,
                    "diffs": all_diffs,
                },
                indent=2,
            )
        )
    else:
        if all_diffs:
            for d in all_diffs:
                print(d)
            print(f"determinism: FAILED — {len(all_diffs)} divergence(s) over {args.runs} runs")
        else:
            print(
                f"determinism: OK — {args.runs} runs of seed {args.seed} identical "
                f"({reference['extra']['resolved']} resolutions, "
                f"{len(reference.get('traces', []))} traces)"
            )
    return 1 if all_diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())

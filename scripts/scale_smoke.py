#!/usr/bin/env python
"""Scale smoke: build and settle one large cluster inside a memory budget.

Usage: scale_smoke.py --servers N --max-rss-mb M

Builds ``ScallaCluster(N)`` with default settings, settles it (every
subordinate logs into its parents), checks that every manager and
supervisor has all of its children logged in, and prints one JSON line::

    {"servers": N, "build_s": ..., "settle_s": ..., "peak_rss_mb": ...,
     "kib_per_server": ...}

``peak_rss_mb`` is the process's peak resident set; ``kib_per_server`` is
its growth over the interpreter with the package imported, divided by N.
Exits 1 when a child is missing or the peak exceeds M MiB, so a change that
fattens the per-node state fails CI instead of quietly capping the tree.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--servers", type=int, required=True, help="data servers to build")
    ap.add_argument("--max-rss-mb", type=float, required=True, help="peak RSS budget (MiB)")
    args = ap.parse_args(argv)

    from repro.cluster import ScallaCluster

    base_mb = _peak_rss_mb()
    t0 = time.perf_counter()
    cluster = ScallaCluster(args.servers)
    t1 = time.perf_counter()
    cluster.settle()
    t2 = time.perf_counter()
    peak_mb = _peak_rss_mb()

    missing = []
    for name, spec in cluster.topology.nodes.items():
        cmsd = cluster.nodes[name].cmsd
        if spec.children and len(cmsd.children) != len(spec.children):
            missing.append(f"{name}: {len(cmsd.children)}/{len(spec.children)} children")

    print(
        json.dumps(
            {
                "servers": args.servers,
                "build_s": round(t1 - t0, 2),
                "settle_s": round(t2 - t1, 2),
                "peak_rss_mb": round(peak_mb, 1),
                "kib_per_server": round((peak_mb - base_mb) * 1024 / args.servers, 2),
            }
        )
    )
    for problem in missing[:10]:
        print(f"scale_smoke: not settled: {problem}", file=sys.stderr)
    if missing:
        return 1
    if peak_mb > args.max_rss_mb:
        print(
            f"scale_smoke: peak RSS {peak_mb:.1f} MiB over the {args.max_rss_mb:g} MiB budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

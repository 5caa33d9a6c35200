"""Name-cache microbenchmarks: the fetch path at memory speed.

The paper's central latency argument is that a cmsd answers cached
lookups without leaving memory (§III-A); these scenarios measure our
reproduction's cost per operation on exactly those paths:

* ``lookup_hit``  — warm fetches, no corrections pending (the common case);
* ``insert``      — miss + add, including table growth and window chaining;
* ``correct``     — fetches that must apply Figure-3 corrections through
  the per-window ``V_wc`` memo after membership churn;
* ``live_count``  — the O(1) findable-object count;
* ``tick``        — window-clock advance + background removal with
  observability attached (the sweep-fraction histogram and eviction trace
  annotations; counters and the ``cache_population`` gauge are read at
  snapshot time, not per tick).
"""

from __future__ import annotations

import time

from repro.core.cache import NameCache
from repro.core.corrections import ClusterMembership
from repro.obs import Observability

from perf import best_rate


def _membership(n_servers: int = 16) -> ClusterMembership:
    m = ClusterMembership()
    for i in range(n_servers):
        m.login(f"srv-{i:02d}", ["/store"])
    return m


def _paths(n: int) -> list[str]:
    return [f"/store/d{i % 17}/run{i % 251}/f{i:06d}.root" for i in range(n)]


def run_lookup_hit(n_paths: int = 5_000, n_lookups: int = 60_000) -> float:
    cache = NameCache(_membership(), lifetime=64.0)
    paths = _paths(n_paths)
    for p in paths:
        cache.lookup(p, now=0.0)

    def fetch() -> int:
        n = len(paths)
        for i in range(n_lookups):
            cache.lookup(paths[i % n], now=1.0)
        return n_lookups

    return best_rate(fetch)


def run_insert(n_paths: int = 25_000) -> float:
    paths = _paths(n_paths)

    def insert() -> int:
        cache = NameCache(_membership(), lifetime=64.0)
        for p in paths:
            cache.lookup(p, now=0.0)
        return n_paths

    return best_rate(insert)


def run_correct(n_paths: int = 4_000, rounds: int = 6) -> float:
    """Corrected fetches: each round logs in a server then re-fetches all."""
    paths = _paths(n_paths)

    def correct() -> int:
        cache = NameCache(_membership(), lifetime=64.0)
        for p in paths:
            cache.lookup(p, now=0.0)
        for r in range(rounds):
            cache.membership.login(f"late-{r}", ["/store"])
            for p in paths:
                cache.lookup(p, now=1.0 + r)
        return n_paths * rounds

    return best_rate(correct)


def run_live_count(n_paths: int = 20_000, n_calls: int = 50_000) -> float:
    cache = NameCache(_membership(), lifetime=64.0)
    for p in _paths(n_paths):
        cache.lookup(p, now=0.0)

    def probe() -> int:
        total = 0
        for _ in range(n_calls):
            total += cache.live_count()
        assert total  # keep the loop honest
        return n_calls

    return best_rate(probe)


def run_tick(n_paths: int = 20_000, n_ticks: int = 512) -> float:
    """Window ticks + background removal over a populated, observed cache."""
    obs = Observability()
    paths = _paths(n_paths)

    def ticks() -> int:
        cache = NameCache(_membership(), lifetime=64.0, obs=obs, node="bench")
        for i, p in enumerate(paths):
            cache.lookup(p, now=0.0)
            if i % (n_paths // 32) == 0:
                cache.tick()  # spread objects across windows
        for _ in range(n_ticks):
            cache.tick()
            cache.run_background_removal()
        return n_ticks

    return best_rate(ticks)


def run_suite(*, scale: int = 1, repeats: int = 3) -> dict[str, float]:
    del repeats  # each scenario already does best-of internally
    return {
        "lookup_hit_per_sec": round(run_lookup_hit(5_000, 60_000 // scale), 1),
        "insert_per_sec": round(run_insert(25_000 // scale), 1),
        "correct_per_sec": round(run_correct(4_000 // scale, 6), 1),
        # n_calls is never scaled down: the probe is O(1), and a timed
        # region much under a millisecond just measures timer jitter.
        "live_count_per_sec": round(run_live_count(20_000 // scale, 50_000), 1),
        "tick_per_sec": round(run_tick(20_000 // scale, 512 // scale), 1),
    }

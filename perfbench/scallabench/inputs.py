"""Seeded generators for every workload input.

Everything the cluster sees — file names, replica placement, arrival
gaps, file choices, the op mix, churn waves — comes from here, drawn from
``random.Random`` instances keyed by (workload, seed, replica, round).
The generators are the benchmark's own rather than ``repro.workloads``,
so a change to the library under test cannot silently change the inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random

__all__ = [
    "rng_for",
    "hep_names",
    "name_stream",
    "Zipf",
    "poisson_gaps",
    "job_round",
    "mixed_round",
    "churn_waves",
]

_TIERS = ("raw", "reco", "aod", "ntuple")
_STREAMS = ("AllEvents", "Tau11", "IsrIncExc", "TwoPhoton", "DiLepton")


def rng_for(workload: str, seed: int, *parts) -> random.Random:
    """An RNG for one input stream.

    String seeds hash through SHA-512, so the stream is the same in every
    process whatever ``PYTHONHASHSEED`` says.
    """
    return random.Random("/".join(str(p) for p in (workload, seed, *parts)))


def hep_names(rng: random.Random, count: int, *, experiment: str = "babar") -> list[str]:
    """*count* distinct HEP-style paths sharing long prefixes, e.g.
    ``/store/babar/reco/AllEvents/run003412/evts-0071.root``."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        p = (
            f"/store/{experiment}/{rng.choice(_TIERS)}/{rng.choice(_STREAMS)}"
            f"/run{rng.randrange(5000):06d}/evts-{rng.randrange(10_000):04d}.root"
        )
        if p not in seen:
            seen.add(p)
            names.append(p)
    return names


def name_stream(rng: random.Random, *, experiment: str):
    """Endless distinct paths under ``/store/<experiment>``; the counter
    suffix keeps them unique, the random run number keeps them HEP-shaped."""
    for i in itertools.count():
        yield (
            f"/store/{experiment}/{_TIERS[i % len(_TIERS)]}"
            f"/run{rng.randrange(100_000):06d}/evts-{i:06d}.root"
        )


class Zipf:
    """P(rank k) proportional to 1/k^s over *items*, by inverse-CDF lookup."""

    def __init__(self, items, s: float) -> None:
        self.items = list(items)
        if not self.items:
            raise ValueError("need at least one item")
        self._cum = list(
            itertools.accumulate(1.0 / (k**s) for k in range(1, len(self.items) + 1))
        )

    def choose(self, rng: random.Random):
        idx = bisect.bisect_left(self._cum, rng.random() * self._cum[-1])
        return self.items[min(idx, len(self.items) - 1)]


def poisson_gaps(rng: random.Random, n: int, rate: float) -> list[float]:
    """Inter-arrival gaps of *n* Poisson arrivals at *rate* per second."""
    return [rng.expovariate(rate) for _ in range(n)]


def job_round(
    rng: random.Random, zipf: Zipf, *, jobs: int, rate: float, files: int
) -> list[tuple[float, tuple[str, ...]]]:
    """Analysis jobs: (gap before arrival, the job's input files)."""
    return [
        (gap, tuple(zipf.choose(rng) for _ in range(files)))
        for gap in poisson_gaps(rng, jobs, rate)
    ]


def mixed_round(
    rng: random.Random, *, ops: int, rate: float, mix: tuple[tuple[str, float], ...], pick
) -> list[tuple[float, str, str]]:
    """Single-op arrivals: (gap, op kind, path).

    *mix* is ``((kind, share), ...)``.  Each kind gets exactly its share of
    the *ops* (the last kind takes the rounding remainder) in shuffled
    order, so every seed yields the same sample count per op type.  *pick*
    maps a kind to the path it operates on; it may consume a stream, so it
    is called once per arrival, in arrival order.
    """
    kinds: list[str] = []
    for kind, share in mix[:-1]:
        kinds += [kind] * round(share * ops)
    kinds += [mix[-1][0]] * (ops - len(kinds))
    rng.shuffle(kinds)
    return [
        (gap, kind, pick(kind)) for gap, kind in zip(poisson_gaps(rng, ops, rate), kinds)
    ]


def churn_waves(
    rng: random.Random,
    *,
    window: float,
    servers: list[str],
    supervisors: list[str],
    fraction: float,
    first: tuple[float, float],
    period: tuple[float, float],
    downtime: tuple[float, float],
    supervisor_waves: int = 1,
) -> list[tuple[float, tuple[tuple[str, float], ...]]]:
    """Crash waves inside ``[0, window)``: (gap before the wave, victims).

    The first wave comes *first* seconds in, the rest *period* apart.
    Each wave takes *fraction* of the servers; the first
    *supervisor_waves* waves also take one supervisor.  Each victim
    carries its own downtime before it restarts.
    """
    waves = []
    t = 0.0
    gap = rng.uniform(*first)
    per_wave = max(1, round(fraction * len(servers)))
    while t + gap < window:
        t += gap
        victims = rng.sample(servers, per_wave)
        if supervisors and len(waves) < supervisor_waves:
            victims.append(rng.choice(supervisors))
        waves.append((gap, tuple((v, rng.uniform(*downtime)) for v in victims)))
        gap = rng.uniform(*period)
    return waves

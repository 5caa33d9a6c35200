"""Latency distributions for simulated links and services.

The paper quotes its latencies against specific 2012 hardware (1 Gb
Ethernet, "servers respond within 100us").  The experiments therefore
parameterize every delay through a :class:`LatencyModel`, so a bench can
state "per-hop wire latency 10 µs, server think time 90-110 µs" explicitly
and EXPERIMENTS.md can report the parameterization next to the results.

All models draw from a caller-supplied ``random.Random`` — the simulation
owns the seed, the model owns only the shape.
"""

from __future__ import annotations

import math
import random

__all__ = ["LatencyModel", "Fixed", "Uniform", "LogNormal", "Empirical"]


class LatencyModel:
    """A non-negative delay distribution."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    @property
    def mean(self) -> float:
        """Expected value; used for analytical cross-checks in benches."""
        raise NotImplementedError


class Fixed(LatencyModel):
    """A constant delay — the workhorse for deterministic protocol tests."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError("latency must be non-negative")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        return self.value

    @property
    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Fixed({self.value!r})"


class Uniform(LatencyModel):
    """Uniform on [lo, hi] — crude jitter around a nominal wire latency."""

    def __init__(self, lo: float, hi: float) -> None:
        if not 0 <= lo <= hi:
            raise ValueError("need 0 <= lo <= hi")
        self.lo = lo
        self.hi = hi

    def sample(self, rng: random.Random) -> float:
        # random.Random.uniform's formula, inlined: one Python frame less
        # per draw, and the same float.
        lo = self.lo
        return lo + (self.hi - lo) * rng.random()

    @property
    def mean(self) -> float:
        return (self.lo + self.hi) / 2

    def __repr__(self) -> str:
        return f"Uniform({self.lo!r}, {self.hi!r})"


class LogNormal(LatencyModel):
    """Log-normal with given median and sigma — heavy network tails.

    Real RPC latency is right-skewed; the fast-response-queue experiment
    (E6) uses this to show the 133 ms bound comfortably covers the tail the
    paper describes.
    """

    def __init__(self, median: float, sigma: float) -> None:
        if median <= 0 or sigma < 0:
            raise ValueError("median must be positive, sigma non-negative")
        self.median = median
        self.sigma = sigma
        self._mu = math.log(median)

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self._mu, self.sigma)

    @property
    def mean(self) -> float:
        return math.exp(self._mu + self.sigma**2 / 2)

    def __repr__(self) -> str:
        return f"LogNormal(median={self.median!r}, sigma={self.sigma!r})"


class Empirical(LatencyModel):
    """Resamples a measured list of delays (bootstrap-style)."""

    def __init__(self, samples: list[float]) -> None:
        if not samples:
            raise ValueError("need at least one sample")
        if any(s < 0 for s in samples):
            raise ValueError("latencies must be non-negative")
        self.samples = list(samples)

    def sample(self, rng: random.Random) -> float:
        return rng.choice(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def __repr__(self) -> str:
        return f"Empirical(n={len(self.samples)})"

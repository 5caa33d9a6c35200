"""Discrete-event simulation substrate (built from scratch for this repo).

Provides the deterministic virtual-time world the cluster experiments run
in: a generator-based process kernel with timed callbacks, a mailbox, a
message network with latency models and partitions, failure injection,
and measurement helpers.
"""

from repro.sim.errors import Interrupt, SimError
from repro.sim.failures import (
    FailureEvent,
    FailureInjector,
    random_chaos_schedule,
    random_crash_schedule,
)
from repro.sim.kernel import AllOf, AnyOf, Event, Process, Simulator, Timeout
from repro.sim.latency import Empirical, Fixed, LatencyModel, LogNormal, Uniform
from repro.sim.monitor import Histogram, Summary, TimeSeries
from repro.sim.network import ChaosConfig, Host, Network, NetworkStats
from repro.sim.sync import Store

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimError",
    "Store",
    "Network",
    "Host",
    "NetworkStats",
    "ChaosConfig",
    "LatencyModel",
    "Fixed",
    "Uniform",
    "LogNormal",
    "Empirical",
    "Histogram",
    "TimeSeries",
    "Summary",
    "FailureEvent",
    "FailureInjector",
    "random_crash_schedule",
    "random_chaos_schedule",
]

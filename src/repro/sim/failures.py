"""Failure injection schedules.

Recoverability is one of Scalla's three design objectives, so the
integration tests and churn experiment (E12) drive clusters through scripted
and randomized failure schedules: host crashes (the node's daemons stop,
network delivery stops), restarts, and link partitions.

The injector is deliberately dumb: it executes a schedule against the
network and a callback table.  Deciding *what the cluster should do about
it* (disconnect → drop timers, re-login) belongs to the cluster layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.sim.kernel import Simulator
from repro.sim.network import Network

__all__ = [
    "FailureEvent",
    "FailureInjector",
    "random_crash_schedule",
    "random_chaos_schedule",
]


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled action.

    ``target`` is a host name for the host kinds (``crash``, ``restart``,
    ``isolate``, ``unisolate``) or an ``(a, b)`` host pair for the link
    kinds (``partition``/``heal`` symmetric, ``partition_oneway``/
    ``heal_oneway`` directional: a -> b is severed, b -> a still flows).
    """

    at: float
    kind: str
    target: object

    KINDS = (
        "crash",
        "restart",
        "partition",
        "heal",
        "isolate",
        "unisolate",
        "partition_oneway",
        "heal_oneway",
    )
    #: Kinds whose target is an (a, b) pair rather than one host.
    PAIR_KINDS = ("partition", "heal", "partition_oneway", "heal_oneway")


class FailureInjector:
    """Executes :class:`FailureEvent` schedules, one timed kernel callback
    per event.

    ``on_crash`` / ``on_restart`` hooks let the cluster layer stop the
    node's daemons and re-run its login sequence — the network alone
    cannot know which daemons animate a host.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        *,
        on_crash: Callable[[str], None] | None = None,
        on_restart: Callable[[str], None] | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.on_crash = on_crash
        self.on_restart = on_restart
        self.executed: list[FailureEvent] = []

    def schedule(self, events: list[FailureEvent]) -> None:
        """Validate and arm *events*.

        Validation happens here, at schedule time, not deep inside
        ``_execute`` hours of simulated time later: a typo'd host name, a
        partition target that is not an ``(a, b)`` pair or an event already
        in the past is a bug in the *schedule*, and the traceback should say
        so while the caller is still on the stack.
        """
        for ev in sorted(events, key=lambda e: e.at):
            self._validate(ev)
            self.sim.call_at(ev.at, self._execute, ev)

    def _validate(self, ev: FailureEvent) -> None:
        if ev.at < self.sim.now:
            raise ValueError(f"{ev.kind} at {ev.at} is in the past (now {self.sim.now})")
        if ev.kind not in FailureEvent.KINDS:
            raise ValueError(f"unknown failure kind {ev.kind!r}")
        if ev.kind in FailureEvent.PAIR_KINDS:
            if not (isinstance(ev.target, tuple) and len(ev.target) == 2):
                raise ValueError(
                    f"{ev.kind} target must be an (a, b) host pair, got {ev.target!r}"
                )
            for h in ev.target:
                if h not in self.network.hosts:
                    raise ValueError(f"{ev.kind} names unknown host {h!r}")
        else:
            if not isinstance(ev.target, str):
                raise ValueError(
                    f"{ev.kind} target must be a host name, got {ev.target!r}"
                )
            if ev.target not in self.network.hosts:
                raise ValueError(f"{ev.kind} names unknown host {ev.target!r}")

    def _execute(self, ev: FailureEvent) -> None:
        if ev.kind == "crash":
            self.network.kill(ev.target)
            if self.on_crash is not None:
                self.on_crash(ev.target)
        elif ev.kind == "restart":
            self.network.revive(ev.target)
            if self.on_restart is not None:
                self.on_restart(ev.target)
        elif ev.kind == "isolate":
            self.network.isolate(ev.target)
        elif ev.kind == "unisolate":
            self.network.unisolate(ev.target)
        elif ev.kind == "partition":
            a, b = ev.target
            self.network.partition(a, b)
        elif ev.kind == "heal":
            a, b = ev.target
            self.network.heal(a, b)
        elif ev.kind == "partition_oneway":
            a, b = ev.target
            self.network.partition_oneway(a, b)
        elif ev.kind == "heal_oneway":
            a, b = ev.target
            self.network.heal_oneway(a, b)
        self.executed.append(ev)


def random_crash_schedule(
    rng: random.Random,
    hosts: list[str],
    *,
    horizon: float,
    crashes: int,
    min_downtime: float,
    max_downtime: float,
) -> list[FailureEvent]:
    """Generate crash/restart pairs for random hosts over [0, horizon].

    Restart times are clamped to the horizon so every crashed host comes
    back before the scenario ends — the churn experiment asserts full
    recovery, which needs all servers eventually online.

    Windows are non-overlapping *per host*: a host picked twice gets two
    disjoint [crash, restart] intervals.  Overlap would be nonsense — the
    earlier pair's ``restart`` would revive the host mid-way through the
    later pair's downtime, so the schedule would claim N crash windows but
    deliver fewer, and property tests over downtime accounting would lie.
    Candidate windows colliding with a host's existing ones are re-sampled
    (bounded), so the schedule always contains exactly *crashes* pairs.
    """
    if min_downtime > max_downtime:
        raise ValueError("min_downtime > max_downtime")
    events: list[FailureEvent] = []
    taken: dict[str, list[tuple[float, float]]] = {}
    for _ in range(crashes):
        for _attempt in range(1000):
            host = rng.choice(hosts)
            at = rng.uniform(0, horizon * 0.7)
            downtime = rng.uniform(min_downtime, max_downtime)
            back = min(at + downtime, horizon)
            if all(back < s or e < at for s, e in taken.get(host, [])):
                break
        else:
            raise ValueError(
                "could not place non-overlapping crash windows; "
                "lower crashes or downtime relative to the horizon"
            )
        taken.setdefault(host, []).append((at, back))
        events.append(FailureEvent(at=at, kind="crash", target=host))
        events.append(FailureEvent(at=back, kind="restart", target=host))
    return sorted(events, key=lambda e: e.at)


#: begin kind -> the kind that undoes it.
_RECOVERY = {
    "crash": "restart",
    "isolate": "unisolate",
    "partition": "heal",
    "partition_oneway": "heal_oneway",
}


def random_chaos_schedule(
    rng: random.Random,
    hosts: list[str],
    *,
    horizon: float,
    events: int,
    min_duration: float,
    max_duration: float,
    kinds: tuple[str, ...] = ("crash", "isolate", "partition_oneway"),
) -> list[FailureEvent]:
    """Generate *events* begin/recover pairs mixing failure modes.

    Each event picks a kind from *kinds*, a target (one host, or an
    ordered pair for the one-way partition), and a bounded outage window
    clamped to the horizon — so, as in :func:`random_crash_schedule`,
    every injected failure is eventually undone and a soak test can
    assert full recovery.  Windows are non-overlapping per involved host,
    which keeps the begin/recover pairing sound (an overlapping window's
    recovery would undo the wrong outage).
    """
    if min_duration > max_duration:
        raise ValueError("min_duration > max_duration")
    for kind in kinds:
        if kind not in _RECOVERY:
            raise ValueError(f"kind {kind!r} has no recovery action")
    if "partition_oneway" in kinds or "partition" in kinds:
        if len(hosts) < 2:
            raise ValueError("partition kinds need at least two hosts")
    out: list[FailureEvent] = []
    taken: dict[str, list[tuple[float, float]]] = {}

    def _free(host: str, at: float, back: float) -> bool:
        return all(back < s or e < at for s, e in taken.get(host, []))

    for _ in range(events):
        for _attempt in range(1000):
            kind = kinds[rng.randrange(len(kinds))]
            at = rng.uniform(0, horizon * 0.7)
            back = min(at + rng.uniform(min_duration, max_duration), horizon)
            if kind in FailureEvent.PAIR_KINDS:
                a, b = rng.sample(hosts, 2)
                target: object = (a, b)
                involved = [a, b]
            else:
                target = rng.choice(hosts)
                involved = [target]
            if all(_free(h, at, back) for h in involved):
                break
        else:
            raise ValueError(
                "could not place non-overlapping chaos windows; "
                "lower events or duration relative to the horizon"
            )
        for h in involved:
            taken.setdefault(h, []).append((at, back))
        out.append(FailureEvent(at=at, kind=kind, target=target))
        out.append(FailureEvent(at=back, kind=_RECOVERY[kind], target=target))
    return sorted(out, key=lambda e: e.at)

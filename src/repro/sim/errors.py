"""Exceptions for the discrete-event simulation kernel."""

from __future__ import annotations

__all__ = ["SimError", "Interrupt"]


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    ``cause`` carries whatever the interrupter passed (see
    :meth:`repro.sim.kernel.Process.interrupt`), so the process can tell
    why it was woken early.  Nodes run no processes to interrupt:
    failure injection stops their daemons directly
    (:meth:`repro.cluster.node.Node.crash`).
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


"""Deadline-based query synchronization.

When several clients fetch the same cold location object concurrently, only
one query flood should go out.  Scalla avoids a lock or a condition queue
for this: "a processing deadline equal to the current time plus 5 seconds is
set for the object ... An active deadline implies that some thread is in the
process of issuing queries" (§III-C2).  Threads that find an unexpired
deadline and empty V_h/V_p simply defer the client (via the fast response
queue) instead of flooding again.

The deadline doubles as the non-existence horizon: once it has passed with
all three vectors empty, the file provably got no positive answer within the
full wait and the client is told it does not exist (resolution step 2).
"""

from __future__ import annotations

from repro.core.location import LocationObject

__all__ = ["DeadlinePolicy", "DEFAULT_FULL_DELAY"]

#: The full wait imposed when silence must be interpreted (paper: 5 s).
DEFAULT_FULL_DELAY = 5.0


class DeadlinePolicy:
    """Arms and interprets location-object processing deadlines.

    Stateless apart from the configured delay; exists as a class so cluster
    components share one configured instance and tests can shrink the delay
    to keep simulations fast.
    """

    def __init__(self, full_delay: float = DEFAULT_FULL_DELAY) -> None:
        if full_delay <= 0:
            raise ValueError("full_delay must be positive")
        self.full_delay = full_delay

    def arm(self, loc: LocationObject, now: float) -> float:
        """Start a query epoch: set the deadline and return it.

        Called by the thread about to flood V_q (resolution step 1: "if
        V_q is not null, a processing deadline of 5 seconds from the
        current time is set in the location object").
        """
        loc.deadline = now + self.full_delay
        return loc.deadline

    def active(self, loc: LocationObject, now: float) -> bool:
        """True while some thread's query epoch is still in flight."""
        return loc.deadline > now

    def i_should_query(self, loc: LocationObject, now: float) -> bool:
        """Decide whether the calling thread owns the query flood.

        True exactly when V_q is non-empty and no epoch is active; the
        caller must then :meth:`arm` before dispatching, which is what
        excludes every later thread until the deadline passes.
        """
        return loc.v_q != 0 and not self.active(loc, now)

    def nonexistent(self, loc: LocationObject, now: float) -> bool:
        """True when the file can be declared absent (step 2, first bullet).

        Requires all vectors empty *and* an expired deadline — an empty
        object with a live deadline merely means answers are still possibly
        in flight.
        """
        return loc.known_empty and not self.active(loc, now)

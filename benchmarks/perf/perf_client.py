"""Client request path: sequential request round trips to an echo host.

One :class:`~repro.cluster.client.ScallaClient` sends ``Stat`` requests
one after another (``stat_on``) to a bare host that answers each one at
once.  A round trip is then the client's whole request path and little
else: build, size and send the request, take its deadline slot, deliver
the request and the reply, resolve the reply event and resume the
generator.  ``client_requests_per_sec`` counts round trips per wall-clock
second.

With 50 us links a round trip takes 100 us of simulated time, so a full
run spans several of the client's 2 s deadlines: the one deadline entry
the client keeps queued fires and moves on a few times, and every
answered request leaves nothing on the heap.  A client that queued one
expiry per request would carry about 20 000 of them here.
"""

from __future__ import annotations

from repro.cluster import protocol as pr
from repro.cluster.client import ScallaClient
from repro.cluster.ids import xrootd_host
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed
from repro.sim.network import Network

from . import best_rate

PATH = "/store/data/run00042/file0001234.root"


def run_requests(n_requests: int = 40_000) -> int:
    """Run *n_requests* sequential Stat round trips; returns the count."""
    sim = Simulator()
    net = Network(sim, default_latency=Fixed(50e-6))
    echo = net.add_host(xrootd_host("echo"))
    client = ScallaClient(sim, net, "client", ("mgr0",))

    def answer(src, msg, sent_at):
        reply = pr.StatAck(msg.req_id, True, 4096)
        net.send(echo.name, src, reply, size=reply.wire_size())

    echo.listen(answer)

    def job():
        for _ in range(n_requests):
            exists, _size = yield from client.stat_on("echo", PATH)
            assert exists

    sim.run_until_process(sim.process(job()))
    return n_requests


def run_suite(*, scale: int = 1, repeats: int = 3) -> dict[str, float]:
    n_requests = 40_000 // scale
    return {
        "client_requests_per_sec": round(
            best_rate(lambda: run_requests(n_requests), repeats=repeats), 1
        ),
    }

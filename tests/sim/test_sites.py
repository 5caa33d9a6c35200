"""Unit tests for WAN site-latency modelling in the network."""

import random

import pytest

from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed
from repro.sim.network import Network
from tests.probe import mailbox


def make():
    sim = Simulator()
    net = Network(sim, default_latency=Fixed(10e-6), rng=random.Random(0))
    for h in ("a1", "a2", "b1", "ungrouped"):
        net.add_host(h)
    net.set_host_site("a1", "site-a")
    net.set_host_site("a2", "site-a")
    net.set_host_site("b1", "site-b")
    net.set_site_latency("site-a", "site-b", Fixed(5e-3))
    return sim, net


def deliver_time(sim, net, src, dst):
    got = []
    box = mailbox(sim, net.host(dst))

    def rx():
        env = yield box.get()
        got.append(env.delivered_at - env.sent_at)

    sim.process(rx())
    net.send(src, dst, "x")
    sim.run()
    return got[0]


class TestSiteLatency:
    def test_cross_site_uses_site_model(self):
        sim, net = make()
        assert deliver_time(sim, net, "a1", "b1") == pytest.approx(5e-3)

    def test_same_site_uses_default(self):
        sim, net = make()
        assert deliver_time(sim, net, "a1", "a2") == pytest.approx(10e-6)

    def test_ungrouped_host_uses_default(self):
        sim, net = make()
        assert deliver_time(sim, net, "a1", "ungrouped") == pytest.approx(10e-6)

    def test_unconfigured_site_pair_uses_default(self):
        sim, net = make()
        net.set_host_site("ungrouped", "site-c")
        assert deliver_time(sim, net, "a1", "ungrouped") == pytest.approx(10e-6)

    def test_link_override_beats_site(self):
        sim, net = make()
        net.set_link_latency("a1", "b1", Fixed(1e-3))
        assert deliver_time(sim, net, "a1", "b1") == pytest.approx(1e-3)
        # the other cross-site pair still uses the site model
        assert deliver_time(sim, net, "a2", "b1") == pytest.approx(5e-3)

    def test_symmetry(self):
        sim, net = make()
        assert deliver_time(sim, net, "b1", "a1") == pytest.approx(5e-3)

    def test_unknown_host_rejected(self):
        _, net = make()
        with pytest.raises(KeyError):
            net.set_host_site("ghost", "site-x")

    def test_site_of(self):
        _, net = make()
        assert net.site_of("a1") == "site-a"
        assert net.site_of("ungrouped") is None

"""Unit tests for Store."""

from repro.sim.kernel import Simulator
from repro.sim.sync import Store


class TestStore:
    def test_put_then_get_immediate(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        got = []

        def p():
            v = yield store.get()
            got.append((sim.now, v))

        sim.process(p())
        sim.run()
        assert got == [(0.0, "x")]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            v = yield store.get()
            got.append((sim.now, v))

        def producer():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(3.0, "late")]

    def test_fifo_order_items(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(3):
            store.put(i)
        got = []

        def p():
            for _ in range(3):
                v = yield store.get()
                got.append(v)

        sim.process(p())
        sim.run()
        assert got == [0, 1, 2]

    def test_fifo_order_getters(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(tag):
            v = yield store.get()
            got.append((tag, v))

        def producer():
            yield sim.timeout(1.0)
            store.put("first")
            store.put("second")

        sim.process(consumer("a"))
        sim.process(consumer("b"))
        sim.process(producer())
        sim.run()
        assert got == [("a", "first"), ("b", "second")]

    def test_len_and_drain(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.drain() == [1, 2]
        assert len(store) == 0


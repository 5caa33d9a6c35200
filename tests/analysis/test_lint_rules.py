"""Per-rule unit tests for scalla-lint: positive, negative, suppressed.

Every rule gets (a) a snippet it must flag, (b) an equivalent clean
snippet it must not, and (c) the flagged snippet with a suppression
comment, which must come back clean.
"""

import pathlib
import textwrap

from repro.analysis.lint import lint_source

SRC = "src/repro/cluster/fake.py"  # in scope for every rule
BENCH = "benchmarks/bench_fake.py"  # out of scope for the src-only rules
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "seeded_violations.py.txt"


def run(source, path=SRC):
    return lint_source(textwrap.dedent(source), path)


def rule_ids(source, path=SRC):
    return [v.rule for v in run(source, path)]


class TestSim001WallClock:
    def test_time_time_call(self):
        assert "SIM001" in rule_ids("import time\nt = time.time()\n")

    def test_monotonic_and_perf_counter(self):
        ids = rule_ids("import time\na = time.monotonic()\nb = time.perf_counter_ns()\n")
        assert ids.count("SIM001") == 2

    def test_datetime_now(self):
        assert "SIM001" in rule_ids("import datetime\nd = datetime.datetime.now()\n")

    def test_from_import_flagged_and_call_tracked(self):
        ids = rule_ids("from time import perf_counter\nt = perf_counter()\n")
        assert ids.count("SIM001") == 2  # the import and the call

    def test_sim_timeout_is_clean(self):
        assert rule_ids("def proc(sim):\n    yield sim.timeout(1.0)\n") == []

    def test_benchmarks_out_of_scope(self):
        assert rule_ids("import time\nt = time.time()\n", path=BENCH) == []

    def test_suppressed(self):
        src = "import time\nt = time.time()  # scalla-lint: disable=SIM001\n"
        assert rule_ids(src) == []


class TestSim002GlobalRandom:
    def test_module_level_call(self):
        assert "SIM002" in rule_ids("import random\nx = random.random()\n")

    def test_from_import(self):
        assert "SIM002" in rule_ids("from random import choice\n")

    def test_applies_outside_src_too(self):
        assert "SIM002" in rule_ids("import random\nrandom.seed(1)\n", path="tests/t.py")

    def test_seeded_instance_is_clean(self):
        src = "import random\nrng = random.Random(42)\nx = rng.random()\n"
        assert rule_ids(src) == []

    def test_from_import_random_class_is_clean(self):
        assert rule_ids("from random import Random\nrng = Random(1)\n") == []

    def test_suppressed(self):
        src = "import random\nx = random.random()  # scalla-lint: disable=SIM002\n"
        assert rule_ids(src) == []


class TestSim003SetIteration:
    def test_for_over_set_literal(self):
        assert "SIM003" in rule_ids("for x in {1, 2, 3}:\n    pass\n")

    def test_for_over_annotated_set_name(self):
        src = """\
        names: set[str] = set()
        for n in names:
            pass
        """
        assert "SIM003" in rule_ids(src)

    def test_for_over_assigned_frozenset_attribute(self):
        src = """\
        class C:
            def __init__(self, paths):
                self.paths = frozenset(paths)
            def walk(self):
                for p in self.paths:
                    pass
        """
        assert "SIM003" in rule_ids(src)

    def test_comprehension_over_set_call(self):
        assert "SIM003" in rule_ids("xs = [x for x in set(range(3))]\n")

    def test_sorted_wrapping_is_clean(self):
        src = """\
        names: set[str] = set()
        for n in sorted(names):
            pass
        """
        assert rule_ids(src) == []

    def test_list_iteration_is_clean(self):
        assert rule_ids("for x in [1, 2]:\n    pass\n") == []

    def test_tests_out_of_scope(self):
        assert rule_ids("for x in {1, 2}:\n    pass\n", path="tests/core/t.py") == []

    def test_suppressed(self):
        src = "for x in {1, 2}:  # scalla-lint: disable=SIM003\n    pass\n"
        assert rule_ids(src) == []


class TestSim004BlockingInProcess:
    def test_sleep_in_generator(self):
        src = """\
        import time
        def proc(sim):
            time.sleep(1)
            yield sim.timeout(1)
        """
        assert "SIM004" in rule_ids(src)

    def test_open_in_generator(self):
        src = """\
        def proc():
            f = open("/tmp/x")
            yield f
        """
        assert "SIM004" in rule_ids(src)

    def test_socket_call_in_generator(self):
        src = """\
        import socket
        def proc(sim):
            s = socket.create_connection(("h", 1))
            yield sim.timeout(1)
        """
        assert "SIM004" in rule_ids(src)

    def test_non_generator_may_open(self):
        src = """\
        def load(path):
            with open(path) as f:
                return f.read()
        """
        assert rule_ids(src) == []

    def test_nested_def_not_attributed_to_generator(self):
        src = """\
        def proc(sim):
            def helper(path):
                return open(path)
            yield sim.timeout(1)
        """
        assert rule_ids(src) == []

    def test_suppressed(self):
        src = """\
        import time
        def proc(sim):
            time.sleep(1)  # scalla-lint: disable=SIM004
            yield sim.timeout(1)
        """
        assert rule_ids(src) == []

    def test_sleep_in_call_at_timer(self):
        src = """\
        import time
        class Daemon:
            def start(self):
                self.sim.call_at(self.sim.now + 1.0, self._tick, self._epoch)
            def _tick(self, epoch):
                time.sleep(1)
        """
        assert rule_ids(src) == ["SIM004"]

    def test_bare_named_callback(self):
        src = """\
        from time import sleep
        def fire(sim):
            sleep(1)
        def arm(sim):
            sim.call_at(sim.now, fire, sim)
        """
        assert rule_ids(src) == ["SIM004"]

    def test_open_in_listen_handler(self):
        src = """\
        class Daemon:
            def start(self):
                self.host.listen(self._on_message)
            def _on_message(self, src, msg, sent_at):
                open("/tmp/log", "a")
        """
        assert rule_ids(src) == ["SIM004"]

    def test_event_callback(self):
        src = """\
        import socket
        class Stager:
            def stage(self, ev):
                ev.callbacks.append(self._done)
            def _done(self, ev):
                socket.create_connection(("h", 1))
        """
        assert rule_ids(src) == ["SIM004"]

    def test_lambda_wrapped_callback(self):
        src = """\
        import time
        class Server:
            def stage(self, ev, msg):
                ev.callbacks.append(lambda e: self._staged(msg, e.value))
            def _staged(self, msg, value):
                time.sleep(1)
        """
        assert rule_ids(src) == ["SIM004"]

    def test_unregistered_function_may_sleep(self):
        src = """\
        import time
        class Tool:
            def start(self):
                self.sim.call_at(self.sim.now, self._tick)
            def _tick(self):
                pass
            def wait(self):
                time.sleep(1)
        """
        assert rule_ids(src) == []

    def test_callback_out_of_scope_outside_src(self):
        src = """\
        import time
        def fire(sim):
            time.sleep(1)
        def arm(sim):
            sim.call_at(sim.now, fire)
        """
        assert rule_ids(src, BENCH) == []

    def test_seeded_fixture_timer(self):
        """The fixture's call_at timer is flagged once linted as a sim source."""
        text = FIXTURE.read_text()
        found = [v for v in run(text) if v.rule == "SIM004"]
        assert len(found) == 1
        assert "time.sleep" in text.splitlines()[found[0].line - 1]


class TestSca001BitvecHelpers:
    def test_computed_shift_flagged(self):
        assert "SCA001" in rule_ids("def f(i):\n    return 1 << i\n")

    def test_literal_shift_is_clean(self):
        assert rule_ids("CHUNK = 1 << 20\n") == []

    def test_bitvec_bit_is_clean(self):
        src = "from repro.core import bitvec\ndef f(i):\n    return bitvec.bit(i)\n"
        assert rule_ids(src) == []

    def test_bitvec_module_itself_exempt(self):
        src = "def bit(i):\n    return 1 << i\n"
        assert rule_ids(src, path="src/repro/core/bitvec.py") == []

    def test_suppressed(self):
        src = "def f(i):\n    return 1 << i  # scalla-lint: disable=SCA001\n"
        assert rule_ids(src) == []


class TestSca002FibonacciSizes:
    def test_positional_non_fibonacci(self):
        src = "from repro.core.hashtable import LocationTable\nt = LocationTable(100)\n"
        assert "SCA002" in rule_ids(src)

    def test_keyword_non_fibonacci(self):
        src = "t = NameCache(initial_size=1000)\n"
        assert "SCA002" in rule_ids(src)

    def test_fibonacci_literal_is_clean(self):
        src = "t = LocationTable(initial_size=89)\n"
        assert rule_ids(src) == []

    def test_applies_in_tests_too(self):
        src = "t = LocationTable(initial_size=90)\n"
        assert "SCA002" in rule_ids(src, path="tests/core/t.py")

    def test_computed_size_not_flagged(self):
        # Non-literal sizes are runtime-checked by LocationTable itself.
        src = "t = LocationTable(initial_size=next_fibonacci(n))\n"
        assert rule_ids(src) == []

    def test_suppressed(self):
        src = "t = LocationTable(100)  # scalla-lint: disable=SCA002\n"
        assert rule_ids(src) == []


class TestSca003NoDispatchAllocation:
    def test_event_in_dispatch(self):
        src = """
        class Simulator:
            def _dispatch(self, until, proc):
                poke = Event(self)
                poke.succeed()
        """
        assert "SCA003" in rule_ids(src)

    def test_timeout_in_run(self):
        src = """
        class Simulator:
            def run(self, until=None):
                guard = Timeout(self, 0.0)
                return guard
        """
        assert "SCA003" in rule_ids(src)

    def test_attribute_call_flagged(self):
        src = """
        import repro.sim.kernel as kernel

        class Simulator:
            def run_until_process(self, proc, limit=None):
                kernel.Event(self)
        """
        assert "SCA003" in rule_ids(src)

    def test_event_in_call_at(self):
        src = """
        class Simulator:
            def call_at(self, when, fn, arg):
                Timeout(self, when - self._now).callbacks.append(fn)
        """
        assert "SCA003" in rule_ids(src)

    def test_process_in_network_deliver(self):
        """One message is one callback: delivery must not spawn a process."""
        src = """
        class Network:
            def _deliver(self, item):
                self.sim.process(relay(item))
                Process(self.sim, relay(item))
        """
        assert rule_ids(src) == ["SCA003", "SCA003"]

    def test_timeout_in_fire(self):
        """The loop calls every event's ``_fire``: those are dispatch path too."""
        src = """
        class Event:
            def _fire(self):
                Event(self.sim)

        class Timeout(Event):
            def _fire(self):
                self.sim.timeout(0.0)

        class _PooledTimeout(Timeout):
            def _fire(self):
                Timeout(self.sim, 0.0)
        """
        assert rule_ids(src) == ["SCA003", "SCA003", "SCA003"]

    def test_network_send_is_not_guarded(self):
        src = """
        class Network:
            def send(self, src, dst, payload):
                return Event(self.sim)
        """
        assert rule_ids(src) == []

    def test_other_methods_are_clean(self):
        # Allocation in the public API (sleep/process) is fine — only the
        # per-event dispatch path is restricted.
        src = """
        class Simulator:
            def sleep(self, delay):
                return Timeout(self, delay)

            def process(self, gen):
                return Process(self, gen)
        """
        assert rule_ids(src) == []

    def test_other_classes_are_clean(self):
        src = """
        class Network:
            def _dispatch(self, until, proc):
                return Event(self.sim)
        """
        assert rule_ids(src) == []

    def test_non_event_calls_in_dispatch_ok(self):
        src = """
        class Simulator:
            def _dispatch(self, until, proc):
                when, _seq, fn, arg = heappop(self._heap)
                fn(arg)
        """
        assert rule_ids(src) == []

    def test_applies_in_tests_too(self):
        src = """
        class Simulator:
            def _dispatch(self, until, proc):
                Event(self)
        """
        assert "SCA003" in rule_ids(src, path="tests/sim/t.py")

    def test_suppressed(self):
        src = """
        class Simulator:
            def _dispatch(self, until, proc):
                poke = Event(self)  # scalla-lint: disable=SCA003
        """
        assert rule_ids(src) == []


class TestSca004PrivateSimAccess:
    def test_network_private_read(self):
        src = "def f(self):\n    return self.network._kept\n"
        assert rule_ids(src) == ["SCA004"]

    def test_sim_private_read_bare_and_chained(self):
        src = "def f(sim, node):\n    return sim._seq_now, node.sim._heap\n"
        assert rule_ids(src) == ["SCA004", "SCA004"]

    def test_private_write_flagged(self):
        src = "def f(self):\n    self.network._kept = {}\n"
        assert rule_ids(src) == ["SCA004"]

    def test_public_surface_is_clean(self):
        src = (
            "def f(self):\n"
            "    self.sim.call_at(self.sim.now, self._tick)\n"
            "    self.network.send(self.host.name, 'x', None)\n"
            "    return self._sim_state, self.sim.__class__\n"
        )
        assert rule_ids(src) == []

    def test_scope_is_the_cluster_package(self):
        src = "def f(sim):\n    return sim._heap\n"
        assert rule_ids(src, path="src/repro/sim/network.py") == []
        assert rule_ids(src, path="tests/cluster/t.py") == []
        assert rule_ids(src, path="repro/cluster/cmsd.py") == ["SCA004"]

    def test_suppressed(self):
        src = "def f(sim):\n    return sim._heap  # scalla-lint: disable=SCA004\n"
        assert rule_ids(src) == []

    def test_seeded_fixture_read(self):
        """The fixture's private read is flagged once linted as cluster code."""
        text = FIXTURE.read_text()
        found = [v for v in run(text) if v.rule == "SCA004"]
        assert len(found) == 1
        assert "self.network._kept" in text.splitlines()[found[0].line - 1]


class TestSuppressionMachinery:
    def test_disable_file(self):
        src = "# scalla-lint: disable-file=SIM002\nimport random\nx = random.random()\n"
        assert rule_ids(src) == []

    def test_disable_all_on_line(self):
        src = "import random\nx = random.random()  # scalla-lint: disable=all\n"
        assert rule_ids(src) == []

    def test_multiple_ids_one_comment(self):
        src = (
            "import random\n"
            "t = LocationTable(100), random.random()  # scalla-lint: disable=SCA002,SIM002\n"
        )
        assert rule_ids(src) == []

    def test_unrelated_rule_still_fires(self):
        src = "import random\nx = random.random()  # scalla-lint: disable=SCA002\n"
        assert "SIM002" in rule_ids(src)


class TestEngine:
    def test_syntax_error_reported_as_parse(self):
        ids = rule_ids("def broken(:\n")
        assert ids == ["PARSE"]

    def test_violations_sorted_and_rendered(self):
        vs = run("import random\nb = random.random()\na = random.random()\n")
        assert [v.line for v in vs] == sorted(v.line for v in vs)
        rendered = vs[0].render()
        assert SRC in rendered and "SIM002" in rendered

"""Per-rule unit tests for scalla-lint: positive, negative, suppressed.

Every rule gets (a) a snippet it must flag, (b) an equivalent clean
snippet it must not, and (c) the flagged snippet with a suppression
comment, which must come back clean.
"""

import textwrap

from repro.analysis.lint import lint_source

SRC = "src/repro/cluster/fake.py"  # in scope for every rule
BENCH = "benchmarks/bench_fake.py"  # out of scope for the src-only rules


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
                self._ready.append((self._seq, fn, None))
                heappush(self._heap, item)
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

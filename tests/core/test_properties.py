"""Property-based tests (hypothesis) for the core data structures.

These pin the *invariants* the paper's design depends on, over arbitrary
operation sequences rather than hand-picked cases:

* the three-vector invariant (V_q disjoint from V_h|V_p) survives any mix of
  lookups, responses, membership churn, refreshes and ticks;
* the hash table never loses or duplicates a visible key;
* corrections are exactly equivalent to recomputing from scratch;
* eviction windows always expire an object 64 ticks after its last refresh.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.analysis.simsan import Sanitizer
from repro.core import bitvec
from repro.core.cache import NameCache
from repro.core.corrections import ClusterMembership, apply_corrections
from repro.core.crc32 import hash_name
from repro.core.eviction import WINDOW_COUNT, EvictionWindows
from repro.core.fibonacci import is_fibonacci, next_fibonacci
from repro.core.hashtable import LocationTable
from repro.core.location import LocationObject

vectors = st.integers(min_value=0, max_value=bitvec.FULL_MASK)
slots = st.integers(min_value=0, max_value=63)


class TestBitvecProperties:
    @given(vectors)
    def test_roundtrip_indices(self, v):
        assert bitvec.from_indices(bitvec.to_indices(v)) == v

    @given(st.lists(slots, max_size=64))
    def test_roundtrip_from_indices(self, idxs):
        """The reverse round trip: indices -> vector -> sorted unique indices."""
        assert bitvec.to_indices(bitvec.from_indices(idxs)) == sorted(set(idxs))

    @given(vectors)
    def test_count_equals_index_count(self, v):
        assert bitvec.count(v) == len(bitvec.to_indices(v))

    @given(vectors, slots)
    def test_set_then_clear_restores(self, v, i):
        if not bitvec.has(v, i):
            assert bitvec.clear_bit(bitvec.set_bit(v, i), i) == v

    @given(vectors, slots)
    def test_clear_then_set_restores(self, v, i):
        if bitvec.has(v, i):
            assert bitvec.set_bit(bitvec.clear_bit(v, i), i) == v


class TestFibonacciProperties:
    @given(st.integers(min_value=0, max_value=10**12))
    def test_next_is_strictly_greater_fibonacci(self, n):
        f = next_fibonacci(n)
        assert f > n
        assert is_fibonacci(f)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_next_is_minimal(self, n):
        f = next_fibonacci(n)
        # No Fibonacci number lies strictly between n and f.
        if is_fibonacci(n):
            assert next_fibonacci(n - 1) in (n, f) if n > 0 else True

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=12))
    def test_grow_sequence_monotone(self, start, steps):
        """The table's grow sequence: strictly increasing and never leaving
        the Fibonacci ladder, from any starting size."""
        sizes = [next_fibonacci(start)]
        for _ in range(steps):
            sizes.append(next_fibonacci(sizes[-1]))
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert all(is_fibonacci(s) for s in sizes)


class TestLocationProperties:
    @given(vectors, vectors, st.lists(st.tuples(slots, st.booleans()), max_size=20))
    def test_vector_invariant_under_responses(self, v_m, v_q0, responses):
        obj = LocationObject()
        obj.assign("/f", hash_name("/f"), c_n=0, t_a=0)
        obj.v_q = v_q0
        for server, pending in responses:
            obj.set_holder(server, pending=pending)
            assert obj.v_q & (obj.v_h | obj.v_p) == 0


class TestCorrectionProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10),
        vectors,
        vectors,
    )
    def test_correction_equals_recompute(self, late_servers, v_h0, v_p0):
        """Applying Figure 3 must equal recomputing the vectors from the
        definition: every server that connected after C_n joins V_q, and
        V_h/V_p keep only still-eligible servers not needing a query."""
        m = ClusterMembership()
        base = [m.login(f"base-{i}", ["/store"]) for i in range(3)]
        snapshot = m.n_c
        v_m0 = m.eligible("/store/f")

        obj = LocationObject()
        obj.assign("/store/f", hash_name("/store/f"), c_n=snapshot, t_a=0)
        obj.v_h = v_h0 & v_m0
        obj.v_p = v_p0 & v_m0 & ~obj.v_h & bitvec.FULL_MASK
        obj.v_q = 0

        joined = []
        for i in set(late_servers):
            joined.append(m.login(f"late-{i}", ["/store"]))
        v_m = m.eligible("/store/f")
        v_c_expected = bitvec.from_indices(joined)

        apply_corrections(obj, m, v_m)
        assert obj.v_q == v_c_expected & v_m
        assert obj.v_h == (v_h0 & v_m0) & ~obj.v_q & v_m & bitvec.FULL_MASK
        assert obj.v_p & obj.v_h == 0
        assert obj.v_q & (obj.v_h | obj.v_p) == 0
        assert obj.c_n == m.n_c


class TestHashTableProperties:
    @given(st.lists(st.text(min_size=1, max_size=40), unique=True, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_all_inserted_keys_findable(self, keys):
        t = LocationTable()
        objs = []
        for k in keys:
            obj = LocationObject()
            obj.assign(k, hash_name(k), c_n=0, t_a=0)
            t.insert(obj)
            objs.append(obj)
        for obj in objs:
            assert t.find(obj.key, obj.hash_val) is obj
        assert t.count == len(keys)
        assert is_fibonacci(t.size)
        t.check_invariants()

    @given(
        st.lists(st.text(min_size=1, max_size=20), unique=True, min_size=2, max_size=100),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_removal_leaves_others_intact(self, keys, data):
        t = LocationTable()
        objs = {}
        for k in keys:
            obj = LocationObject()
            obj.assign(k, hash_name(k), c_n=0, t_a=0)
            t.insert(obj)
            objs[k] = obj
        victim = data.draw(st.sampled_from(keys))
        assert t.remove(objs[victim])
        for k, obj in objs.items():
            if k == victim:
                assert t.find(k, obj.hash_val) is None
            else:
                assert t.find(k, obj.hash_val) is obj

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_chains_match_a_model_across_growth(self, data):
        """Interleaved insert/hide/remove/find against a model set.

        A small start size makes the inserts cross several grow thresholds;
        a small key pool makes hidden and live objects share keys (and
        chains).  After every step the intrusive chains must agree with
        the model: every chained object counted once, every live one found
        by identity, a removed one never found."""
        t = LocationTable(initial_size=3)
        keys = [f"/k{i}" for i in range(40)]
        chained: list[LocationObject] = []
        removed: list[LocationObject] = []
        live: dict[str, LocationObject] = {}
        for _ in range(data.draw(st.integers(min_value=1, max_value=300))):
            op = data.draw(st.sampled_from(["insert", "insert", "insert", "hide", "remove", "find"]))
            key = data.draw(st.sampled_from(keys))
            if op == "insert" and key not in live:
                obj = LocationObject(key, hash_name(key))
                t.insert(obj)
                chained.append(obj)
                live[key] = obj
            elif op == "hide" and key in live:
                live.pop(key).hide()
            elif op == "remove" and chained:
                obj = chained.pop(data.draw(st.integers(0, len(chained) - 1)))
                if not obj.hidden:
                    obj.hide()
                    del live[obj.key]
                assert t.remove(obj)
                assert not t.remove(obj)
                removed.append(obj)
            elif op == "find":
                assert t.find(key, hash_name(key)) is live.get(key)
            t.check_invariants()
            assert t.count == len(chained) == sum(t.chain_lengths())
            assert {id(o) for o in t} == {id(o) for o in chained}
            for k, obj in live.items():
                assert t.find(k, obj.hash_val) is obj
            for obj in removed:
                assert t.find(obj.key, obj.hash_val) is not obj
        assert is_fibonacci(t.size)


class TestEvictionProperties:
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_expiry_always_64_ticks_after_last_refresh(self, refresh_ticks):
        """Wherever the refreshes land, the object must be hidden exactly on
        the first sweep of its final t_a window after the last refresh."""
        w = EvictionWindows()
        obj = LocationObject()
        obj.assign("/f", hash_name("/f"), c_n=0, t_a=0)
        w.add(obj)
        schedule = sorted(set(refresh_ticks))
        last_refresh_tick = 0
        for tick in range(1, max(schedule, default=0) + WINDOW_COUNT + 1):
            w.tick()
            if obj.hidden:
                break
            if tick in schedule:
                w.refresh(obj)
                last_refresh_tick = tick
        if not obj.hidden:
            # Keep ticking; it must die within 64 ticks of the last refresh.
            remaining = last_refresh_tick + WINDOW_COUNT - w.t_w
            for _ in range(max(0, remaining) + 1):
                if obj.hidden:
                    break
                w.tick()
        assert obj.hidden
        # Died exactly when the clock re-entered its final window.
        assert w.t_w - last_refresh_tick <= WINDOW_COUNT + 1


class CacheMachine(RuleBasedStateMachine):
    """Stateful test: arbitrary interleavings of cache operations keep every
    cross-structure invariant intact."""

    def __init__(self):
        super().__init__()
        self.m = ClusterMembership()
        for i in range(4):
            self.m.login(f"srv-{i}", ["/store"])
        self.cache = NameCache(self.m, lifetime=64.0)
        self.now = 0.0
        self.refs = []

    @rule(i=st.integers(min_value=0, max_value=30))
    def lookup(self, i):
        ref, _ = self.cache.lookup(f"/store/f{i}", now=self.now)
        self.refs.append(ref)

    @rule(server=st.integers(min_value=0, max_value=3), i=st.integers(min_value=0, max_value=30))
    def respond(self, server, i):
        self.cache.update_holder(f"/store/f{i}", hash_name(f"/store/f{i}"), server)

    @rule()
    def tick(self):
        self.now += 1.0
        self.cache.tick()

    @rule()
    def remove_background(self):
        self.cache.run_background_removal()

    @rule(idx=st.integers(min_value=0, max_value=10**6))
    def refresh_some_ref(self, idx):
        if self.refs:
            self.cache.refresh(self.refs[idx % len(self.refs)], now=self.now)

    @rule(idx=st.integers(min_value=0, max_value=10**6))
    def invalidate_some_ref(self, idx):
        if self.refs:
            self.cache.invalidate(self.refs[idx % len(self.refs)])

    @rule()
    def churn_membership(self):
        n = self.m.member_count()
        if n > 1:
            name = self.m.slots[bitvec.first_bit(self.m.v_members)].name
            self.m.drop(name)
        else:
            self.m.login(f"srv-new-{self.m.n_c}", ["/store"])

    @invariant()
    def structures_consistent(self):
        self.cache.check_invariants()

    @invariant()
    def simsan_sweep_clean(self):
        # The runtime sanitizer must agree under arbitrary interleavings.
        Sanitizer().sweep(cache=self.cache, membership=self.m)


TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(max_examples=25, stateful_step_count=40, deadline=None)

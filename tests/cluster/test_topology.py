"""Unit tests for 64-ary tree construction."""

import pytest

from repro.cluster.ids import Role
from repro.cluster.topology import build_topology, expected_depth


class TestFlatClusters:
    def test_single_server(self):
        topo = build_topology(1)
        assert len(topo.servers) == 1
        assert topo.supervisors == []
        assert len(topo.managers) == 1
        assert topo.depth() == 1

    def test_sixty_four_servers_flat(self):
        topo = build_topology(64)
        assert topo.supervisors == []
        mgr = topo.nodes[topo.managers[0]]
        assert len(mgr.children) == 64
        assert topo.depth() == 1

    def test_all_servers_parented_by_manager(self):
        topo = build_topology(10)
        for s in topo.servers:
            assert topo.nodes[s].parents == topo.managers


class TestDeepTrees:
    def test_sixty_five_servers_needs_supervisors(self):
        topo = build_topology(65)
        assert len(topo.supervisors) == 2
        assert topo.depth() == 2

    def test_4096_two_levels(self):
        topo = build_topology(4096)
        assert len(topo.supervisors) == 64
        assert topo.depth() == 2
        topo.validate()

    def test_small_fanout_builds_deep_tree(self):
        # fanout 2, 8 servers -> 3 levels of interior nodes... bottom-up
        # grouping: 8 -> 4 sups -> 2 sups -> manager (2 children).
        topo = build_topology(8, fanout=2)
        assert topo.depth() == 3
        topo.validate()

    def test_depth_matches_model(self):
        from repro.core.models import tree_depth

        for n in (1, 2, 63, 64, 65, 200, 4096):
            topo = build_topology(n, fanout=64)
            assert topo.depth() == tree_depth(n, 64) == expected_depth(n, 64)

    def test_fanout_respected_everywhere(self):
        topo = build_topology(100, fanout=8)
        for spec in topo.nodes.values():
            assert len(spec.children) <= 8


class TestReplication:
    def test_replicated_managers_share_children(self):
        topo = build_topology(10, managers=3)
        assert len(topo.managers) == 3
        kids = {topo.nodes[m].children for m in topo.managers}
        assert len(kids) == 1  # identical child sets
        for s in topo.servers:
            assert set(topo.nodes[s].parents) == set(topo.managers)

    def test_roles(self):
        topo = build_topology(70, managers=2)
        assert all(topo.nodes[m].role is Role.MANAGER for m in topo.managers)
        assert all(topo.nodes[s].role is Role.SUPERVISOR for s in topo.supervisors)
        assert all(topo.nodes[s].role is Role.SERVER for s in topo.servers)


class TestValidation:
    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            build_topology(0)

    def test_fanout_above_64_rejected(self):
        """64 is a hard cap: the cache's vectors are single machine words."""
        with pytest.raises(ValueError):
            build_topology(10, fanout=65)

    def test_fanout_one_rejected(self):
        with pytest.raises(ValueError):
            build_topology(10, fanout=1)

    def test_zero_managers_rejected(self):
        with pytest.raises(ValueError):
            build_topology(10, managers=0)

    def test_exports_propagate(self):
        topo = build_topology(5, exports=("/store", "/atlas"))
        for spec in topo.nodes.values():
            assert spec.exports == ("/store", "/atlas")


class TestRedundantManagers:
    def test_top_level_logs_into_every_manager(self):
        topo = build_topology(8, fanout=4, managers=2)
        for sup in topo.supervisors:
            assert topo.nodes[sup].parents == topo.managers


class TestStandbys:
    def test_server_standbys_are_sibling_sups_then_managers(self):
        """The re-home escalation order: the dead parent's siblings under
        the shared grandparent first, the grandparent itself last."""
        topo = build_topology(8, fanout=4)  # mgr -> 2 sups -> 8 servers
        sup0, sup1 = topo.supervisors[:2]
        for child in topo.nodes[sup0].children:
            assert topo.nodes[child].standbys == (sup1, "mgr0")
        for child in topo.nodes[sup1].children:
            assert topo.nodes[child].standbys == (sup0, "mgr0")

    def test_peer_managers_are_one_standby(self):
        """Re-homing to the manager level joins every peer manager at
        once, as the dead supervisor was logged into all of them."""
        topo = build_topology(8, fanout=4, managers=2)
        sup0, sup1 = topo.supervisors[:2]
        for child in topo.nodes[sup0].children:
            assert topo.nodes[child].standbys == (sup1, ("mgr0", "mgr1"))

    def test_top_level_subordinates_have_no_standbys(self):
        """They already log into every manager — nowhere else to go."""
        topo = build_topology(8, fanout=4, managers=2)
        for sup in topo.supervisors:
            assert topo.nodes[sup].standbys == ()

    def test_managers_have_no_standbys(self):
        topo = build_topology(8, fanout=4)
        for m in topo.managers:
            assert topo.nodes[m].standbys == ()

    def test_flat_cluster_servers_have_no_standbys(self):
        """Directly under the manager(s): same situation as a top-level
        supervisor."""
        topo = build_topology(4, fanout=8, managers=2)
        for s in topo.servers:
            assert topo.nodes[s].standbys == ()

    def test_children_of_one_supervisor_share_one_standbys_object(self):
        topo = build_topology(16, fanout=4, managers=2)
        for sup in topo.supervisors:
            first, *rest = (topo.nodes[c] for c in topo.nodes[sup].children)
            assert first.standbys
            for spec in rest:
                assert spec.standbys is first.standbys
                assert spec.standby_pool is first.standby_pool
                assert spec.parents is first.parents

    def test_standby_pool_is_standbys_then_own_parents(self):
        topo = build_topology(16, fanout=4, managers=2)
        for spec in topo.nodes.values():
            assert spec.standby_pool == spec.standbys + spec.parents

    def test_standbys_exclude_own_parents(self):
        topo = build_topology(32, fanout=4)
        for name, spec in topo.nodes.items():
            for standby in spec.standbys:
                assert standby not in spec.parents
                assert standby != name

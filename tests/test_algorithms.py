import math

import pytest

from profitmax import (ALGORITHMS, MemoryBudgetError, ParameterError, delta0,
                       delta1, delta2, node_order, ra_s, ra_t, rpm,
                       search_rat_params, solve_ras_params, spm)

from conftest import make_net


def star_net():
    """Hub 2 feeds 1 and 3 with certain edges: the hub is the best seed."""
    return make_net("2 1\n2 3\n", ic_p=1.0)


class TestDeterminism:
    @pytest.mark.parametrize("alg,kw", [
        (spm, {"l_override": 100}),
        (rpm, {"l_override": 100}),
        (ra_t, {}),
        (ra_s, {"k": 3}),
    ])
    def test_same_seed_same_result(self, two_node_net, alg, kw):
        a = alg(two_node_net, eps=0.4, seed=123, **kw)
        b = alg(two_node_net, eps=0.4, seed=123, **kw)
        assert a.members == b.members
        assert a.sample_counts == b.sample_counts
        assert a.l == b.l

    @pytest.mark.parametrize("alg,kw", [
        (spm, {"l_override": 100}),
        (ra_t, {}),
    ])
    def test_fixed_worker_count_reproduces(self, two_node_net, alg, kw):
        a = alg(two_node_net, eps=0.4, seed=5, workers=3, **kw)
        b = alg(two_node_net, eps=0.4, seed=5, workers=3, **kw)
        assert a.members == b.members
        assert a.sample_counts == b.sample_counts


class TestSPM:
    def test_default_sample_count_follows_threshold(self, two_node_net):
        res = spm(two_node_net, eps=0.4, seed=1)
        l = math.ceil(delta0(2, 2.0, 0.4, 0.5))
        assert res.l == l
        # four evaluations per node, two nodes
        assert res.sample_counts["simulations"] == 8 * l

    def test_l_override(self, two_node_net):
        res = spm(two_node_net, eps=0.4, l_override=50, seed=1)
        assert res.l == 50
        assert res.sample_counts["simulations"] == 8 * 50

    def test_eps_range(self, two_node_net):
        with pytest.raises(ParameterError):
            spm(two_node_net, eps=0.5)
        with pytest.raises(ParameterError):
            spm(two_node_net, eps=0.0)

    def test_big_n_must_exceed_one(self, two_node_net):
        with pytest.raises(ParameterError):
            spm(two_node_net, eps=0.4, big_n=1.0, l_override=10)

    def test_produced_by(self, two_node_net):
        res = spm(two_node_net, eps=0.4, l_override=10, seed=0)
        assert res.produced_by == "spm"
        assert res.params["eps"] == 0.4


class TestRPM:
    def test_realization_counts(self, two_node_net):
        res = rpm(two_node_net, eps=0.4, l_override=80, seed=1)
        assert res.sample_counts["realizations"] == 80
        assert res.sample_counts["simulations"] == 0

    def test_memory_budget_enforced(self, two_node_net):
        with pytest.raises(MemoryBudgetError, match="budget"):
            rpm(two_node_net, eps=0.4, l_override=10_000_000,
                seed=1, memory_budget_mb=0.1)

    def test_agrees_with_spm_on_deterministic_net(self, two_node_net):
        # p = 1 network: every realization is the full graph, so both
        # estimators are exact and both solve the same maximization
        a = rpm(two_node_net, eps=0.4, l_override=60, seed=3)
        b = spm(two_node_net, eps=0.4, l_override=60, seed=3)
        assert a.members == b.members == frozenset({0})


class TestNodeOrder:
    def test_hub_first(self):
        net = star_net()
        order = node_order(net, probe_count=400, rng_seed=7)
        assert order[0] == net.graph.id_of(2)
        assert sorted(order) == list(range(net.n))

    def test_ties_break_by_id(self):
        # a certain 3-cycle puts every node in every reverse sample, so all
        # estimated scores tie exactly and the order falls back to ids
        net = make_net("1 2\n2 3\n3 1\n", ic_p=1.0)
        order = node_order(net, probe_count=200, rng_seed=7)
        assert order == [0, 1, 2]

    def test_deterministic(self):
        net = star_net()
        assert node_order(net, 300, 11) == node_order(net, 300, 11)


class TestRAT:
    def test_sample_count_follows_thresholds(self, two_node_net):
        res = ra_t(two_node_net, eps=0.4, seed=2)
        eps1, eps2 = search_rat_params(2, 2.0, 0.4, 0.5)
        l = math.ceil(max(delta1(2, 2.0, eps1, 0.5), delta2(2.0, eps2, 0.5)))
        assert res.l == l
        probes = res.params["order_probes"]
        assert res.sample_counts["ra_sets"] == l + probes

    def test_max_ra_caps(self, two_node_net):
        res = ra_t(two_node_net, eps=0.4, max_ra=40, seed=2)
        assert res.l == 40
        assert res.sample_counts["ra_sets"] <= 80

    def test_internal_value_reported(self, two_node_net):
        res = ra_t(two_node_net, eps=0.4, max_ra=500, seed=2)
        assert res.internal_value is not None
        # on this deterministic net F({0}) concentrates near 0.75
        assert res.internal_value == pytest.approx(0.75, abs=0.2)


class TestRAS:
    def test_stop_reason_recorded(self, two_node_net):
        res = ra_s(two_node_net, eps=0.4, k=3, seed=4)
        assert res.extras["stop_reason"] in {"threshold", "confirmed", "plateau"}
        assert res.iterations >= 1

    def test_threshold_stop_hits_doubling_cap(self, two_node_net):
        # force the full schedule: disable the plateau return and make the
        # simulation check unpassable by an enormous eps3... the check then
        # passes trivially, so instead drive it with plateau_pct=0 and
        # verify the l bookkeeping stays on the doubling grid
        params = solve_ras_params(2, 2.0, 0.4, 0.5, 3, 0.1)
        res = ra_s(two_node_net, eps=0.4, k=3, eps3=0.1, plateau_pct=0.0,
                   seed=4)
        d2s = params.delta2_star
        # l is always ceil(delta2* 2^i) for some 0 <= i <= k
        grid = [math.ceil(d2s * 2 ** i) for i in range(4)]
        assert res.l in grid
        if res.extras["stop_reason"] == "threshold":
            assert res.l == grid[-1]

    def test_sim_checks_counted(self, two_node_net):
        res = ra_s(two_node_net, eps=0.4, k=3, seed=4)
        l_star = math.ceil(solve_ras_params(2, 2.0, 0.4, 0.5, 3, 0.1).delta3)
        sims = res.sample_counts["simulations"]
        if res.extras["stop_reason"] == "confirmed":
            assert sims >= l_star
            assert sims % l_star == 0
        assert res.extras["l_star"] == l_star

    def test_k_must_be_positive(self, two_node_net):
        with pytest.raises(ParameterError):
            ra_s(two_node_net, eps=0.4, k=0)


class TestZeroOverrides:
    # an explicit zero is an error, not "unset"
    @pytest.mark.parametrize("alg", [spm, rpm])
    def test_l_override_zero_rejected(self, two_node_net, alg):
        with pytest.raises(ParameterError, match="l_override"):
            alg(two_node_net, eps=0.4, l_override=0, seed=1)

    @pytest.mark.parametrize("alg", [ra_t, ra_s])
    def test_order_probes_zero_rejected(self, two_node_net, alg):
        with pytest.raises(ParameterError, match="order_probes"):
            alg(two_node_net, eps=0.4, order_probes=0, seed=1)


class TestRegistry:
    def test_contains_all_four(self):
        assert set(ALGORITHMS) == {"spm", "rpm", "ra-t", "ra-s"}
        for name, fn in ALGORITHMS.items():
            assert callable(fn)

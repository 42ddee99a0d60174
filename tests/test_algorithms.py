import hashlib
import math
import random

import numpy as np
import pytest

from profitmax import (ALGORITHMS, BaselineConfig, CoverageOracle, FunctionOracle,
                       MemoryBudgetError, ParameterError, algorithms, delta0,
                       delta1, delta2, diffusion, double_greedy,
                       estimate_profit_simulation, estimate_profits_simulation,
                       exact_profit, generate_collection, max_inf, node_order,
                       ra_s, ra_t, replay_on_realization, rpm,
                       search_rat_params, solve_ras_params, spm)
from profitmax.algorithms import _realization_collection
from profitmax.diffusion import SIM_BLOCK, stream_blocks
from profitmax.sampling import _live_in_edges, covered_sets, sample_rr_block

from conftest import make_net, random_edge_text, realizations_of


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

    @pytest.mark.parametrize("alg,kw,n", [
        (spm, {"l_override": 20}, 12),
        (rpm, {"l_override": 20}, 12),
        (rpm, {"l_override": 20}, 40),  # a larger net: 800 RR sets over 40 nodes
        (ra_s, {"k": 3}, 12),
    ])
    def test_independent_of_worker_count(self, alg, kw, n):
        rng = random.Random(n)
        net = make_net(random_edge_text(rng, n, 2 * n), ic_p=0.3)
        a = alg(net, eps=0.4, seed=5, workers=1, **kw)
        for workers in (2, 3):
            b = alg(net, eps=0.4, seed=5, workers=workers, **kw)
            assert a.members == b.members
            assert a.internal_value == b.internal_value


def _reference_spm(net, eps, l, seed):
    """spm as one estimate_profit_simulation per inspection, each on its
    own spawn(1) child of the evaluation stream: (members, sample_counts)."""
    n = net.n
    coin_ss, eval_parent = np.random.SeedSequence(seed).spawn(2)
    sims = 0

    def evaluate(s):
        nonlocal sims
        sims += l
        child = eval_parent.spawn(1)[0]
        return estimate_profit_simulation(net, s, l, child).mean_profit

    oracle = FunctionOracle(evaluate, range(n),
                            shift=2.0 * eps * net.full_profit() / n)
    members = double_greedy(oracle, range(n), random.Random(
        int(coin_ss.generate_state(2, np.uint64)[0])))
    return members, {"simulations": sims, "realizations": 0, "ra_sets": 0}


class TestSPM:
    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    def test_matches_one_estimate_per_inspection(self, model):
        rng = random.Random(model)
        for trial in range(4):
            n = rng.randint(5, 25)
            intrinsics = [rng.choice([0.9, 0.9, 0.3]) for _ in range(n)]
            net = make_net(random_edge_text(rng, n, rng.randint(n, 3 * n)),
                           model=model, ic_p=rng.uniform(0.1, 0.6),
                           intrinsics=intrinsics)
            l = rng.choice([1, 7, 40])
            for seed in (trial, 1000 + trial):
                got = spm(net, eps=0.4, l_override=l, seed=seed)
                members, counts = _reference_spm(net, 0.4, l, seed)
                assert got.members == members
                assert got.sample_counts == counts
                assert counts["simulations"] == 4 * net.n * l

    @pytest.mark.parametrize("model,members", [
        ("ic-cp", {1, 2, 7, 10, 12}), ("ic-wc", {1, 4, 8, 9, 10, 12, 13}),
        ("lt", {1, 3, 4, 8, 10})])
    def test_members_are_pinned(self, model, members):
        # spm's selections as drawn before its four inspections of a node
        # became one call; LT's since its cascades draw their picks up front
        rng = random.Random(20261018)
        intrinsics = [rng.choice([0.9, 0.9, 0.9, 0.3]) for _ in range(14)]
        net = make_net(random_edge_text(rng, 14, 40), model=model, ic_p=0.4,
                       intrinsics=intrinsics)
        assert spm(net, eps=0.4, l_override=30, seed=3).members == members

    @pytest.mark.parametrize("l,blocks", [(30, 1), (SIM_BLOCK, 1),
                                          (SIM_BLOCK + 1, 2)])
    def test_one_kernel_call_per_node_and_block(self, monkeypatch, l, blocks):
        net = make_net("1 2\n2 3\n3 1\n1 4\n", ic_p=0.5)
        calls = []
        kernel = diffusion.simulate_sets

        def counting(net, seed_sets, count, gens):
            calls.append(len(seed_sets))
            return kernel(net, seed_sets, count, gens)

        monkeypatch.setattr(diffusion, "simulate_sets", counting)
        spm(net, eps=0.4, l_override=l, seed=2)
        assert calls == [4] * (net.n * blocks)

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


def _reach_matrices(n, live_indptr, sources):
    """reach[r, u, w]: whether u reaches w over the live edges of
    realization r, laid out as sampling._live_in_edges returns them."""
    runs = (live_indptr.size - 1) // n
    at = np.repeat(np.arange(runs * n), np.diff(live_indptr))  # r * n + target
    step = np.zeros((runs, n, n), dtype=np.int64)
    step[:, np.arange(n), np.arange(n)] = 1
    step[at // n, sources, at % n] = 1
    reach = step
    for _ in range(n):
        reach = np.minimum(reach @ step, 1)
    return reach.astype(bool)


class TestRPM:
    def test_realization_counts(self, two_node_net):
        res = rpm(two_node_net, eps=0.4, l_override=80, seed=1)
        assert res.sample_counts["realizations"] == 80
        assert res.sample_counts["simulations"] == 0

    def test_memory_budget_enforced(self, two_node_net):
        with pytest.raises(MemoryBudgetError, match="budget"):
            rpm(two_node_net, eps=0.4, l_override=10_000_000,
                seed=1, memory_budget_mb=0.1)

    def test_memory_floor_checked_before_drawing(self, two_node_net,
                                                 monkeypatch):
        # 2000 one-member sets project ~0.053 MiB, past a 0.05 MiB budget
        def no_drawing(*args):
            raise AssertionError("drew realizations past the floor")

        monkeypatch.setattr(algorithms, "sample_rr_block", no_drawing)
        with pytest.raises(MemoryBudgetError, match="project at least"):
            rpm(two_node_net, eps=0.4, l_override=1000, seed=1,
                memory_budget_mb=0.05)

    def test_memory_growth_checked_while_drawing(self):
        # a certain 50-cycle: every RR set holds all 50 nodes, so 200
        # realizations hold 5 * 10^5 members (~4 MiB), while their floor of
        # 10^4 one-member sets (~0.3 MiB) fits the budget
        n = 50
        net = make_net("".join(f"{v} {v % n + 1}\n" for v in range(1, n + 1)),
                       ic_p=1.0)
        with pytest.raises(MemoryBudgetError, match="hold at least"):
            rpm(net, eps=0.4, l_override=200, seed=1, memory_budget_mb=1.0)
        coll = _realization_collection(net, 200, np.random.SeedSequence(1), 8.0)
        assert np.all(coll.sizes() == n)

    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    @pytest.mark.parametrize("shape", ["chain", "cycle", "diamond"])
    def test_estimator_matches_exact_profit(self, model, shape):
        # P / l * sum_r |Reach_r(S)| - C |S| is unbiased for the profit;
        # node 3 cannot pay full price, so it adopts only when seeded
        edges = {"chain": "1 2\n2 3\n3 4\n", "cycle": "1 2\n2 3\n3 1\n",
                 "diamond": "1 2\n1 3\n2 4\n3 4\n4 1\n"}[shape]
        n = 3 if shape == "cycle" else 4
        net = make_net(edges, model=model, ic_p=0.5,
                       intrinsics=[0.9, 0.9, 0.3, 0.9][:n])
        l = 20_000
        coll = _realization_collection(net, l, np.random.SeedSequence(77), 64.0)
        # the kernel's sets of the same draw
        blocks = [block for child, size in stream_blocks(
                      np.random.SeedSequence(77), l, SIM_BLOCK)
                  for block in sample_rr_block(net, size, np.random.default_rng(child))]
        assert np.array_equal(coll.coverage_counts(), sum(
            single + np.bincount(members, minlength=n)
            for single, _, members in blocks))
        # reach[r, u, w]: u reaches w in realization r of the same draw,
        # by transitive closure of its live edges
        reach = np.concatenate([
            _reach_matrices(n, *_live_in_edges(net, size, np.random.default_rng(child)))
            for child, size in stream_blocks(np.random.SeedSequence(77), l, SIM_BLOCK)])
        for seeds in ([0], [1], [n - 1], [0, n - 1], list(range(n))):
            reached = reach[:, seeds, :].any(axis=1).sum(axis=1)
            assert covered_sets(coll, seeds).sum() == reached.sum()
            got = net.price * reached.mean() - net.coupon * len(seeds)
            se = net.price * reached.std() / math.sqrt(l)
            want = exact_profit(net, seeds)
            assert abs(got - want) <= 3.0 * se + 1e-12, (seeds, got, want, se)

    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    def test_marginals_equal_replay(self, model):
        # CoverageOracle over the RR sets against the estimator evaluated
        # by replaying the same realizations
        rng = random.Random(5)
        net = make_net(random_edge_text(rng, 9, 20), model=model, ic_p=0.4,
                       intrinsics=[0.9, 0.9, 0.3, 0.9, 0.9, 0.9, 0.3, 0.9, 0.9])
        l, n, shift = 60, net.n, 0.03
        coll = _realization_collection(net, l, np.random.SeedSequence(8), 64.0)
        # the same draw: l < SIM_BLOCK realizations come from one child
        child, _ = next(stream_blocks(np.random.SeedSequence(8), l, SIM_BLOCK))
        reals = realizations_of(net, *_live_in_edges(net, l, np.random.default_rng(child)))

        def f(s):
            reached = sum(replay_on_realization(real, s) for real in reals)
            return net.price * reached / l - net.coupon * len(s)

        oracle = CoverageOracle(coll, net.price, net.coupon, shift=shift)
        x, y = set(), set(range(n))
        for v in rng.sample(range(n), n):
            a, b = oracle.gains(v)
            assert a == pytest.approx(f(x | {v}) - f(x) + shift, abs=1e-12)
            assert b == pytest.approx(f(y - {v}) - f(y) + shift, abs=1e-12)
            included = rng.random() < 0.5
            oracle.apply(v, included)
            (x.add if included else y.discard)(v)
        assert oracle.current_value() == pytest.approx(f(x), abs=1e-12)

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

    @pytest.mark.parametrize("plateau_pct", [math.nan, math.inf, -1.0])
    def test_plateau_pct_must_be_finite_and_nonnegative(self, two_node_net,
                                                        plateau_pct):
        with pytest.raises(ParameterError, match="plateau_pct"):
            ra_s(two_node_net, eps=0.4, k=3, plateau_pct=plateau_pct)


class TestZeroOverrides:
    # an explicit zero is an error, not "unset"
    @pytest.mark.parametrize("alg", [spm, rpm])
    def test_l_override_zero_rejected(self, two_node_net, alg):
        with pytest.raises(ParameterError, match="l_override"):
            alg(two_node_net, eps=0.4, l_override=0, seed=1)

    def test_max_ra_zero_rejected(self, two_node_net):
        with pytest.raises(ParameterError, match="max_ra"):
            ra_t(two_node_net, eps=0.4, max_ra=0, seed=1)


# Every entry point that takes a sample count: (call(net, count), the name
# its refusal gives).  diffusion.sample_count checks them all.
SAMPLE_COUNT_ENTRIES = {
    "spm": (lambda net, c: spm(net, l_override=c, seed=1), "l_override"),
    "rpm": (lambda net, c: rpm(net, l_override=c, seed=1), "l_override"),
    "ra_t": (lambda net, c: ra_t(net, max_ra=c, seed=1), "max_ra"),
    "estimate_profit_simulation":
        (lambda net, c: estimate_profit_simulation(net, [0], c, 1), "l"),
    "estimate_profits_simulation":
        (lambda net, c: estimate_profits_simulation(net, [[0], [1]], c, [1, 2]), "l"),
    "generate_collection": (lambda net, c: generate_collection(net, c, 1), "l"),
    "node_order": (lambda net, c: node_order(net, c, 1), "probe_count"),
    "trials": (lambda net, c: BaselineConfig(trials=c), "trials"),
    "eval_simulations":
        (lambda net, c: BaselineConfig(eval_simulations=c), "eval_simulations"),
    "ra_samples": (lambda net, c: BaselineConfig(ra_samples=c), "ra_samples"),
}


class TestSampleCounts:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, math.nan, math.inf, 2 ** 40 + 1],
                             ids=["0", "-1", "1.5", "nan", "inf", "cap+1"])
    @pytest.mark.parametrize("entry", list(SAMPLE_COUNT_ENTRIES))
    def test_bad_count_refused(self, two_node_net, entry, bad):
        call, name = SAMPLE_COUNT_ENTRIES[entry]
        with pytest.raises(ParameterError, match=f"^{name} must be "):
            call(two_node_net, bad)

    @pytest.mark.parametrize("entry", list(SAMPLE_COUNT_ENTRIES))
    def test_integral_float_accepted(self, two_node_net, entry):
        call, _ = SAMPLE_COUNT_ENTRIES[entry]
        call(two_node_net, 5.0)

    def test_integral_float_counts_as_its_int(self, two_node_net):
        assert BaselineConfig(trials=5.0, ra_samples=7.0) == \
            BaselineConfig(trials=5, ra_samples=7)
        assert estimate_profit_simulation(two_node_net, [0], 5.0, 3) == \
            estimate_profit_simulation(two_node_net, [0], 5, 3)
        assert ra_t(two_node_net, max_ra=40.0, seed=2).members == \
            ra_t(two_node_net, max_ra=40, seed=2).members


class TestRegistry:
    def test_contains_all_four(self):
        assert set(ALGORITHMS) == {"spm", "rpm", "ra-t", "ra-s"}
        for name, fn in ALGORITHMS.items():
            assert callable(fn)


def pinned_net(kind):
    """A sparse ic-cp net whose RA sets mostly have one member, and two LT
    nets whose sets mostly have several."""
    rng = random.Random(kind)
    n, m, model, p = {"sparse-ic-cp": (1000, 1500, "ic-cp", 0.05),
                      "dense-lt": (14, 80, "lt", 1.0),
                      "sparse-lt": (2000, 2600, "lt", 1.0)}[kind]
    intrinsics = [rng.choice([0.9, 0.9, 0.9, 0.3]) for _ in range(n)]
    return make_net(random_edge_text(rng, n, m), model=model, ic_p=p,
                    coupon=0.4, intrinsics=intrinsics)


PINNED_RUNS = {
    "ra-t": lambda net: ra_t(net, max_ra=20000, seed=3),
    "ra-s": lambda net: ra_s(net, k=3, seed=3),
    "rpm": lambda net: rpm(net, l_override=20, seed=3),
    "maxinf": lambda net: max_inf(
        net, BaselineConfig(sweep_points=5, eval_simulations=200), seed=3),
}


class TestPinnedSelections:
    # (seed count, digest of the sorted seeds, internal_value, l, ra-s stop
    # reason), pinned while RA collections still stored one-member sets
    # whole, and LT maxinf's values since LT cascades draw their picks up
    # front; the nets cover split and unsplit, batched and scalar oracles
    @pytest.mark.parametrize("kind,alg,pinned", [
        ("sparse-ic-cp", "ra-t", (797, "4e52f5cec1af3a65", 113.85000000000002, 20000, None)),
        ("sparse-ic-cp", "ra-s", (925, "4089184cd834b099", 102.40981625026342, 90177, "confirmed")),
        ("sparse-ic-cp", "rpm", (931, "4152ea485e875f13", 99.19999999999999, 20, None)),
        ("sparse-ic-cp", "maxinf", (100, "1684030a22f3d007", 13.085, 2159, None)),
        ("dense-lt", "ra-t", (4, "04270b3451062138", 4.413022508038585, 6220, None)),
        ("dense-lt", "ra-s", (5, "7c83e8130b1924fc", 4.391111111111111, 1575, "confirmed")),
        ("dense-lt", "rpm", (6, "aeea848eec2ac308", 4.275, 20, None)),
        ("dense-lt", "maxinf", (2, "9393911cbd0ddb23", 3.1624999999999996, 825, None)),
        ("sparse-lt", "ra-t", (889, "3aa531108d7a8f4c", 604.6, 20000, None)),
        ("sparse-lt", "ra-s", (950, "15ebfa29e4198df9", 609.5313292969349, 84729, "confirmed")),
        ("sparse-lt", "rpm", (1099, "9ca9875592df35cd", 560.4, 20, None)),
        ("sparse-lt", "maxinf", (200, "d3996e945c573276", 344.4875, 2376, None)),
    ])
    def test_members_are_pinned(self, kind, alg, pinned):
        res = PINNED_RUNS[alg](pinned_net(kind))
        digest = hashlib.sha256(repr(sorted(res.members)).encode()).hexdigest()
        assert (len(res.members), digest[:16], res.internal_value, res.l,
                res.extras.get("stop_reason")) == pinned

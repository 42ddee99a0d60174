import hashlib
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from profitmax import (ALGORITHMS, CoverageOracle, MemoryBudgetError,
                       ParameterError, algorithms, delta0, delta1, delta2,
                       estimate_profit_simulation, exact_profit,
                       generate_collection, high_degree, max_inf, node_order,
                       ra_s, ra_t, replay_on_realization, rpm,
                       search_rat_params, simulate_sets, solve_ras_params, spm)
from profitmax.algorithms import _realization_collection
from profitmax.diffusion import (SIM_BLOCK, SIM_STATE_BYTES, _realizations,
                                 stream_blocks)
from profitmax.sampling import _live_in_edges, covered_sets, sample_rr_block

from conftest import make_net, random_edge_text


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


def _reference_spm(net, eps, l, seed, block=SIM_BLOCK):
    """spm written out: one generator seeded from the evaluation stream
    draws every inspected set, h(X) and h(Y) are carried from node to
    node, and a node's sets (X + v, X, Y - v, Y at the first node, X + v
    and Y - v at the others) share one simulate_sets call per block
    runs.  An empty set draws no runs.  Returns (members, sample_counts)."""
    n = net.n
    coin_ss, eval_ss = np.random.SeedSequence(seed).spawn(2)
    gen = np.random.default_rng(eval_ss)
    rand = random.Random(int(coin_ss.generate_state(2, np.uint64)[0])).random
    shift = 2.0 * eps * net.full_profit() / n
    sims = 0

    def evaluate(sets):
        nonlocal sims
        sims += l * len([s for s in sets if s])
        totals = [0] * len(sets)
        for lo in range(0, l, block):
            rows = simulate_sets(net, sets, min(block, l - lo), gen)
            totals = [t + int(row.sum()) for t, row in zip(totals, rows)]
        return [net.price * (t / l) - net.coupon * len(s) for s, t in zip(sets, totals)]

    x, y = frozenset(), frozenset(range(n))
    hx = hy = None
    for v in range(n):
        if hx is None:
            h_add, hx, h_drop, hy = evaluate([x | {v}, x, y - {v}, y])
        else:
            h_add, h_drop = evaluate([x | {v}, y - {v}])
        a = max(h_add - hx + shift, 0.0)
        b = max(h_drop - hy + shift, 0.0)
        coin = rand()  # one coin per node, used or not
        if a + b == 0.0 or coin < a / (a + b):
            x, hx = x | {v}, h_add
        else:
            y, hy = y - {v}, h_drop
    return x, {"simulations": sims, "realizations": 0, "ra_sets": 0}


class TestSPM:
    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    def test_matches_reference(self, model):
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
                # three nonempty sets at the first node and two at each
                # other, less Y - v at the last one when it is empty
                assert counts["simulations"] in (2 * net.n * l,
                                                 (2 * net.n + 1) * l)

    def test_matches_reference_across_blocks(self, monkeypatch):
        # l = 40 in blocks of 16 runs: spm adds up the per-block sums
        monkeypatch.setattr(algorithms, "SIM_BLOCK", 16)
        rng = random.Random(3)
        net = make_net(random_edge_text(rng, 12, 30), ic_p=0.3)
        for seed in (0, 1):
            got = spm(net, eps=0.4, l_override=40, seed=seed)
            assert (got.members, got.sample_counts) == _reference_spm(
                net, 0.4, 40, seed, block=16)

    @pytest.mark.parametrize("model,members", [
        ("ic-cp", {1, 2, 3, 4, 6, 9}), ("ic-wc", {1, 3, 7, 8, 10, 12}),
        ("lt", {1, 3, 4, 8, 10})])
    def test_members_are_pinned(self, model, members):
        # spm's selections since the oracle carries h(X) and h(Y): two sets
        # drawn per node after the first; under IC since its cascades run
        # on each set's open nodes
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
        kernel = algorithms.simulate_sets

        def counting(net, seed_sets, count, gen):
            calls.append(len(seed_sets))
            return kernel(net, seed_sets, count, gen)

        monkeypatch.setattr(algorithms, "simulate_sets", counting)
        spm(net, eps=0.4, l_override=l, seed=2)
        assert calls == [4] * blocks + [2] * ((net.n - 1) * blocks)

    def test_default_sample_count_follows_threshold(self, two_node_net):
        res = spm(two_node_net, eps=0.4, seed=1)
        l = math.ceil(delta0(2, 2.0, 0.4, 0.5))
        assert res.l == l
        # (2 n + 1) l: X + v, Y - v and Y at node 0 (X is empty and draws
        # nothing); node 0 is taken, then X + v and Y - v at node 1
        assert res.members == frozenset({0})
        assert res.sample_counts["simulations"] == 5 * l

    def test_l_override(self, two_node_net):
        res = spm(two_node_net, eps=0.4, l_override=50, seed=1)
        assert res.l == 50
        assert res.members == frozenset({0})
        assert res.sample_counts["simulations"] == 5 * 50

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

    def test_budget_charges_what_is_stored(self, two_node_net):
        # its 2000 sets are one distinct set {v1, v2} of weight 1000 and
        # 1000 one-member sets, counted per node and stored as {v1} of
        # weight 1000: far inside 0.05 MiB
        res = rpm(two_node_net, eps=0.4, l_override=1000, seed=1,
                  memory_budget_mb=0.05)
        assert res.members == frozenset({0})
        assert res.internal_value == pytest.approx(0.75)
        coll = _realization_collection(two_node_net, 1000,
                                       np.random.SeedSequence(1), 0.05)
        assert [coll.members_of(i).tolist() for i in range(2)] == [[0, 1], [0]]
        assert coll.weights.tolist() == [1000, 1000]

    def test_memory_growth_checked_while_drawing(self):
        # a certain 100-cycle is past one mask word, so its RR sets are
        # stored one by one: every set holds all 100 nodes, and 200
        # realizations would hold 2 * 10^6 members (~15 MiB)
        n = 100
        net = make_net("".join(f"{v} {v % n + 1}\n" for v in range(1, n + 1)),
                       ic_p=1.0)
        with pytest.raises(MemoryBudgetError, match="hold at least"):
            rpm(net, eps=0.4, l_override=200, seed=1, memory_budget_mb=1.0)
        coll = _realization_collection(net, 20, np.random.SeedSequence(1), 8.0)
        assert np.all(coll.sizes() == n) and np.all(coll.weights == 1)

    def test_certain_cycle_peak(self):
        # a certain 50-cycle: its 5 * 10^4 RR sets, all of 50 members, are
        # one distinct set per pass, so rpm holds about one pass of draws
        # and masks (24 MiB of members if each set were stored)
        n = 50
        net = make_net("".join(f"{v} {v % n + 1}\n" for v in range(1, n + 1)),
                       ic_p=1.0)
        net.pickers()
        tracemalloc.start()
        try:
            res = rpm(net, eps=0.4, l_override=1000, seed=1, memory_budget_mb=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.members == frozenset({0})
        assert peak < 2 * SIM_STATE_BYTES

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
        # the kernel's sets of the same draw, each stored set counted with
        # its weight
        blocks = [block for child, size in stream_blocks(
                      np.random.SeedSequence(77), l, SIM_BLOCK)
                  for block in sample_rr_block(net, size, np.random.default_rng(child))]
        assert np.array_equal(coll.coverage_counts(), sum(
            single + np.bincount(members, np.repeat(weights, sizes), minlength=n)
            for single, sizes, members, weights in blocks))
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
        reals = _realizations(net, *_live_in_edges(net, l, np.random.default_rng(child)))

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

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_unconfirmed_rounds_run_to_threshold(self, two_node_net, k, monkeypatch):
        # a check that never confirms, and an estimate that falls by half
        # of its size each round, so that it never plateaus: the schedule
        # runs all k + 1 rounds, round i at ceil(delta2_star * 2^i) sets
        sizes = []

        class Unconfirmed(CoverageOracle):
            def current_value(self):
                sizes.append(len(self.coll))
                return -float(len(self.coll))

        monkeypatch.setattr(algorithms, "CoverageOracle", Unconfirmed)
        monkeypatch.setattr(algorithms, "estimate_profit_simulation",
                            lambda *args: SimpleNamespace(mean_profit=-math.inf))
        res = ra_s(two_node_net, eps=0.4, k=k, seed=4)
        d2s = solve_ras_params(2, 2.0, 0.4, 0.5, k, 0.1).delta2_star
        assert sizes == [math.ceil(d2s * 2 ** i) for i in range(k + 1)]
        assert res.extras["stop_reason"] == "threshold"
        assert res.iterations == k + 1
        assert res.l == math.ceil(d2s * 2 ** k)

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

    @pytest.mark.parametrize("k", [2.5, 3.0])
    def test_k_must_be_an_integer(self, two_node_net, k):
        # ra-s counts its rounds to k
        with pytest.raises(ParameterError, match="k must be a positive integer"):
            ra_s(two_node_net, eps=0.4, k=k)

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
    "generate_collection": (lambda net, c: generate_collection(net, c, 1), "l"),
    "node_order": (lambda net, c: node_order(net, c, 1), "probe_count"),
    "trials": (lambda net, c: high_degree(net, trials=c, eval_simulations=20, seed=1),
               "trials"),
    "eval_simulations": (lambda net, c: high_degree(net, trials=2, eval_simulations=c,
                                                    seed=1), "eval_simulations"),
    "ra_samples": (lambda net, c: max_inf(net, eval_simulations=20, ra_samples=c,
                                          seed=1), "ra_samples"),
    "sweep_points": (lambda net, c: max_inf(net, sweep_points=c, eval_simulations=20,
                                            seed=1), "sweep_points"),
    "fixed_size": (lambda net, c: max_inf(net, eval_simulations=20, fixed_size=c,
                                          seed=1), "fixed_size"),
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

    @pytest.mark.parametrize("alg", [spm, rpm])
    def test_default_l_beyond_cap_refused_before_drawing(self, monkeypatch, alg):
        # on a 20-node ring at coupon fraction 0.9, the CLI's default, and
        # eps 0.0005, delta0 asks for 2,582,693,176,775 samples, more than
        # MAX_SAMPLES = 2^40: refused by name, and nothing drawn
        def drawn(*args, **kwargs):
            raise AssertionError("samples drawn")

        monkeypatch.setattr(algorithms, "simulate_sets", drawn)
        monkeypatch.setattr(algorithms, "sample_rr_block", drawn)
        net = make_net("".join(f"{v} {v % 20 + 1}\n" for v in range(1, 21)),
                       coupon=0.45)
        with pytest.raises(ParameterError, match="^l must be at most "):
            alg(net, eps=0.0005, seed=1)

    def test_integral_float_counts_as_its_int(self, two_node_net):
        hd = high_degree(two_node_net, trials=5.0, eval_simulations=20, seed=1)
        assert hd == high_degree(two_node_net, trials=5, eval_simulations=20, seed=1)
        assert type(hd.params["trials"]) is int
        mi = max_inf(two_node_net, eval_simulations=20, ra_samples=7.0, seed=1)
        assert mi == max_inf(two_node_net, eval_simulations=20, ra_samples=7, seed=1)
        assert type(mi.params["ra_samples"]) is int
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
    "maxinf": lambda net: max_inf(net, sweep_points=5, eval_simulations=200, seed=3),
    "spm": lambda net: spm(net, l_override=20, seed=3),
}


class TestPinnedSelections:
    # (seed count, digest of the sorted seeds, internal_value, l, ra-s stop
    # reason), pinned while RA collections still stored one-member sets
    # whole, and the RA selections' (ra-t, ra-s and maxinf) since RA roots
    # are split per node, sparse-ic-cp's maxinf since IC cascades run on
    # each set's open nodes; the nets cover split and unsplit roots
    @pytest.mark.parametrize("kind,alg,pinned", [
        ("sparse-ic-cp", "ra-t", (810, "ef4cfe318e44d088", 113.875, 20000, None)),
        ("sparse-ic-cp", "ra-s", (921, "dd8cd374c9aed396", 102.45176929815807, 90177, "confirmed")),
        ("sparse-ic-cp", "rpm", (931, "4152ea485e875f13", 99.19999999999999, 20, None)),
        ("sparse-ic-cp", "maxinf", (100, "d0876309f15ed2ac", 12.920000000000002, 2159, None)),
        ("dense-lt", "ra-t", (4, "5e5b0a7d5bd01d19", 4.581832797427653, 6220, None)),
        ("dense-lt", "ra-s", (5, "2526ceed03c4173c", 4.697777777777778, 1575, "confirmed")),
        ("dense-lt", "rpm", (6, "aeea848eec2ac308", 4.275, 20, None)),
        ("dense-lt", "maxinf", (2, "011ab7251ca87673", 3.0925000000000002, 825, None)),
        ("sparse-lt", "ra-t", (878, "84f1651435377d38", 612.85, 20000, None)),
        ("sparse-lt", "ra-s", (952, "01d01faefd833d9d", 610.3954584616838, 84729, "confirmed")),
        ("sparse-lt", "rpm", (1099, "9ca9875592df35cd", 560.4, 20, None)),
        ("sparse-lt", "maxinf", (200, "78e8f8e90b386594", 335.245, 2376, None)),
    ])
    def test_members_are_pinned(self, kind, alg, pinned):
        res = PINNED_RUNS[alg](pinned_net(kind))
        digest = hashlib.sha256(repr(sorted(res.members)).encode()).hexdigest()
        assert (len(res.members), digest[:16], res.internal_value, res.l,
                res.extras.get("stop_reason")) == pinned

    # spm has no internal value: its forward simulations are pinned
    # instead, on the sparse nets since every node draws a coin (under IC
    # since its cascades run on each set's open nodes)
    @pytest.mark.parametrize("kind,pinned", [
        ("sparse-ic-cp", (984, "ca1fa34376eb4807", 20, 40020)),
        ("dense-lt", (6, "acb1154e42edeca1", 20, 580)),
        ("sparse-lt", (1180, "2fc75159c852d0e2", 20, 80020)),
    ])
    def test_spm_draws_are_pinned(self, kind, pinned):
        res = PINNED_RUNS["spm"](pinned_net(kind))
        digest = hashlib.sha256(repr(sorted(res.members)).encode()).hexdigest()
        assert (len(res.members), digest[:16], res.l,
                res.sample_counts["simulations"]) == pinned

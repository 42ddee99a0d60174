import math
import random
from collections import Counter

import numpy as np
import pytest

from profitmax import (ParameterError, Realization, diffusion,
                       estimate_profit_simulation, exact_pi,
                       replay_on_realization, sample_realization,
                       simulate_block, simulate_once, simulate_sets)
from profitmax.diffusion import (MAX_SAMPLES, SIM_BLOCK, _live_in_edges,
                                 _realizations, stream_blocks)

from conftest import make_net, random_edge_text


class TestSimulateOnce:
    def test_deterministic_two_node(self, two_node_net):
        rng = random.Random(0)
        for _ in range(20):
            assert simulate_once(two_node_net, [0], rng) == 2
            assert simulate_once(two_node_net, [0, 1], rng) == 2
            assert simulate_once(two_node_net, [1], rng) == 1

    def test_empty_seed_set(self, two_node_net):
        assert simulate_once(two_node_net, [], random.Random(1)) == 0

    def test_unaffordable_node_blocks_relay(self):
        # chain 1 -> 2 -> 3, v2 cannot pay full price: activation stops there
        net = make_net("1 2\n2 3\n", ic_p=1.0, intrinsics=[0.9, 0.3, 0.9])
        rng = random.Random(2)
        for _ in range(20):
            assert simulate_once(net, [0], rng) == 1

    def test_seeded_unaffordable_node_relays(self):
        # same chain, but seeding v2 makes it adopt (coupon) and relay
        net = make_net("1 2\n2 3\n", ic_p=1.0, intrinsics=[0.9, 0.3, 0.9])
        rng = random.Random(3)
        for _ in range(20):
            assert simulate_once(net, [0, 1], rng) == 3

    def test_lt_fork_certain_cases(self, lt_fork_net):
        # both parents seeded: the child's incoming weight reaches 1
        rng = random.Random(4)
        a, b = lt_fork_net.graph.id_of(1), lt_fork_net.graph.id_of(2)
        for _ in range(20):
            assert simulate_once(lt_fork_net, [a, b], rng) == 3

    def test_lt_fork_mean(self, lt_fork_net):
        # one parent seeded: child adopts iff theta <= 1/2, so pi = 1.5
        rng = random.Random(5)
        a = lt_fork_net.graph.id_of(1)
        l = 40_000
        total = sum(simulate_once(lt_fork_net, [a], rng) for _ in range(l))
        se = math.sqrt(0.25 / l)  # Bernoulli child, variance 1/4
        assert total / l == pytest.approx(1.5, abs=4 * se)

    def test_ic_probability_respected(self):
        net = make_net("1 2\n", ic_p=0.3)
        rng = random.Random(6)
        l = 40_000
        total = sum(simulate_once(net, [0], rng) for _ in range(l))
        se = math.sqrt(0.3 * 0.7 / l)
        assert total / l == pytest.approx(1.3, abs=4 * se)


class TestEstimateProfit:
    def test_exact_on_deterministic_net(self, two_node_net):
        est = estimate_profit_simulation(two_node_net, [0], 100, 7)
        assert est.mean_profit == pytest.approx(0.75, abs=1e-12)
        assert est.mean_adopters == pytest.approx(2.0)
        assert est.sample_count == 100
        assert est.estimator_kind == "simulation"

    def test_seed_cost_counted_once_per_seed(self, two_node_net):
        est = estimate_profit_simulation(two_node_net, [0, 1], 50, 7)
        assert est.mean_profit == pytest.approx(0.5, abs=1e-12)

    def test_repeated_seed_charged_once(self, two_node_net):
        once = estimate_profit_simulation(two_node_net, [0], 50, 7)
        assert estimate_profit_simulation(two_node_net, [0, 0], 50, 7) == once
        assert once.mean_profit == pytest.approx(0.75, abs=1e-12)

    def test_empty_seeds(self, two_node_net):
        est = estimate_profit_simulation(two_node_net, [], 10, 7)
        assert est.mean_profit == 0.0
        assert est.mean_adopters == 0.0

    def test_determinism_same_seed(self, lt_fork_net):
        a = estimate_profit_simulation(lt_fork_net, [0], 500, 42)
        b = estimate_profit_simulation(lt_fork_net, [0], 500, 42)
        assert a == b

    def test_determinism_fixed_worker_count(self, lt_fork_net):
        a = estimate_profit_simulation(lt_fork_net, [0], 500, 42, workers=3)
        b = estimate_profit_simulation(lt_fork_net, [0], 500, 42, workers=3)
        assert a == b

    def test_positive_sample_count_required(self, two_node_net):
        with pytest.raises(ParameterError, match="l must be a positive integer"):
            estimate_profit_simulation(two_node_net, [0], 0, 1)

    def test_stream_blocks_spawn_as_one_spawn(self):
        # children spawned block by block are those of one spawn of all
        blocks = list(stream_blocks(9, 3 * SIM_BLOCK + 5, SIM_BLOCK))
        assert [size for _, size in blocks] == [SIM_BLOCK] * 3 + [5]
        whole = np.random.SeedSequence(9).spawn(4)
        assert [c.generate_state(4).tolist() for c, _ in blocks] == [
            c.generate_state(4).tolist() for c in whole]

    def test_sample_count_is_capped(self, two_node_net):
        with pytest.raises(ParameterError, match="must be at most"):
            estimate_profit_simulation(two_node_net, [0], MAX_SAMPLES + 1, 1)

    def test_independent_of_worker_count(self, lt_fork_net):
        # the runs are split into fixed SIM_BLOCK-run blocks, not per worker
        l = 2 * SIM_BLOCK + 77
        a = lt_fork_net.graph.id_of(1)
        base = estimate_profit_simulation(lt_fork_net, [a], l, 42, workers=1)
        for workers in (2, 3):
            assert estimate_profit_simulation(
                lt_fork_net, [a], l, 42, workers=workers) == base


# (edges, seed labels, intrinsics): a chain, a cycle, and two seeds whose
# out-edges meet at one target (3 collapses two first-level edges, 4 is hit
# on the seeds' level and again one level later).  Under ic-wc every node
# of the chain and the cycle has in-degree 1, so its edges are certain.
# Then a seed that points at another seed, a node below the price that
# blocks the cascade, one that still relays because it is seeded, and the
# empty seed set.
KERNEL_CASES = {
    "chain": ("1 2\n2 3\n3 4\n", [1], None),
    "cycle": ("1 2\n2 3\n3 1\n", [1], None),
    "two-seeds": ("1 3\n2 3\n3 4\n2 4\n4 5\n", [1, 2], None),
    "seed-to-seed": ("1 2\n2 3\n", [1, 2], None),
    "ineligible-target": ("1 2\n2 3\n", [1], [0.9, 0.3, 0.9]),
    "ineligible-seed": ("1 2\n2 3\n", [1], [0.3, 0.9, 0.9]),
    # two cycles through a seed below the price, and a target below it
    "cycles-below-price": ("1 2\n2 3\n3 1\n4 1\n4 3\n3 5\n5 4\n", [4],
                           [0.9, 0.3, 0.9, 0.3, 0.9]),
    "empty": ("1 2\n2 3\n", [], None),
}


class TestKernel:
    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_mean_matches_exact_pi(self, model, case):
        edges, labels, intrinsics = KERNEL_CASES[case]
        net = make_net(edges, model=model, ic_p=0.5, intrinsics=intrinsics)
        seeds = [net.graph.id_of(lab) for lab in labels]
        l = 50_000
        counts = simulate_block(net, seeds, l, np.random.default_rng(20261018))
        assert counts.shape == (l,)
        assert counts.min() >= len(seeds)
        assert counts.max() <= net.n
        pi = exact_pi(net, seeds)
        se = counts.std(ddof=1) / math.sqrt(l)
        assert abs(counts.mean() - pi) <= 3.0 * se + 1e-12, (counts.mean(), pi, se)

    def test_simulate_once_is_a_block_of_one(self, lt_fork_net):
        a = lt_fork_net.graph.id_of(1)
        for seed in range(20):
            block = simulate_block(lt_fork_net, [a], 1, np.random.default_rng(seed))
            assert simulate_once(lt_fork_net, [a], np.random.default_rng(seed)) \
                == block[0]


def _row_sets(rng, n):
    """Seed sets for the rows of one call: fresh ones, an empty one, a
    repeat of an earlier row, and one that overlaps an earlier row."""
    sets = [rng.sample(range(n), rng.randint(1, 3)), []]
    sets.append(list(sets[0]))
    sets.append(sets[0][:1] + rng.sample(range(n), 2))
    for _ in range(rng.randint(0, 3)):
        sets.append(rng.sample(range(n), rng.randint(1, 4)))
    rng.shuffle(sets)
    return sets


def _golden_net(model):
    """A fixed 14-node net with about 40 edges and one node below the
    price."""
    rng = random.Random(20261018)
    intrinsics = [rng.choice([0.9, 0.9, 0.9, 0.3]) for _ in range(14)]
    return make_net(random_edge_text(rng, 14, 40), model=model, ic_p=0.4,
                    intrinsics=intrinsics)


class TestMultiSetKernel:
    @pytest.fixture
    def small_steps(self, monkeypatch):
        # small steps and chunks, so that a level's steps and a block's
        # chunks span several sets
        monkeypatch.setattr(diffusion, "EDGE_STEP", 4)
        monkeypatch.setattr(diffusion, "SIM_STATE_BYTES", 600)

    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    def test_one_set_call_is_simulate_block(self, model, small_steps):
        rng = random.Random(model)
        for _ in range(8):
            n = rng.randint(6, 30)
            intrinsics = [rng.choice([0.9, 0.9, 0.9, 0.3]) for _ in range(n)]
            net = make_net(random_edge_text(rng, n, rng.randint(n, 4 * n)),
                           model=model, ic_p=rng.uniform(0.2, 0.8),
                           intrinsics=intrinsics)
            seeds = rng.sample(range(net.n), rng.randint(1, 4))
            count = rng.randint(1, 60)
            seed = rng.randrange(1 << 30)
            gen, alone = np.random.default_rng(seed), np.random.default_rng(seed)
            row = simulate_sets(net, [seeds], count, gen)
            assert row.shape == (1, count)
            assert row.dtype == np.int64
            assert np.array_equal(row[0], simulate_block(net, seeds, count, alone))
            # and the call drew exactly as many uniforms
            assert gen.bit_generator.state == alone.bit_generator.state

    def test_certain_edges_give_every_row_its_reach(self, small_steps):
        # with p = 1 every run of a row adopts exactly the nodes its seeds
        # reach over eligible nodes, whatever the shared draws were
        rng = random.Random(20261019)
        for _ in range(12):
            n = rng.randint(6, 30)
            intrinsics = [rng.choice([0.9, 0.9, 0.9, 0.3]) for _ in range(n)]
            net = make_net(random_edge_text(rng, n, rng.randint(n, 3 * n)),
                           ic_p=1.0, intrinsics=intrinsics)
            real = sample_realization(net, 0)  # every edge into an eligible node
            sets = _row_sets(rng, net.n)
            count = rng.randint(1, 40)
            rows = simulate_sets(net, sets, count, np.random.default_rng(count))
            assert rows.tolist() == [[replay_on_realization(real, s)] * count
                                     for s in sets]

    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    def test_row_means_match_exact_pi(self, model, small_steps):
        # labels 2 and 4 are below the price: 4 as a seed, 2 as a target
        edges, _, intrinsics = KERNEL_CASES["cycles-below-price"]
        net = make_net(edges, model=model, ic_p=0.5, intrinsics=intrinsics)
        ids = net.graph.id_of
        sets = [[ids(4)], [ids(1)], [], [ids(3), ids(5)], [ids(4)],
                [ids(2), ids(5)], [ids(1), ids(4)]]
        l = 30_000
        rows = simulate_sets(net, sets, l, np.random.default_rng(20261018))
        for row, seeds in zip(rows, sets):
            pi = exact_pi(net, seeds)
            se = row.std(ddof=1) / math.sqrt(l)
            assert abs(row.mean() - pi) <= 3.0 * se + 1e-12, (seeds, row.mean(), pi, se)

    def test_rows_with_the_same_seeds_are_independent(self, lt_fork_net):
        # one generator feeds both rows, yet they share no draw
        l = 20_000
        for net in (lt_fork_net, make_net("1 2\n", ic_p=0.5)):
            a = net.graph.id_of(1)
            rows = simulate_sets(net, [[a], [a]], l, np.random.default_rng(1))
            assert not np.array_equal(rows[0], rows[1])
            corr = np.corrcoef(rows[0], rows[1])[0, 1]
            assert abs(corr) <= 4.0 / math.sqrt(l)

    def test_no_sets(self, two_node_net):
        assert simulate_sets(two_node_net, [], 5, np.random.default_rng(0)).shape == (0, 5)

    # simulate_block(net, [0, 5, 9], 24, default_rng(77)) on _golden_net:
    # under IC as the kernel drew before it took several seed sets, under
    # LT since it draws the picks up front; the small sizes split levels
    # into steps and blocks into chunks, and LT's picks, drawn run after
    # run, do not depend on the chunks
    GOLDEN = {
        ("ic-cp", False): [7, 12, 8, 11, 7, 11, 4, 6, 10, 8, 6, 3, 7, 13, 3,
                           8, 10, 5, 11, 9, 10, 5, 8, 12],
        ("ic-wc", False): [13, 5, 8, 10, 11, 8, 5, 9, 10, 12, 7, 5, 6, 8, 9,
                           13, 9, 8, 11, 9, 12, 7, 11, 8],
        ("lt", False): [4, 13, 12, 13, 6, 4, 12, 13, 8, 9, 5, 13, 10, 13, 13,
                        9, 13, 9, 13, 6, 9, 13, 5, 9],
        ("ic-cp", True): [9, 9, 11, 11, 6, 5, 8, 12, 9, 7, 8, 4, 9, 6, 4, 4,
                          3, 8, 11, 9, 12, 12, 10, 10],
        ("ic-wc", True): [12, 6, 7, 13, 6, 7, 12, 4, 10, 5, 6, 7, 10, 7, 7, 6,
                          10, 10, 10, 11, 11, 5, 12, 6],
        ("lt", True): [4, 13, 12, 13, 6, 4, 12, 13, 8, 9, 5, 13, 10, 13, 13,
                       9, 13, 9, 13, 6, 9, 13, 5, 9],
    }

    @pytest.mark.parametrize("model,small", sorted(GOLDEN),
                             ids=[f"{m}-{'small' if s else 'default'}"
                                  for m, s in sorted(GOLDEN)])
    def test_draws_are_pinned(self, model, small, monkeypatch):
        # every estimate, and spm's seed sets, rest on these exact draws
        if small:
            monkeypatch.setattr(diffusion, "EDGE_STEP", 4)
            monkeypatch.setattr(diffusion, "SIM_STATE_BYTES", 600)
        got = simulate_block(_golden_net(model), [0, 5, 9], 24,
                             np.random.default_rng(77))
        assert got.tolist() == self.GOLDEN[model, small]


def _path_net(n, intrinsics=None):
    """An LT path 1 -> 2 -> ... -> n."""
    return make_net("".join(f"{v} {v + 1}\n" for v in range(1, n)), model="lt",
                    intrinsics=intrinsics)


class TestLTPicks:
    @pytest.mark.parametrize("small", [False, True])
    def test_path_adopts_past_64_levels(self, small, monkeypatch):
        if small:
            monkeypatch.setattr(diffusion, "SIM_STATE_BYTES", 600)
        net = _path_net(100)
        counts = simulate_block(net, [net.graph.id_of(1)], 30,
                                np.random.default_rng(1))
        assert counts.tolist() == [100] * 30

    def test_node_below_price_stops_the_path(self):
        intrinsics = [0.9] * 100
        intrinsics[49] = 0.3
        net = _path_net(100, intrinsics)
        assert net.graph.id_of(50) == 49
        counts = simulate_block(net, [net.graph.id_of(1)], 30,
                                np.random.default_rng(2))
        assert counts.tolist() == [49] * 30

    def test_cycle_without_a_seed_never_adopts(self):
        net = make_net("1 2\n2 3\n3 1\n4 5\n", model="lt")
        rows = simulate_sets(net, [[net.graph.id_of(4)], [net.graph.id_of(2)]], 30,
                             np.random.default_rng(3))
        assert rows.tolist() == [[2] * 30, [3] * 30]

    def test_runs_replay_the_live_in_edges(self, monkeypatch):
        # a run's picks are _live_in_edges' draw of its realization, so
        # every run's count is that realization's replay
        monkeypatch.setattr(diffusion, "SIM_STATE_BYTES", 600)
        rng = random.Random(20261019)
        for _ in range(10):
            n = rng.randint(4, 30)
            intrinsics = [rng.choice([0.9, 0.9, 0.3]) for _ in range(n)]
            net = make_net(random_edge_text(rng, n, rng.randint(n, 3 * n)),
                           model="lt", intrinsics=intrinsics)
            seeds = rng.sample(range(net.n), rng.randint(1, 3))
            count = rng.randint(1, 40)
            reals = _realizations(net, *_live_in_edges(
                net, count, np.random.default_rng(n)))
            got = simulate_block(net, seeds, count, np.random.default_rng(n))
            assert got.tolist() == [replay_on_realization(real, seeds)
                                    for real in reals]


def _live_sources(net, v, runs, seed):
    """Node v's live in-edge sources in each of runs realizations, drawn
    by one _live_in_edges call from default_rng(seed)."""
    indptr, sources = _live_in_edges(net, runs, np.random.default_rng(seed))
    at = np.arange(runs) * net.n + v
    return [sources[a:b].tolist() for a, b in zip(indptr[at], indptr[at + 1])]


class TestTriggeringSets:
    def test_ineligible_node_has_empty_distribution(self):
        net = make_net("1 2\n2 3\n", ic_p=1.0, intrinsics=[0.9, 0.3, 0.9])
        assert _live_sources(net, 1, 10, 0) == [[]] * 10

    def test_certain_edges_give_all_in_neighbors(self, two_node_net):
        assert _live_sources(two_node_net, 1, 10, 0) == [[0]] * 10
        assert _live_sources(two_node_net, 0, 10, 0) == [[]] * 10

    def test_lt_picks_exactly_one_in_neighbor(self, lt_fork_net):
        c = lt_fork_net.graph.id_of(3)
        g = lt_fork_net.graph
        parents = set(g.in_indices[g.in_indptr[c]:g.in_indptr[c + 1]].tolist())
        picks = _live_sources(lt_fork_net, c, 200, 1)
        assert all(len(t) == 1 and t[0] in parents for t in picks)
        assert {t[0] for t in picks} == parents

    def test_lt_choice_is_uniform(self, lt_fork_net):
        from scipy import stats
        c = lt_fork_net.graph.id_of(3)
        trials = 10_000
        counts = Counter(u for (u,) in _live_sources(lt_fork_net, c, trials, 2))
        chi2 = sum((obs - trials / 2) ** 2 / (trials / 2)
                   for obs in counts.values())
        assert chi2 < stats.chi2.ppf(0.999, df=1)

    def test_ic_inclusion_marginal(self):
        # each in-edge of the fork tip toggles independently with prob p
        net = make_net("1 3\n2 3\n", ic_p=0.4)
        c = net.graph.id_of(3)
        trials = 20_000
        hits = sum(net.graph.id_of(1) in t for t in _live_sources(net, c, trials, 3))
        se = math.sqrt(0.4 * 0.6 / trials)
        assert hits / trials == pytest.approx(0.4, abs=4 * se)


class TestRealizations:
    def test_replay_matches_triggering_reachability(self):
        # fixed triggering sets: 0 triggers 1, 1 triggers 2
        real = Realization.from_triggering(((), (0,), (1,)))
        assert replay_on_realization(real, [0]) == 3
        assert replay_on_realization(real, [2]) == 1
        assert replay_on_realization(real, []) == 0

    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    def test_sample_is_one_run_of_the_live_in_edges(self, model):
        # sample_realization freezes the draw rpm's realizations are made
        # of; labels 2 and 4 are below the price
        edges, _, intrinsics = KERNEL_CASES["cycles-below-price"]
        net = make_net(edges, model=model, ic_p=0.5, intrinsics=intrinsics)
        drawn = 0
        for seed in range(20):
            ss = np.random.SeedSequence(seed)
            indptr, sources = _live_in_edges(net, 1, np.random.default_rng(ss))
            want = tuple(tuple(sources[a:b].tolist())
                         for a, b in zip(indptr[:-1], indptr[1:]))
            assert sample_realization(net, ss).triggering == want
            drawn += sources.size
        assert drawn

    def test_sampled_realization_respects_model(self, two_node_net):
        real = sample_realization(two_node_net, 0)
        assert real.triggering[1] == (0,)
        assert real.triggering[0] == ()

    def test_replay_mean_matches_simulation(self, lt_fork_net):
        a = lt_fork_net.graph.id_of(1)
        l = 20_000
        ss = np.random.SeedSequence(9)
        total = 0
        for child in ss.spawn(l):
            total += replay_on_realization(sample_realization(lt_fork_net, child), [a])
        se = math.sqrt(0.25 / l)
        assert total / l == pytest.approx(1.5, abs=4 * se)

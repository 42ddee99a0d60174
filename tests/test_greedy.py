import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitmax import (MODELS, CollectionBuilder, CoverageOracle,
                       FunctionOracle, RACollection, double_greedy, estimate_F,
                       generate_collection, node_order)
from profitmax.algorithms import _realization_collection
from profitmax.greedy import SCALAR_BATCH, _latest_conflicts
from profitmax.sampling import INDEX_CHUNK

from conftest import (collection_of, make_net, random_edge_text, random_small_net,
                      rat_large_net, stored_layout)


def run_modular(weights, rng_seed=0, shift=0.0):
    def f(sets):
        return [sum(weights[v] for v in s) for s in sets]
    oracle = FunctionOracle(f, range(len(weights)), shift=shift)
    return double_greedy(oracle, range(len(weights)), random.Random(rng_seed))


class TestModularFunctions:
    def test_positive_weights_all_kept(self):
        assert run_modular([1.0, 2.0, 0.5]) == frozenset({0, 1, 2})

    def test_negative_weights_all_dropped(self):
        assert run_modular([-1.0, -2.0]) == frozenset()

    def test_mixed_weights_sign_split(self):
        # modular: a = w_v, b = -w_v; exactly one side is positive
        assert run_modular([3.0, -1.0, 2.0, -0.1]) == frozenset({0, 2})

    @given(ws=st.lists(st.floats(-5, 5, allow_nan=False).filter(
               lambda w: w == 0.0 or abs(w) > 1e-6),
           min_size=1, max_size=8),
           seed=st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_modular_property(self, ws, seed):
        # weights near the sum's rounding noise are excluded by the filter:
        # they would be absorbed when the test itself sums them
        got = run_modular(ws, rng_seed=seed)
        want = frozenset(v for v, w in enumerate(ws) if w > 0)
        nonzero = frozenset(v for v, w in enumerate(ws) if w != 0)
        assert got & nonzero == want


class TestTwoNodeTrace:
    def test_exact_oracle_always_picks_first(self, two_node_net):
        # a/b gains make both steps deterministic whatever the coin does
        from profitmax import exact_profit
        for seed in range(10):
            oracle = FunctionOracle(
                lambda sets: [exact_profit(two_node_net, s) for s in sets], range(2))
            got = double_greedy(oracle, range(2), random.Random(seed))
            assert got == frozenset({0})

    def test_inspection_count(self, two_node_net):
        # X + v, X, Y - v and Y at the first node, then X + v and Y - v:
        # h(X) and h(Y) are carried
        from profitmax import exact_profit
        asked = []

        def evaluate(sets):
            asked.append(len(sets))
            return [exact_profit(two_node_net, s) for s in sets]

        oracle = FunctionOracle(evaluate, range(2))
        double_greedy(oracle, range(2), random.Random(0))
        assert oracle.inspections == 6
        assert asked == [4, 2]


def four_evaluation_pass(h, order, shift, rand):
    """Double greedy evaluating h at X + v, X, Y - v and Y at every node."""
    x, y = set(), set(order)
    for v in order:
        a = h(x | {v}) - h(x) + shift
        b = h(y - {v}) - h(y) + shift
        a, b = max(a, 0.0), max(b, 0.0)
        if a + b == 0.0 or rand() < a / (a + b):
            x.add(v)
        else:
            y.discard(v)
    return frozenset(x)


class TestCarriedValues:
    @given(n=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2 ** 32),
           shift=st.sampled_from([0.0, 0.25]))
    @settings(max_examples=200, deadline=None)
    def test_picks_what_four_evaluations_pick(self, n, data, seed, shift):
        # any deterministic table, not only a submodular one: carrying
        # h(X) and h(Y) must not change a single pick or coin
        values = data.draw(st.lists(
            st.floats(-4, 4, allow_nan=False) | st.integers(-3, 3).map(float),
            min_size=1 << n, max_size=1 << n))
        order = data.draw(st.permutations(range(n)))

        def h(s):
            return values[sum(1 << v for v in s)]

        oracle = FunctionOracle(lambda sets: [h(s) for s in sets], range(n),
                                shift=shift)
        got = double_greedy(oracle, order, random.Random(seed))
        assert got == four_evaluation_pass(h, order, shift,
                                           random.Random(seed).random)
        assert oracle.inspections == 2 * n + 2

    def test_apply_without_gains_evaluates_afresh(self):
        # a decision the oracle did not evaluate leaves no carried value
        asked = []

        def evaluate(sets):
            asked.append(sets)
            return [float(len(s)) for s in sets]

        oracle = FunctionOracle(evaluate, range(3))
        oracle.gains(0)
        oracle.apply(1, True)
        assert oracle.gains(2) == (1.0, -1.0)
        assert asked[-1] == [frozenset({1, 2}), frozenset({1}),
                             frozenset({0, 1}), frozenset({0, 1, 2})]


class TestCoverageOracle:
    def test_matches_generic_oracle_exactly(self):
        # the incremental counters must reproduce the recomputed estimate
        rng = random.Random(500)
        for trial in range(10):
            net = random_small_net(rng, n_max=7)
            coll = generate_collection(net, 200, trial)
            fast = CoverageOracle(coll, net.price, net.coupon)
            slow = FunctionOracle(lambda sets: [estimate_F(coll, s, net) for s in sets],
                                  range(net.n))
            order = list(range(net.n))
            rng.shuffle(order)
            a = double_greedy(fast, order, random.Random(trial))
            b = double_greedy(slow, order, random.Random(trial))
            assert a == b

    def test_gains_match_finite_differences(self):
        rng = random.Random(501)
        net = random_small_net(rng, n_max=6)
        coll = generate_collection(net, 150, 3)
        oracle = CoverageOracle(coll, net.price, net.coupon)
        x, y = set(), set(range(net.n))
        for v in range(net.n):
            add_fd = estimate_F(coll, x | {v}, net) - estimate_F(coll, x, net)
            rem_fd = estimate_F(coll, y - {v}, net) - estimate_F(coll, y, net)
            a, b = oracle.gains(v)
            assert a == pytest.approx(add_fd, abs=1e-9)
            assert b == pytest.approx(rem_fd, abs=1e-9)
            include = v % 2 == 0
            oracle.apply(v, include)
            if include:
                x.add(v)
            else:
                y.discard(v)

    def test_current_value_tracks_estimate(self):
        rng = random.Random(502)
        net = random_small_net(rng, n_max=6)
        coll = generate_collection(net, 100, 4)
        oracle = CoverageOracle(coll, net.price, net.coupon)
        for v in range(net.n):
            oracle.apply(v, v % 3 != 0)
        assert oracle.current_value() == pytest.approx(
            estimate_F(coll, oracle.x, net), abs=1e-9)


class TestShift:
    def test_shift_randomizes_clear_cut_decisions(self):
        # without the shift a negative-weight singleton is never kept; a
        # large shift pushes its inclusion probability toward 1/2
        kept_plain = sum(bool(run_modular([-1.0], rng_seed=s)) for s in range(200))
        kept_shift = sum(bool(run_modular([-1.0], rng_seed=s, shift=50.0))
                         for s in range(200))
        assert kept_plain == 0
        assert 50 <= kept_shift <= 150


class _Sequential:
    """Only the per-node interface of an oracle, so that double_greedy
    drives it with its sequential loop."""

    def __init__(self, oracle):
        self.gains = oracle.gains
        self.apply = oracle.apply
        self.x = oracle.x


class _Forwarding:
    """A proxy that counts marginal queries and forwards every other
    attribute, as a tracing wrapper would."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.queries = 0

    def gains(self, v):
        self.queries += 1
        return self._oracle.gains(v)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def _sparse_net(rng, model, density=1):
    """A random net of 40-160 nodes with about density * n edges and
    probability 0.05 * density under IC: at density 1, most RA sets hold
    only their root."""
    n = rng.randint(40, 160)
    price = rng.uniform(0.2, 0.9)
    coupon = rng.uniform(0.0, price * 0.9)
    return make_net(random_edge_text(rng, n, density * n), model=model,
                    ic_p=0.05 * density, price=price, coupon=coupon,
                    intrinsics=[rng.uniform(price - coupon, 1.0) for _ in range(n)])


def _collections(net, seed):
    """(name, collection, order) as ra-t, ra-s and rpm build them."""
    order = node_order(net, 200, seed)
    grown = CollectionBuilder(net)
    grown.extend(400, seed)
    grown.extend(1200, seed + 1)  # a second doubling round
    rr = _realization_collection(net, 20, np.random.SeedSequence(seed), 64.0)
    return [("ra-t", generate_collection(net, 3000, seed), order),
            ("ra-s", grown.snapshot(), order),
            ("rpm", rr, list(range(net.n)))]


class TestBatchedPass:
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_sequential_pass(self, model):
        # the batched pass must leave exactly the state of the sequential
        # loop: members, both counters, F and the coin stream
        rng = random.Random(f"batched/{model}")
        vectorised = 0
        for trial in range(3):
            net = _sparse_net(rng, model, density=1 + 2 * trial)
            shift = rng.choice([0.0, 0.3 * net.price])
            for name, coll, order in _collections(net, trial):
                for batched in (True, False):
                    fast = CoverageOracle(coll, net.price, net.coupon, shift)
                    fast.batched = batched
                    slow = CoverageOracle(coll, net.price, net.coupon, shift)
                    coins_fast, coins_slow = random.Random(trial), random.Random(trial)
                    got = double_greedy(fast, order, coins_fast)
                    want = double_greedy(_Sequential(slow), order, coins_slow)
                    assert got == want, (name, batched)
                    assert np.array_equal(fast.count_x, slow.count_x)
                    assert np.array_equal(fast.count_y, slow.count_y)
                    assert fast.current_value() == slow.current_value()
                    assert coins_fast.getstate() == coins_slow.getstate()
                cuts = np.diff(fast.plan(order)[1])
                vectorised += int(np.count_nonzero(cuts >= SCALAR_BATCH))
        assert vectorised  # some batches ran through the vectorised body

    def test_vanishing_marginals_admit_without_a_coin(self):
        # unit = coupon = 1, so a node whose one set is {v} has a = b = 0
        # and is admitted outright: in the batch of nodes 0-6 only node 6
        # draws a coin
        coll = collection_of(8, [[0], [1], [2], [3], [4], [5], [6, 7], [6, 7]])
        for seed in range(10):
            fast = CoverageOracle(coll, 1.0, 1.0)
            fast.batched = True
            assert fast.plan(range(8))[1] == [0, 7, 8]
            coins_fast, coins_slow = random.Random(seed), random.Random(seed)
            got = double_greedy(fast, range(8), coins_fast)
            assert got == double_greedy(_Sequential(CoverageOracle(coll, 1.0, 1.0)),
                                        range(8), coins_slow)
            assert set(range(6)) <= got
            assert coins_fast.getstate() == coins_slow.getstate()

    def test_forwarding_proxy_reaches_batched_pass(self):
        rng = random.Random(41)
        net = _sparse_net(rng, "ic-cp")
        name, coll, order = _collections(net, 5)[0]
        proxy = _Forwarding(CoverageOracle(coll, net.price, net.coupon))
        want = double_greedy(_Sequential(CoverageOracle(coll, net.price, net.coupon)),
                             order, random.Random(2))
        assert double_greedy(proxy, order, random.Random(2)) == want
        assert proxy.queries == 0

    @pytest.mark.parametrize("order", [[0, 0, 2, 3, 4], [0, 1, 2, 3],
                                       [0, 1, 2, 3, 5], [4, 3, 2, 1, 1]],
                             ids=["repeated", "missing", "out-of-range",
                                  "repeated-last"])
    def test_order_must_be_a_permutation(self, order):
        coll = collection_of(5, [[0, 1], [1, 2], [2]])
        with pytest.raises(ValueError, match="permutation"):
            double_greedy(CoverageOracle(coll, 1.0, 0.5), order, random.Random(0))

    def test_oracle_and_plan_scratch_is_bounded(self):
        # a million sets over 1000 nodes, 95% of them with one member,
        # stored as at most 1000 weighted sets; the scratch allowance is
        # below a byte per one-member set, so no array over every drawn
        # set fits into it
        rng = np.random.default_rng(3)
        n, count = 1000, 1_000_000
        sizes = np.where(rng.random(count) < 0.95, 1, rng.integers(2, 5, count))
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        # consecutive nodes from a random start: distinct within a set
        step = np.arange(offsets[-1]) - np.repeat(offsets[:-1], sizes)
        members = ((np.repeat(rng.integers(0, n, count), sizes) + step) % n
                   ).astype(np.int32)
        coll = RACollection(n, *stored_layout(n, sizes, members))
        order = rng.permutation(n)
        del sizes, step
        tracemalloc.start()
        try:
            oracle = CoverageOracle(coll, 1.0, 0.5)
            order, cuts, plan_offsets, plan_sets = oracle.plan(order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (
            oracle.count_x, oracle.count_y, order, plan_offsets, plan_sets))
        # while it indexes them, the plan also holds the members relabelled
        # by position; beyond that, chunk scratch, the X and Y node sets
        # and a few arrays per node
        scratch = 64 * INDEX_CHUNK + 256 * n
        assert scratch < coll.weights[coll.sizes() == 1].sum()
        assert peak <= kept + coll.members.nbytes + scratch

    def test_construction_holds_counters_only(self):
        # the one-member sets of a rat-large-shaped collection are stored
        # as at most n weighted sets, and the oracle reads the weights in
        # place: it copies no part of the collection
        net = rat_large_net()
        coll = generate_collection(net, 600_000, 7)
        tracemalloc.start()
        try:
            oracle = CoverageOracle(coll, net.price, net.coupon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oracle.weights is coll.weights
        # its two int32 counters and one int64 size per stored set, and the
        # Y node set: a hash table resized as it fills, and an int per node
        assert peak <= 4 * oracle.count_y.nbytes + 160 * net.n
        assert peak < 2 << 20


@st.composite
def _collection_and_order(draw):
    n = draw(st.integers(1, 12))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                         min_size=1, max_size=30))
    coll = collection_of(n, [sorted(s) for s in sets])
    return coll, sets, draw(st.permutations(range(n)))


class TestPlan:
    @given(case=_collection_and_order())
    @settings(max_examples=200, deadline=None)
    def test_batches_are_maximal_conflict_free_runs(self, case):
        coll, sets, order = case
        oracle = CoverageOracle(coll, 1.0, 0.5)
        got_order, cuts, offsets, by_position = oracle.plan(order)
        assert got_order.tolist() == list(order)
        assert cuts[0] == 0 and cuts[-1] == coll.n
        assert all(a < b for a, b in zip(cuts[:-1], cuts[1:]))
        shared = [s for s in sets if len(s) > 1]
        for s, e in zip(cuts[:-1], cuts[1:]):
            batch = set(order[s:e])
            # no multi-member set holds two nodes of one batch
            assert all(len(m & batch) <= 1 for m in shared)
            # and the next node shares one with the batch
            if e < coll.n:
                assert any(order[e] in m and m & batch for m in shared)
        for p, v in enumerate(order):
            assert list(by_position[offsets[p]:offsets[p + 1]]) == \
                list(oracle._sets_of(v))


def _brute_latest_conflicts(n, sets):
    return [max((u for s in sets if v in s for u in s if u < v), default=-1)
            for v in range(n)]


class TestLatestConflicts:
    def test_one_member_sets_are_skipped(self):
        # a one-member set pairs its node with no other
        coll = collection_of(4, [[0, 1], [2], [3], [1, 2]])
        assert _latest_conflicts(coll).tolist() == [-1, 0, 1, -1]

    @given(case=_collection_and_order())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, case):
        coll, sets, _ = case
        assert _latest_conflicts(coll).tolist() == _brute_latest_conflicts(coll.n, sets)

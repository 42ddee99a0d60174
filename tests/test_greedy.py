import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitmax import (MODELS, CollectionBuilder, CoverageOracle,
                       FunctionOracle, RACollection, double_greedy, estimate_F,
                       generate_collection, node_order)
from profitmax import greedy
from profitmax.greedy import _admit
from profitmax.algorithms import _realization_collection
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
        coin = rand()  # one coin per node, used or not
        if a + b == 0.0 or coin < a / (a + b):
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


def _record_rounds(monkeypatch):
    """Record the bounds pass's work: ("round", open, decided) per round
    and ("steps", nodes) when the rest take scalar steps."""
    work = []
    decide, steps = CoverageOracle._bound_decisions, CoverageOracle._steps

    def recorded_round(self, *args):
        admitted, decided = decide(self, *args)
        work.append(("round", decided.size, int(decided.sum())))
        return admitted, decided

    def recorded_steps(self, left, *args):
        work.append(("steps", left.size))
        return steps(self, left, *args)

    monkeypatch.setattr(CoverageOracle, "_bound_decisions", recorded_round)
    monkeypatch.setattr(CoverageOracle, "_steps", recorded_steps)
    return work


def _assert_pass_is_sequential(coll, price, coupon, shift, order, seed):
    """The pass must leave exactly the state of the sequential loop:
    members, both counters, F and the coin stream.  Returns the members."""
    fast = CoverageOracle(coll, price, coupon, shift)
    slow = CoverageOracle(coll, price, coupon, shift)
    coins_fast, coins_slow = random.Random(seed), random.Random(seed)
    got = double_greedy(fast, order, coins_fast)
    assert got == double_greedy(_Sequential(slow), order, coins_slow)
    assert np.array_equal(fast.count_x, slow.count_x)
    assert np.array_equal(fast.count_y, slow.count_y)
    assert fast.current_value() == slow.current_value()
    assert coins_fast.getstate() == coins_slow.getstate()
    return got


class TestBatchedPass:
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_sequential_pass(self, model, monkeypatch):
        # ra-t, ra-s and rpm collections, sparse and denser, with and
        # without a shift; with the default hand-over to scalar steps, and
        # with rounds until one decides fewer than half of the open nodes
        rng = random.Random(f"batched/{model}")
        work = _record_rounds(monkeypatch)
        for trial in range(3):
            net = _sparse_net(rng, model, density=1 + 2 * trial)
            shift = rng.choice([0.0, 0.3 * net.price])
            for name, coll, order in _collections(net, trial):
                for step_nodes in (greedy.STEP_NODES, 0):
                    with mock.patch.object(greedy, "STEP_NODES", step_nodes):
                        _assert_pass_is_sequential(coll, net.price, net.coupon, shift,
                                                   order, trial)
        # 18 passes: some went past round 1, and some ended in scalar steps
        assert sum(kind == "round" for kind, *_ in work) > 18
        assert any(kind == "steps" for kind, *_ in work)

    def test_vanishing_marginals_admit_whatever_the_coin(self, monkeypatch):
        # unit = coupon = 1, so a node whose one set is {v} has a = b = 0
        # and is admitted outright: round 1 decides nodes 0-5 whatever
        # their coins
        coll = collection_of(8, [[0], [1], [2], [3], [4], [5], [6, 7], [6, 7]])
        work = _record_rounds(monkeypatch)
        for seed in range(10):
            work.clear()
            got = _assert_pass_is_sequential(coll, 1.0, 1.0, 0.0, range(8), seed)
            assert set(range(6)) <= got
            assert work[0][:2] == ("round", 8) and work[0][2] >= 6

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
                                       [0, 1, 2, 3, 5], [4, 3, 2, 1, 1],
                                       [-1, 1, 2, 3, 4]],
                             ids=["repeated", "missing", "out-of-range",
                                  "repeated-last", "negative"])
    def test_order_must_be_a_permutation(self, order):
        coll = collection_of(5, [[0, 1], [1, 2], [2]])
        with pytest.raises(ValueError, match="permutation"):
            double_greedy(CoverageOracle(coll, 1.0, 0.5), order, random.Random(0))

    def test_empty_stored_set_refused(self):
        coll = RACollection(3, [0, 2, 2, 3], [0, 1, 2], [1, 1, 1])
        with pytest.raises(ValueError, match="member"):
            CoverageOracle(coll, 1.0, 0.5).greedy_pass(range(3), random.Random(0))

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
            oracle.greedy_pass(order, random.Random(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counters = oracle.count_x.nbytes + oracle.count_y.nbytes
        # the whole pass: the counters, one int32 per entry (each entry's
        # set), chunk scratch, the coins and a few arrays per node
        scratch = 64 * INDEX_CHUNK + 256 * n
        assert scratch < coll.weights[coll.sizes() == 1].sum()
        assert peak <= counters + coll.members.nbytes + scratch

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
def _weighted_case(draw):
    """(collection, price, coupon, shift, order): up to 25 sets over up to
    10 nodes, repeats allowed, each weighted 1 to 6."""
    n = draw(st.integers(1, 10))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                         min_size=1, max_size=25))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(sets), max_size=len(sets)))
    coll = RACollection(n, np.cumsum([0] + [len(s) for s in sets]),
                        [v for s in sets for v in sorted(s)], weights)
    price = draw(st.floats(0.05, 1.0))
    coupon = price * draw(st.floats(0.0, 0.95))
    shift = price * draw(st.sampled_from([0.0, 0.1, 0.5]))
    return coll, price, coupon, shift, draw(st.permutations(range(n)))


@st.composite
def _bounded_counts(draw):
    """(lo, exact, hi) of newly and of lost: integer counts, small or up
    to 2^53, each trio ascending."""
    counts = draw(st.sampled_from([st.integers(0, 40), st.integers(0, 2 ** 53)]))
    trio = st.lists(counts, min_size=3, max_size=3).map(sorted)
    return draw(trio), draw(trio)


def _ulps_from(x, steps):
    """x moved steps floats up (or down, for negative steps), kept in [0, 1)."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return float(min(max(x, 0.0), np.nextafter(1.0, 0.0)))


class TestBoundRule:
    @given(counts=_bounded_counts(), unit=st.floats(1e-6, 1e6),
           coupon=st.floats(0.0, 1e6), shift=st.just(0.0) | st.floats(0.0, 1e3),
           data=st.data())
    @settings(deadline=None)
    def test_early_decisions_are_exact(self, counts, unit, coupon, shift, data):
        # whatever the exact counts between the bounds, a node the bounds
        # decide is decided as at its exact counts
        (newly_lo, newly, newly_hi), (lost_lo, lost, lost_hi) = counts
        oracle = CoverageOracle(collection_of(1, [[0]]), 1.0, coupon, shift)
        oracle.unit = unit
        # a uniform coin, or one a few ulps from the exact threshold
        near = float(oracle._ratio(np.int64(newly), np.int64(lost)))
        coin = data.draw(st.floats(0.0, 1.0, exclude_max=True)
                         | st.integers(-3, 3).map(lambda k: _ulps_from(near, k)))
        admitted, decided = oracle._bound_decisions(
            *(np.array([c], dtype=np.int64) for c in (newly_lo, lost_lo, newly_hi, lost_hi)),
            np.array([coin]))
        assert not (admitted & ~decided).any()
        if decided[0]:
            assert admitted[0] == _admit(*oracle._marginals(newly, lost), coin)
        if (newly_lo, lost_lo) == (newly_hi, lost_hi):
            assert decided[0]

    def test_margin_keeps_adjacent_counts_exact(self):
        # newly 7798569933596158 has a higher computed threshold than one
        # more; a coin between the two thresholds is rejected at the
        # higher count, which the lo count's threshold alone would admit
        oracle = CoverageOracle(collection_of(1, [[0]]), 1.0, 1264986047609403.0)
        oracle.unit = 0.5265825119585663
        newly, lost = np.array([7798569933596158]), np.array([1738522128863506])
        low, exact = (oracle._ratio(newly + d, lost)[0] for d in (0, 1))
        assert exact < low
        coin = np.array([exact])
        assert not _admit(*oracle._marginals(newly[0] + 1, lost[0]), exact)
        admitted, decided = oracle._bound_decisions(newly, lost, newly + 2, lost, coin)
        assert not admitted[0] and not decided[0]


class TestBounds:
    @given(case=_weighted_case(), seed=st.integers(0, 2 ** 32))
    @settings(deadline=None)
    def test_matches_sequential_pass(self, case, seed):
        # with the default hand-over to scalar steps, and with rounds
        # until one decides fewer than half of the open nodes
        for step_nodes in (greedy.STEP_NODES, 0):
            with mock.patch.object(greedy, "STEP_NODES", step_nodes):
                _assert_pass_is_sequential(*case, seed)

    @pytest.mark.parametrize("sets,weights,coupon,members", [
        # node 1's a is -coupon once node 0 covers {0, 1}, and its b is
        # -coupon less once node 0 leaves Y: its threshold is 0 or 1
        ([[0], [0, 1], [2]], [4, 4, 2], 0.03, {0, 2}),
        # node 0 leaves Y, so node 1 is the last Y-member of {0, 1}: both
        # its marginals vanish, and it is admitted whatever its coin
        ([[0, 1], [2]], [1, 3], 0.75, {1, 2}),
    ], ids=["newly", "lost"])
    def test_open_node_waits_for_the_node_it_hangs_on(self, sets, weights, coupon,
                                                      members, monkeypatch):
        coll = RACollection(3, np.cumsum([0] + [len(s) for s in sets]),
                            np.concatenate(sets), weights)
        work = _record_rounds(monkeypatch)
        # round 1 decides nodes 0 and 2; node 1 takes a scalar step, or,
        # with no hand-over, round 2 decides it from exact bounds
        assert _assert_pass_is_sequential(coll, 1.0, coupon, 0.0, range(3), 0) == members
        assert work == [("round", 3, 2), ("steps", 1)]
        work.clear()
        with mock.patch.object(greedy, "STEP_NODES", 0):
            assert _assert_pass_is_sequential(coll, 1.0, coupon, 0.0, range(3), 0) == members
        assert work == [("round", 3, 2), ("round", 1, 1)]

    def test_bounds_that_agree_decide_in_round_one(self, monkeypatch):
        # unit = coupon = 0.75.  Node 1 is admitted outright if node 0 is
        # rejected (a' > 0 = b'), and outright if node 0 covers {0, 1}
        # (both marginals vanish): round 1 decides it whatever its coin
        coll = collection_of(3, [[0, 1], [1], [0], [2]])
        work = _record_rounds(monkeypatch)
        assert CoverageOracle(coll, 1.0, 0.75).gains(1) == (0.75, 0.0)
        for seed in range(5):
            work.clear()
            assert _assert_pass_is_sequential(coll, 1.0, 0.75, 0.0, range(3), seed) \
                == {0, 1, 2}
            assert work == [("round", 3, 3)]

    def test_agrees_with_sequential_pass_on_rat_large(self, monkeypatch):
        net = rat_large_net()
        coll = generate_collection(net, 600_000, 7)
        work = _record_rounds(monkeypatch)
        _assert_pass_is_sequential(coll, net.price, net.coupon, 0.0,
                                   node_order(net, 2000, 7), 7)
        rounds = [entry for entry in work if entry[0] == "round"]
        assert rounds[0] == ("round", net.n, rounds[0][2]) and len(rounds) >= 3
        # every round but the last decides most of the open nodes
        assert all(2 * decided >= nodes for _, nodes, decided in rounds)

    def test_chain_stays_within_the_worst_case(self, monkeypatch):
        # sets {i, i + 1}: node i + 1 is admitted outright when node i is
        # rejected, and with chance 1 - coupon / unit otherwise, so its
        # bounds stay apart until node i is decided
        n = 2000
        coll = RACollection(n, np.arange(0, 2 * n - 1, 2),
                            np.stack([np.arange(n - 1), np.arange(1, n)], 1).reshape(-1),
                            np.ones(n - 1, dtype=np.int64))
        work = _record_rounds(monkeypatch)
        _assert_pass_is_sequential(coll, 1.0, 0.9, 0.0, range(n), 3)
        rounds = [entry for entry in work if entry[0] == "round"]
        # at most log2(n) + 1 rounds, each but the last deciding half of
        # the open nodes or more, then a scalar step per open node left
        assert len(rounds) <= math.log2(n) + 1
        assert all(2 * decided >= nodes for _, nodes, decided in rounds[:-1])
        kind, left = work[-1]
        assert kind == "steps" and left == rounds[-1][1] - rounds[-1][2] > n // 2


def _coverage_values(coll, price, coupon):
    """An evaluator of the coverage estimator F over coll, set by set."""
    stored = [set(coll.members_of(i).tolist()) for i in range(len(coll.offsets) - 1)]
    unit = price * coll.n / len(coll)

    def evaluate(sets):
        return [unit * sum(int(w) for m, w in zip(stored, coll.weights) if m & s)
                - coupon * len(s) for s in sets]
    return evaluate


class TestOneCoinPerNode:
    @pytest.mark.parametrize("path", ["function", "scalar", "rounds", "steps"])
    def test_every_path_draws_one_coin_per_node(self, path):
        # unit = coupon = 1: the marginals of nodes 0-5, each alone in its
        # one set, both vanish, and nodes 6 and 7 share two sets.  The
        # pass runs rounds with no hand-over, or hands every node round 1
        # leaves open to scalar steps
        coll = collection_of(8, [[0], [1], [2], [3], [4], [5], [6, 7], [6, 7]])
        for seed in range(5):
            order = random.Random(seed).sample(range(8), 8)
            if path == "function":
                oracle = FunctionOracle(_coverage_values(coll, 1.0, 1.0), range(8))
            elif path == "scalar":
                oracle = _Sequential(CoverageOracle(coll, 1.0, 1.0))
            else:
                oracle = CoverageOracle(coll, 1.0, 1.0)
            rng = random.Random(seed)
            with mock.patch.object(greedy, "STEP_NODES", 0 if path == "rounds" else 8):
                got = double_greedy(oracle, order, rng)
            assert set(range(6)) <= got
            want = random.Random(seed)
            for _ in order:
                want.random()
            assert rng.getstate() == want.getstate()

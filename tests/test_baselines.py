import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitmax import ParameterError, baselines, high_degree, max_inf
from profitmax.baselines import _coverage_greedy_chain

from conftest import collection_of, make_net


def star_net():
    return make_net("2 1\n2 3\n", ic_p=1.0)


class TestMaxInf:
    def test_sweep_targets_cover_size_grid(self):
        net = star_net()
        res = max_inf(net, sweep_points=50, eval_simulations=50, seed=1)
        swept = [size for size, _ in res.extras["sweep"]]
        want = sorted({min(net.n, math.ceil(net.n * i / 50))
                       for i in range(1, 51)})
        assert swept == want

    def test_sweep_points_past_the_grid_change_nothing(self):
        # from i = 50 on every target is n, so a huge count sweeps the
        # same sizes, and at once
        net = make_net("1 2\n2 3\n", ic_p=0.5)
        want = max_inf(net, sweep_points=50, eval_simulations=30, seed=4)
        got = max_inf(net, sweep_points=2 ** 40, eval_simulations=30, seed=4)
        assert got.extras["sweep"] == want.extras["sweep"]
        assert (got.members, got.sample_counts) == (want.members, want.sample_counts)

    def test_fixed_size(self):
        net = star_net()
        res = max_inf(net, eval_simulations=50, fixed_size=1, seed=1)
        assert len(res.members) == 1
        # the hub reaches everyone: it is the coverage pick
        assert res.members == frozenset({net.graph.id_of(2)})

    def test_profit_ignored_in_selection(self):
        # coupon nearly equals price: seeding everyone is bad for profit,
        # but the influence sweep still ranks purely by adopter count and
        # only the final simulated comparison keeps the grid point small
        net = make_net("1 2\n", ic_p=1.0, price=0.5, coupon=0.45)
        res = max_inf(net, eval_simulations=200, seed=2)
        assert res.produced_by == "maxinf"
        assert len(res.members) >= 1

    def test_simulation_budget_accounted(self):
        net = star_net()
        res = max_inf(net, eval_simulations=40, seed=3)
        targets = len(res.extras["sweep"])
        assert res.sample_counts["simulations"] == 40 * targets
        assert res.sample_counts["ra_sets"] > 0

    def test_deterministic(self):
        net = star_net()
        a = max_inf(net, eval_simulations=30, seed=9)
        b = max_inf(net, eval_simulations=30, seed=9)
        assert a.members == b.members
        assert a.sample_counts == b.sample_counts

    def test_ra_samples_override(self):
        net = star_net()
        res = max_inf(net, eval_simulations=30, ra_samples=123, seed=4)
        assert res.sample_counts["ra_sets"] == 123


class TestHighDegree:
    def test_prefix_of_degree_ranking(self):
        net = star_net()
        res = high_degree(net, trials=20, eval_simulations=50, seed=5)
        hub = net.graph.id_of(2)
        # any nonempty prefix of the ranking contains the hub
        assert hub in res.members

    def test_sizes_within_range(self):
        net = star_net()
        res = high_degree(net, trials=30, eval_simulations=20, seed=6)
        assert 1 <= len(res.members) <= net.n

    def test_distinct_sizes_cached(self):
        # n = 2 admits only sizes {1, 2}: at most two evaluations happen
        net = make_net("1 2\n", ic_p=1.0)
        res = high_degree(net, trials=100, eval_simulations=25, seed=7)
        assert res.sample_counts["simulations"] <= 2 * 25

    def test_deterministic(self):
        net = star_net()
        a = high_degree(net, trials=10, eval_simulations=20, seed=8)
        b = high_degree(net, trials=10, eval_simulations=20, seed=8)
        assert a.members == b.members
        assert a.sample_counts == b.sample_counts


# (baseline, parameter) for every count a baseline takes
BASELINE_COUNTS = [(max_inf, "sweep_points"), (max_inf, "eval_simulations"),
                   (max_inf, "fixed_size"), (max_inf, "ra_samples"),
                   (high_degree, "trials"), (high_degree, "eval_simulations")]


class TestConfig:
    def test_positive_counts_required(self):
        net = star_net()
        with pytest.raises(ParameterError):
            max_inf(net, sweep_points=0)
        with pytest.raises(ParameterError):
            high_degree(net, trials=-1)
        with pytest.raises(ParameterError):
            max_inf(net, eval_simulations=0)

    # sizes are checked as sample counts are: 2.5 used to reach max_inf as
    # a bare TypeError, and 1.5 was truncated to 1 but echoed as 1.5
    @pytest.mark.parametrize("bad", [0, 2.5, math.nan])
    @pytest.mark.parametrize("name", ["sweep_points", "fixed_size"])
    def test_sizes_must_be_integers(self, name, bad):
        with pytest.raises(ParameterError, match=f"^{name} must be a positive integer"):
            max_inf(star_net(), **{name: bad})

    @pytest.mark.parametrize("fn,name", BASELINE_COUNTS,
                             ids=[f"{fn.__name__}-{name}" for fn, name in BASELINE_COUNTS])
    def test_bad_count_refused_before_drawing(self, monkeypatch, fn, name):
        drawn = []
        for spied in ("generate_collection", "estimate_profit_simulation"):
            monkeypatch.setattr(baselines, spied,
                                lambda *args, _name=spied, **kw: drawn.append(_name))
        with pytest.raises(ParameterError,
                           match=f"^{name} must be a positive integer, got 0$"):
            fn(star_net(), **{name: 0})
        assert drawn == []

    def test_integral_float_sizes_are_used_and_echoed_as_ints(self):
        res = max_inf(star_net(), sweep_points=5.0, eval_simulations=50,
                      fixed_size=1.0, seed=1)
        assert len(res.members) == 1
        assert res.params == max_inf(star_net(), sweep_points=5, eval_simulations=50,
                                     fixed_size=1, seed=1).params
        assert type(res.params["fixed_size"]) is int
        assert type(res.params["sweep_points"]) is int


def _brute_greedy_chain(n, sets, length):
    """Greedy maximum coverage over Python sets: most uncovered sets
    first, smaller id on ties."""
    uncovered = [set(s) for s in sets]
    chain = []
    for _ in range(length):
        gains = [-1 if v in chain else sum(v in s for s in uncovered)
                 for v in range(n)]
        v = gains.index(max(gains))
        chain.append(v)
        uncovered = [s for s in uncovered if v not in s]
    return chain


class TestCoverageGreedyChain:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 12))
        sets = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=5),
                                  min_size=1, max_size=40))
        length = data.draw(st.integers(1, n))
        coll = collection_of(n, [sorted(s) for s in sets])
        assert _coverage_greedy_chain(coll, n, length) == \
            _brute_greedy_chain(n, sets, length)

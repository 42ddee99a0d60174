import pytest

from profitmax import (SELECTORS, HighDegreeBaseline, MaxCoverageBaseline,
                       ParameterError, RealizationSelector,
                       ReverseSimulationSelector, ReverseThresholdSelector,
                       SimulationSelector)

ALL_SELECTORS = [
    (SimulationSelector, {"l_override": 60}),
    (RealizationSelector, {"l_override": 60}),
    (ReverseThresholdSelector, {"max_ra": 300}),
    (ReverseSimulationSelector, {"k": 3}),
    (MaxCoverageBaseline, {"eval_simulations": 30}),
    (HighDegreeBaseline, {"trials": 10, "eval_simulations": 30}),
]


class TestParams:
    @pytest.mark.parametrize("cls,kw", ALL_SELECTORS)
    def test_get_params_round_trips_through_constructor(self, cls, kw):
        est = cls(seed=7, **kw)
        params = est.get_params()
        assert params["seed"] == 7
        clone = cls(**params)
        assert clone.get_params() == params

    def test_set_params_chains(self):
        est = SimulationSelector()
        out = est.set_params(eps=0.3, seed=5)
        assert out is est
        assert est.eps == 0.3
        assert est.get_params()["seed"] == 5

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ParameterError, match="epsilon"):
            SimulationSelector().set_params(epsilon=0.3)


class TestFit:
    @pytest.mark.parametrize("cls,kw", ALL_SELECTORS)
    def test_fit_populates_attributes(self, two_node_net, cls, kw):
        est = cls(seed=3, **kw).fit(two_node_net)
        assert isinstance(est.seed_set_, frozenset)
        assert est.seed_labels_ == sorted(
            two_node_net.graph.labels[v] for v in est.seed_set_)
        assert set(est.sample_counts_) == {"simulations", "realizations",
                                           "ra_sets"}
        assert est.fit_time_ms_ >= 0
        assert est.n_features_in_ == 2
        assert est.selection_.produced_by in set(SELECTORS)

    def test_fit_returns_self(self, two_node_net):
        est = SimulationSelector(l_override=30)
        assert est.fit(two_node_net) is est

    def test_unfitted_access_raises(self, two_node_net):
        est = SimulationSelector(l_override=30)
        with pytest.raises(AttributeError):
            est.seed_set_
        with pytest.raises(RuntimeError, match="fit"):
            est.score(two_node_net, eval_sims=10, seed=0)

    def test_refit_overwrites(self, two_node_net):
        est = ReverseThresholdSelector(max_ra=200, seed=1).fit(two_node_net)
        first = est.seed_set_
        est.set_params(seed=2).fit(two_node_net)
        assert isinstance(est.seed_set_, frozenset)
        assert est.selection_.params["eps"] == 0.4
        del first

    def test_deterministic_fit(self, two_node_net):
        a = ReverseSimulationSelector(k=3, seed=11).fit(two_node_net)
        b = ReverseSimulationSelector(k=3, seed=11).fit(two_node_net)
        assert a.seed_set_ == b.seed_set_
        assert a.sample_counts_ == b.sample_counts_


class TestScore:
    def test_score_is_simulated_profit(self, two_node_net):
        est = SimulationSelector(l_override=50, seed=2).fit(two_node_net)
        s = est.score(two_node_net, eval_sims=200, seed=3)
        # the only candidates on this net are worth 0.75, 0.5, 0.25 or 0
        assert s == pytest.approx(0.75, abs=1e-9) or s in (0.0, 0.25, 0.5)

    def test_score_deterministic(self, two_node_net):
        est = SimulationSelector(l_override=50, seed=2).fit(two_node_net)
        assert est.score(two_node_net, eval_sims=100, seed=9) == \
            est.score(two_node_net, eval_sims=100, seed=9)


class TestRegistry:
    def test_six_selectors_registered(self):
        assert set(SELECTORS) == {"spm", "rpm", "ra-t", "ra-s", "maxinf",
                                  "highdegree"}

    # every selector's parameters, in order, with their defaults: they are
    # read from the algorithm signatures and must not move
    @pytest.mark.parametrize("name,params", [
        ("spm", {"eps": 0.4, "big_n": None, "l_override": None, "seed": 0,
                 "workers": 1}),
        ("rpm", {"eps": 0.4, "big_n": None, "l_override": None, "seed": 0,
                 "workers": 1, "memory_budget_mb": 2048.0}),
        ("ra-t", {"eps": 0.4, "big_n": None, "max_ra": None, "seed": 0,
                  "workers": 1}),
        ("ra-s", {"eps": 0.4, "big_n": None, "k": 5, "eps3": 0.1,
                  "plateau_pct": 2.0, "seed": 0, "workers": 1}),
        ("maxinf", {"sweep_points": 50, "eval_simulations": 10000,
                    "fixed_size": None, "ra_samples": None, "seed": 0}),
        ("highdegree", {"trials": 100, "eval_simulations": 10000, "seed": 0}),
    ])
    def test_params_and_defaults_are_pinned(self, name, params):
        got = SELECTORS[name]().get_params()
        assert list(got.items()) == list(params.items())

"""Estimator-style front end for the selection algorithms.

Each selector follows the scikit-learn calling convention: construct with
hyperparameters only, call fit(net) on a TCNetwork, then read the fitted
attributes (trailing underscore).  get_params / set_params work off the
constructor signature, so selectors can be cloned, grid-searched or
embedded in tooling that expects that protocol.
"""

import inspect
import time

from .algorithms import ra_s, ra_t, rpm, spm
from .baselines import BaselineConfig, high_degree, max_inf
from .diffusion import estimate_profit_simulation
from .network import ParameterError, TCNetwork


def check_network(net):
    if not isinstance(net, TCNetwork):
        raise TypeError(f"expected a TCNetwork, got {type(net).__name__}")
    return net


def check_positive_int(value, name: str) -> int:
    if value is None or int(value) != value or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_fraction(value, name: str, low=0.0, high=1.0) -> float:
    value = float(value)
    if not (low < value < high):
        raise ParameterError(f"{name} must lie in ({low}, {high}), got {value}")
    return value


class BaseSelector:
    """Shared estimator plumbing; subclasses define _run(net)."""

    def get_params(self, deep: bool = True) -> dict:
        out = {}
        for name in inspect.signature(type(self).__init__).parameters:
            if name == "self":
                continue
            out[name] = getattr(self, name)
        return out

    def set_params(self, **params):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ParameterError(
                    f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def fit(self, net: TCNetwork):
        check_network(net)
        start = time.perf_counter()
        result = self._run(net)
        self.selection_ = result
        self.seed_set_ = result.members
        self.seed_labels_ = net.labels_of(result.members)
        self.sample_counts_ = dict(result.sample_counts)
        self.fit_time_ms_ = int(round((time.perf_counter() - start) * 1000.0))
        self.n_features_in_ = net.n
        return self

    def score(self, net: TCNetwork, eval_sims: int = 10_000, seed: int = 0) -> float:
        """Monte Carlo profit of the fitted seed set on `net`."""
        self._check_fitted()
        est = estimate_profit_simulation(net, self.seed_set_, eval_sims, seed,
                                         getattr(self, "workers", 1))
        return est.mean_profit

    def _check_fitted(self):
        if not hasattr(self, "seed_set_"):
            raise RuntimeError(f"{type(self).__name__} is not fitted yet; call fit first")


class SimulationSelector(BaseSelector):
    """Double greedy whose oracle simulates the cascade afresh per query."""

    algorithm = "spm"

    def __init__(self, eps: float = 0.4, big_n=None, l_override=None,
                 seed: int = 0, workers: int = 1):
        self.eps = eps
        self.big_n = big_n
        self.l_override = l_override
        self.seed = seed
        self.workers = workers

    def _run(self, net):
        return spm(net, eps=self.eps, big_n=self.big_n,
                   l_override=self.l_override, seed=self.seed,
                   workers=self.workers)


class RealizationSelector(BaseSelector):
    """Double greedy over the reverse-reachable sets of one fixed batch of
    sampled realizations."""

    algorithm = "rpm"

    def __init__(self, eps: float = 0.4, big_n=None, l_override=None,
                 seed: int = 0, workers: int = 1, memory_budget_mb: float = 2048.0):
        self.eps = eps
        self.big_n = big_n
        self.l_override = l_override
        self.seed = seed
        self.workers = workers
        self.memory_budget_mb = memory_budget_mb

    def _run(self, net):
        return rpm(net, eps=self.eps, big_n=self.big_n,
                   l_override=self.l_override, seed=self.seed,
                   workers=self.workers, memory_budget_mb=self.memory_budget_mb)


class ReverseThresholdSelector(BaseSelector):
    """Reverse sampling with the collection size fixed by the error bounds."""

    algorithm = "ra-t"

    def __init__(self, eps: float = 0.4, big_n=None, max_ra=None,
                 seed: int = 0, workers: int = 1, order_probes=None):
        self.eps = eps
        self.big_n = big_n
        self.max_ra = max_ra
        self.seed = seed
        self.workers = workers
        self.order_probes = order_probes

    def _run(self, net):
        return ra_t(net, eps=self.eps, big_n=self.big_n, max_ra=self.max_ra,
                    seed=self.seed, workers=self.workers,
                    order_probes=self.order_probes)


class ReverseSimulationSelector(BaseSelector):
    """Reverse sampling grown on a doubling schedule with simulation checks."""

    algorithm = "ra-s"

    def __init__(self, eps: float = 0.4, big_n=None, k: int = 5, eps3: float = 0.1,
                 plateau_pct: float = 2.0, seed: int = 0, workers: int = 1,
                 order_probes=None):
        self.eps = eps
        self.big_n = big_n
        self.k = k
        self.eps3 = eps3
        self.plateau_pct = plateau_pct
        self.seed = seed
        self.workers = workers
        self.order_probes = order_probes

    def _run(self, net):
        return ra_s(net, eps=self.eps, big_n=self.big_n, k=self.k,
                    eps3=self.eps3, plateau_pct=self.plateau_pct,
                    seed=self.seed, workers=self.workers,
                    order_probes=self.order_probes)


class MaxCoverageBaseline(BaseSelector):
    """Influence-first heuristic: coverage greedy swept over seed sizes."""

    algorithm = "maxinf"

    def __init__(self, sweep_points: int = 50, eval_simulations: int = 10_000,
                 fixed_size=None, ra_samples=None, seed: int = 0, workers: int = 1):
        self.sweep_points = sweep_points
        self.eval_simulations = eval_simulations
        self.fixed_size = fixed_size
        self.ra_samples = ra_samples
        self.seed = seed
        self.workers = workers

    def _run(self, net):
        cfg = BaselineConfig(sweep_points=self.sweep_points,
                             eval_simulations=self.eval_simulations,
                             fixed_size=self.fixed_size,
                             ra_samples=self.ra_samples)
        return max_inf(net, cfg, seed=self.seed, workers=self.workers)


class HighDegreeBaseline(BaseSelector):
    """Random-size trials over the highest out-degree nodes."""

    algorithm = "highdegree"

    def __init__(self, trials: int = 100, eval_simulations: int = 10_000,
                 seed: int = 0, workers: int = 1):
        self.trials = trials
        self.eval_simulations = eval_simulations
        self.seed = seed
        self.workers = workers

    def _run(self, net):
        cfg = BaselineConfig(trials=self.trials,
                             eval_simulations=self.eval_simulations)
        return high_degree(net, cfg, seed=self.seed, workers=self.workers)


SELECTORS = {cls.algorithm: cls for cls in (
    SimulationSelector, RealizationSelector, ReverseThresholdSelector,
    ReverseSimulationSelector, MaxCoverageBaseline, HighDegreeBaseline)}

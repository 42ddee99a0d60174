"""Estimator-style front end for the selection algorithms.

Each selector follows the scikit-learn calling convention: construct with
hyperparameters only, call fit(net) on a TCNetwork, then read the fitted
attributes (trailing underscore).

SELECTORS is the one registry of the six algorithms: the four of
algorithms.ALGORITHMS and the two baselines of baselines.BASELINES.  All
six take their parameters as keywords after net, so a selector's
parameters and their defaults are its function's signature less net, never
restated here.  get_params / set_params work off that list, so selectors
can be cloned, grid-searched or embedded in tooling that expects that
protocol, and the CLI dispatches through the same registry.
"""

import inspect
import time

from .algorithms import ALGORITHMS
from .baselines import BASELINES
from .diffusion import EVAL_SIMULATIONS, estimate_profit_simulation
from .network import ParameterError, TCNetwork


# name -> (run(net, **params), {parameter: default})
_ENTRIES = {name: (fn, {param: p.default
                        for param, p in inspect.signature(fn).parameters.items()
                        if param != "net"})
            for name, fn in {**ALGORITHMS, **BASELINES}.items()}


class BaseSelector:
    """fit()-style wrapper of the registered algorithm a subclass names."""

    algorithm = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        run, cls._defaults = _ENTRIES[cls.algorithm]
        cls._run = staticmethod(run)

    def __init__(self, **params):
        self.set_params(**{**self._defaults, **params})

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._defaults}

    def set_params(self, **params):
        for key, value in params.items():
            if key not in self._defaults:
                raise ParameterError(
                    f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def fit(self, net: TCNetwork):
        if not isinstance(net, TCNetwork):
            raise TypeError(f"expected a TCNetwork, got {type(net).__name__}")
        start = time.perf_counter()
        result = self._run(net, **self.get_params())
        self.selection_ = result
        self.seed_set_ = result.members
        self.seed_labels_ = net.labels_of(result.members)
        self.sample_counts_ = dict(result.sample_counts)
        self.fit_time_ms_ = int(round((time.perf_counter() - start) * 1000.0))
        self.n_features_in_ = net.n
        return self

    def score(self, net: TCNetwork, eval_sims: int = EVAL_SIMULATIONS,
              seed: int = 0) -> float:
        """Monte Carlo profit of the fitted seed set on `net`."""
        if not hasattr(self, "seed_set_"):
            raise RuntimeError(f"{type(self).__name__} is not fitted yet; call fit first")
        return estimate_profit_simulation(net, self.seed_set_, eval_sims,
                                          seed).mean_profit


class SimulationSelector(BaseSelector):
    """Double greedy whose oracle simulates the cascade afresh for X + v
    and Y - v of every node, carrying its estimates of X and Y."""
    algorithm = "spm"


class RealizationSelector(BaseSelector):
    """Double greedy over the reverse-reachable sets of one fixed batch of
    sampled realizations."""
    algorithm = "rpm"


class ReverseThresholdSelector(BaseSelector):
    """Reverse sampling with the collection size fixed by the error bounds."""
    algorithm = "ra-t"


class ReverseSimulationSelector(BaseSelector):
    """Reverse sampling grown on a doubling schedule with simulation checks."""
    algorithm = "ra-s"


class MaxCoverageBaseline(BaseSelector):
    """Influence-first heuristic: coverage greedy swept over seed sizes."""
    algorithm = "maxinf"


class HighDegreeBaseline(BaseSelector):
    """Random-size trials over the highest out-degree nodes."""
    algorithm = "highdegree"


SELECTORS = {cls.algorithm: cls for cls in (
    SimulationSelector, RealizationSelector, ReverseThresholdSelector,
    ReverseSimulationSelector, MaxCoverageBaseline, HighDegreeBaseline)}

"""Heuristic baselines: influence-first sweep and degree ranking.

Neither baseline carries an approximation guarantee; both pick whatever
seed set scored the best simulated profit among the candidates they
looked at.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithms import SelectionResult, default_probe_count
from .bounds import confidence
from .diffusion import _expand, _rng_from, estimate_profit_simulation, sample_count
from .network import TCNetwork
from .sampling import generate_collection

MAXINF, HIGHDEGREE = "maxinf", "highdegree"

_SWEEP_DENOMINATOR = 50  # target sizes are ceil(n * i / 50)


@dataclass
class BaselineConfig:
    sweep_points: int = 50
    trials: int = 100
    eval_simulations: int = 10_000
    fixed_size: Optional[int] = None
    ra_samples: Optional[int] = None

    def __post_init__(self):
        for name in ("sweep_points", "trials", "eval_simulations", "fixed_size",
                     "ra_samples"):
            if getattr(self, name) is not None:
                setattr(self, name, sample_count(getattr(self, name), name))


def _coverage_greedy_chain(coll, n: int, length: int) -> list:
    """Greedy maximum coverage: picks `length` nodes, highest marginal
    coverage first, smaller id on ties.  Exhausted coverage falls back to
    id order so the chain always reaches the requested length."""
    gains = coll.coverage_counts()
    # v's one-member sets count toward gains[v] alone, which v consumes
    idx_offsets, idx_sets = coll.index()
    covered = np.zeros(coll.offsets.size - 1, dtype=bool)
    chain = []
    for _ in range(length):
        v = int(np.argmax(gains))  # first occurrence, so smallest id wins ties
        chain.append(v)
        idx = idx_sets[idx_offsets[v]:idx_offsets[v + 1]]
        fresh = idx[~covered[idx]]
        covered[fresh] = True
        start = coll.offsets[fresh]
        members = coll.members[_expand(start, coll.offsets[fresh + 1] - start)[0]]
        np.subtract.at(gains, members, 1)  # each member loses its fresh sets
        gains[v] = -1  # node consumed
    return chain


def max_inf(net: TCNetwork, cfg: BaselineConfig, seed: int = 0) -> SelectionResult:
    """Sweep influence-greedy seed sets over target sizes, keep the most
    profitable.

    Candidate sets come from greedy maximum coverage on an RA collection,
    the usual reverse-sampling surrogate for influence maximization.  With
    fixed_size set, only that one size is tried (large-graph mode).
    """
    n = net.n
    ss = np.random.SeedSequence(seed)
    coll_ss, eval_parent = ss.spawn(2)
    samples = cfg.ra_samples or default_probe_count(net, confidence(n), 0.4)
    coll = generate_collection(net, samples, coll_ss)
    if cfg.fixed_size is not None:
        targets = [min(cfg.fixed_size, n)]
    else:
        targets = sorted({
            min(n, math.ceil(n * i / _SWEEP_DENOMINATOR))
            for i in range(1, cfg.sweep_points + 1)})
    chain = _coverage_greedy_chain(coll, n, max(targets))
    best = None
    sweep = []
    for s in targets:
        cand = frozenset(chain[:s])
        est = estimate_profit_simulation(net, cand, cfg.eval_simulations,
                                         eval_parent.spawn(1)[0])
        sweep.append((s, est.mean_profit))
        if best is None or est.mean_profit > best[0]:
            best = (est.mean_profit, cand)
    return SelectionResult(
        members=best[1], produced_by=MAXINF,
        sample_counts={"simulations": cfg.eval_simulations * len(targets),
                       "realizations": 0, "ra_sets": samples},
        l=samples, internal_value=best[0],
        extras={"sweep": sweep},
        params={"sweep_points": cfg.sweep_points, "fixed_size": cfg.fixed_size,
                "eval_simulations": cfg.eval_simulations, "ra_samples": samples,
                "seed": seed})


def high_degree(net: TCNetwork, cfg: BaselineConfig, seed: int = 0) -> SelectionResult:
    """Random-size prefixes of the out-degree ranking, best profit wins.

    Each trial draws a size uniformly from {1..n} and seeds that many of
    the highest out-degree nodes (ties toward smaller id).  Sizes repeat
    across trials, so evaluations are cached per size.
    """
    n = net.n
    degrees = np.diff(net.graph.out_indptr)
    ranking = np.lexsort((np.arange(n), -degrees)).tolist()
    size_ss, eval_parent = np.random.SeedSequence(seed).spawn(2)
    rng = _rng_from(size_ss)
    cache = {}
    best = None
    sims = 0
    for _ in range(cfg.trials):
        s = rng.randint(1, n)
        if s not in cache:
            cand = frozenset(ranking[:s])
            est = estimate_profit_simulation(net, cand, cfg.eval_simulations,
                                             eval_parent.spawn(1)[0])
            sims += cfg.eval_simulations
            cache[s] = (est.mean_profit, cand)
        profit, cand = cache[s]
        if best is None or profit > best[0]:
            best = (profit, cand)
    return SelectionResult(
        members=best[1], produced_by=HIGHDEGREE,
        sample_counts={"simulations": sims, "realizations": 0, "ra_sets": 0},
        l=cfg.trials, internal_value=best[0],
        params={"trials": cfg.trials, "eval_simulations": cfg.eval_simulations,
                "seed": seed})


BASELINES = {
    MAXINF: (max_inf, ("sweep_points", "eval_simulations", "fixed_size",
                       "ra_samples")),
    HIGHDEGREE: (high_degree, ("trials", "eval_simulations")),
}
"""Each baseline's function and the BaselineConfig fields it reads."""

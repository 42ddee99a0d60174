"""The four seed-selection algorithms.

All four run the same double-greedy skeleton and differ in how the profit
oracle is realized:

* spm: every marginal is estimated by fresh batches of forward
  simulations, the four sets of a node in one kernel call per block of
  runs.
* rpm: a collection of realizations is drawn once; on it the estimator
  is a coverage function over every node's reverse-reachable set in every
  realization, which backs the same exact incremental oracle as ra_t.
* ra_t: a reverse-sample collection of precomputed size backs an exact
  incremental oracle.
* ra_s: reverse samples are grown on a doubling schedule and a simulation
  check decides when the collection is already trustworthy.

Every entry point takes the network, its own parameters and an integer
seed.  Every random stream (RA sets, forward runs, realizations) is split
into fixed-size blocks with one SeedSequence child each, so results depend
on the seed alone.  Each also takes workers, which it ignores.

ALGORITHMS maps each name to its function.  The selectors and the CLI read
an algorithm's parameters and their defaults from its signature, so the
signature is the one place they are stated.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import delta0, delta1, delta2, search_rat_params, solve_ras_params
from .diffusion import (SIM_BLOCK, check_sample_cap, estimate_profit_simulation,
                        estimate_profits_simulation, stream_blocks, _rng_from)
from .greedy import CoverageOracle, FunctionOracle, double_greedy
from .network import ParameterError, TCNetwork
from .sampling import CollectionBuilder, generate_collection, sample_rr_block

SPM, RPM, RA_T, RA_S = "spm", "rpm", "ra-t", "ra-s"


class MemoryBudgetError(RuntimeError):
    """Predicted sample storage exceeds the configured budget."""


@dataclass
class SelectionResult:
    members: frozenset
    produced_by: str
    sample_counts: dict
    l: int
    params: dict
    internal_value: float = None
    iterations: int = 1
    extras: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.members)


def _check_eps(eps):
    if not (0.0 < eps < 0.5):
        raise ParameterError(f"eps must lie strictly between 0 and 1/2, got {eps}")


def _effective_big_n(net: TCNetwork, big_n):
    # the bound formulas need ln N > 0, so a one-node default is bumped to 2
    if big_n is None:
        return float(max(net.n, 2))
    if big_n <= 1.0:
        raise ParameterError(f"confidence parameter N must exceed 1, got {big_n}")
    return float(big_n)


def _count_or(value, name: str, default: int) -> int:
    """An explicit sample count, or default when value is None."""
    if value is None:
        return default
    if int(value) != value or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    check_sample_cap(value, name)
    return int(value)


def spm(net: TCNetwork, eps: float = 0.4, big_n=None, l_override=None,
        seed: int = 0, workers: int = 1) -> SelectionResult:
    """Forward-sampling selection: every inspection draws its own batch of
    l simulations, from its own SeedSequence child of one evaluation
    stream.  The four inspections of a node are one batch call."""
    _check_eps(eps)
    big_n = _effective_big_n(net, big_n)
    n, r = net.n, net.discount_ratio
    l = _count_or(l_override, "l_override", math.ceil(delta0(n, big_n, eps, r)))
    shift = 2.0 * eps * net.full_profit() / n
    ss = np.random.SeedSequence(seed)
    coin_ss, eval_parent = ss.spawn(2)

    def evaluate(sets):
        return [e.mean_profit for e in estimate_profits_simulation(
            net, sets, l, eval_parent.spawn(len(sets)))]

    oracle = FunctionOracle(evaluate, range(n), shift=shift, many=True)
    members = double_greedy(oracle, range(n), _rng_from(coin_ss))
    return SelectionResult(
        members=members, produced_by=SPM,
        sample_counts={"simulations": oracle.inspections * l,
                       "realizations": 0, "ra_sets": 0},
        l=l,
        params={"eps": eps, "big_n": big_n, "l_override": l_override,
                "seed": seed})


# Bytes an RR set would take stored whole (a root and offset, the oracle's
# two counters) and per member (the member and its index entry): an upper
# bound, as one-member sets are kept as a count per node instead.
_SET_BYTES = 4 + 8 + 4 + 4
_MEMBER_BYTES = 4 + 4


def _realization_collection(net: TCNetwork, l: int, ss, budget_mb: float):
    """The l * n reverse-reachable sets of l realizations, SIM_BLOCK
    realizations per SeedSequence child of ss, as one RACollection.

    Every set holds at least its root, so the floor of l * n one-member
    sets is checked against budget_mb before drawing; sets can hold up to
    n members, so the growing total is checked after every pass.
    """
    budget = budget_mb * (1 << 20)
    sets = l * net.n
    entries = 0

    def check(when):
        projected = sets * _SET_BYTES + (sets + entries) * _MEMBER_BYTES
        if projected > budget:
            raise MemoryBudgetError(
                f"{l} realizations {when} ~{projected / (1 << 20):.1f} MiB of "
                f"reverse-reachable sets, over the {budget_mb:g} MiB budget; "
                "lower l or raise the budget")

    check("project at least")
    builder = CollectionBuilder(net)
    for child, size in stream_blocks(ss, l, SIM_BLOCK):
        for single, sizes, members in sample_rr_block(
                net, size, np.random.default_rng(child)):
            # every set counted in the floor already holds one member
            entries += members.size - sizes.size
            check("hold at least")
            builder.add(single, sizes, members)
    return builder.snapshot()


def rpm(net: TCNetwork, eps: float = 0.4, big_n=None, l_override=None,
        seed: int = 0, workers: int = 1,
        memory_budget_mb: float = 2048.0) -> SelectionResult:
    """Realization-based selection: one fixed sample of l realizations.

    On a fixed sample the estimator P / l * sum_r |Reach_r(S)| - C |S| is
    a coverage function over the l * n reverse-reachable sets RR_r(w),
    the nodes that reach w in realization r (the RR-set duality of Borgs
    et al., SODA 2014), so CoverageOracle answers every marginal exactly
    and incrementally.  The sets are held in memory for the whole pass
    and checked against memory_budget_mb.
    """
    _check_eps(eps)
    big_n = _effective_big_n(net, big_n)
    n, r = net.n, net.discount_ratio
    l = _count_or(l_override, "l_override", math.ceil(delta0(n, big_n, eps, r)))
    ss = np.random.SeedSequence(seed)
    coin_ss, gen_ss = ss.spawn(2)
    coll = _realization_collection(net, l, gen_ss, memory_budget_mb)
    shift = 2.0 * eps * net.full_profit() / n
    oracle = CoverageOracle(coll, net.price, net.coupon, shift=shift)
    members = double_greedy(oracle, range(n), _rng_from(coin_ss))
    return SelectionResult(
        members=members, produced_by=RPM,
        sample_counts={"simulations": 0, "realizations": l, "ra_sets": 0},
        l=l, internal_value=oracle.current_value(),
        params={"eps": eps, "big_n": big_n, "l_override": l_override,
                "seed": seed, "memory_budget_mb": memory_budget_mb})


def node_order(net: TCNetwork, probe_count: int, rng_seed) -> list:
    """Order nodes by estimated single-seed influence, most first.

    Scores each node by how many of probe_count RA sets contain it, which
    is proportional to an unbiased estimate of its solo adopter
    expectation.  Ties break toward the smaller node id.
    """
    if probe_count < 1:
        raise ParameterError("probe_count must be positive")
    coll = generate_collection(net, probe_count, rng_seed)
    scores = coll.coverage_counts()
    order = np.lexsort((np.arange(net.n), -scores))
    return [int(v) for v in order]


def _default_probe_count(net: TCNetwork, big_n, eps, max_ra=None) -> int:
    probes = math.ceil(delta2(big_n, eps, net.discount_ratio))
    if max_ra is not None:
        probes = min(probes, int(max_ra))
    return max(probes, 1)


def ra_t(net: TCNetwork, eps: float = 0.4, big_n=None, max_ra=None,
         seed: int = 0, workers: int = 1, order_probes=None) -> SelectionResult:
    """Reverse-sampling selection with a precomputed collection size."""
    _check_eps(eps)
    big_n = _effective_big_n(net, big_n)
    n, r = net.n, net.discount_ratio
    eps1, eps2 = search_rat_params(n, big_n, eps, r, step=0.01)
    l = math.ceil(max(delta1(n, big_n, eps1, r), delta2(big_n, eps2, r)))
    l = min(l, _count_or(max_ra, "max_ra", l))
    ss = np.random.SeedSequence(seed)
    coll_ss, probe_ss, coin_ss = ss.spawn(3)
    coll = generate_collection(net, l, coll_ss)
    probes = _count_or(order_probes, "order_probes",
                       _default_probe_count(net, big_n, eps, max_ra))
    order = node_order(net, probes, probe_ss)
    oracle = CoverageOracle(coll, net.price, net.coupon)
    members = double_greedy(oracle, order, _rng_from(coin_ss))
    return SelectionResult(
        members=members, produced_by=RA_T,
        sample_counts={"simulations": 0, "realizations": 0, "ra_sets": l + probes},
        l=l, internal_value=oracle.current_value(),
        params={"eps": eps, "big_n": big_n, "eps1": eps1, "eps2": eps2,
                "max_ra": max_ra, "order_probes": probes,
                "seed": seed})


def ra_s(net: TCNetwork, eps: float = 0.4, big_n=None, k: int = 5,
         eps3: float = 0.1, plateau_pct: float = 2.0, seed: int = 0,
         workers: int = 1, order_probes=None) -> SelectionResult:
    """Reverse-sampling selection on a doubling schedule.

    The collection starts at ceil(delta2_star) sets and doubles each
    round; rounds end early when the collection's own estimate of its
    output is confirmed by an independent simulation batch, when the
    estimate has plateaued (relative drop below plateau_pct percent), or
    unconditionally once the martingale threshold delta1_star is reached.
    """
    _check_eps(eps)
    if not (plateau_pct >= 0.0 and math.isfinite(plateau_pct)):
        raise ParameterError(f"plateau_pct must be a finite percentage >= 0, got {plateau_pct}")
    big_n = _effective_big_n(net, big_n)
    n, r = net.n, net.discount_ratio
    params = solve_ras_params(n, big_n, eps, r, k, eps3)
    l_star = math.ceil(params.delta3)
    ss = np.random.SeedSequence(seed)
    probe_ss, loop_ss = ss.spawn(2)
    probes = _count_or(order_probes, "order_probes",
                       _default_probe_count(net, big_n, eps))
    order = node_order(net, probes, probe_ss)
    builder = CollectionBuilder(net)
    l_real = params.delta2_star
    prev_f = None
    sims = 0
    iterations = 0
    stop_reason = None
    members = frozenset()
    value = None
    while l_real <= 2.0 * params.delta1_star * (1.0 + 1e-9):
        grow_ss, coin_ss, sim_ss = loop_ss.spawn(3)
        builder.extend(math.ceil(l_real) - len(builder), grow_ss)
        coll = builder.snapshot()
        oracle = CoverageOracle(coll, net.price, net.coupon)
        members = double_greedy(oracle, order, _rng_from(coin_ss))
        value = oracle.current_value()
        iterations += 1
        if l_real >= params.delta1_star * (1.0 - 1e-9):
            stop_reason = "threshold"
            break
        check = estimate_profit_simulation(net, members, l_star, sim_ss)
        sims += l_star
        if value <= (1.0 + eps3) * check.mean_profit:
            stop_reason = "confirmed"
            break
        if prev_f is not None and (prev_f - value) < plateau_pct / 100.0 * abs(prev_f):
            stop_reason = "plateau"
            break
        prev_f = value
        l_real *= 2.0
    return SelectionResult(
        members=members, produced_by=RA_S,
        sample_counts={"simulations": sims, "realizations": 0,
                       "ra_sets": len(builder) + probes},
        l=len(builder), internal_value=value, iterations=iterations,
        extras={"stop_reason": stop_reason, "l_star": l_star,
                "eps1": params.eps1, "eps2": params.eps2,
                "delta1_star": params.delta1_star,
                "delta2_star": params.delta2_star},
        params={"eps": eps, "big_n": big_n, "k": k, "eps3": eps3,
                "plateau_pct": plateau_pct, "order_probes": probes,
                "seed": seed})


ALGORITHMS = {SPM: spm, RPM: rpm, RA_T: ra_t, RA_S: ra_s}

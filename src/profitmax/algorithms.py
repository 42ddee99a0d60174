"""The four seed-selection algorithms.

All four run the same double-greedy skeleton and differ in how the profit
oracle is realized:

* spm: every marginal is estimated by fresh batches of forward
  simulations: X + v and Y - v of a node in one kernel call per block of
  runs (X and Y too at the first node), all drawn from one generator,
  while the estimates of X and Y are carried from node to node.
* rpm: a collection of realizations is drawn once; on it the estimator
  is a coverage function over every node's reverse-reachable set in every
  realization, which backs the same exact incremental oracle as ra_t.
* ra_t: a reverse-sample collection of precomputed size backs an exact
  incremental oracle.
* ra_s: reverse samples are grown on a doubling schedule and a simulation
  check decides when the collection is already trustworthy.

Every entry point takes the network, its own parameters and an integer
seed, and its result depends on the seed alone.  RA sets, realizations
and ra_s's check runs are drawn in fixed-size blocks with one
SeedSequence child each; spm draws every inspected set from one
generator seeded once per selection.  Each also takes workers, which it
ignores.

bounds alone range-checks eps and N: every algorithm evaluates one of its
thresholds before it draws a sample, spm and rpm even with l_override.
diffusion.sample_count alone checks a sample count, and each sample size
is written once, here or in bounds.RASParams.

ALGORITHMS maps each name to its function.  The selectors and the CLI read
an algorithm's parameters and their defaults from its signature, so the
signature is the one place they are stated.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (confidence, delta0, delta1, delta2, search_rat_params,
                     solve_ras_params)
from .diffusion import (SIM_BLOCK, estimate_profit_simulation, sample_count,
                        simulate_sets, stream_blocks, _rng_from)
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


def _forward_setup(net: TCNetwork, eps, big_n, l_override):
    """spm's and rpm's N, l and shift 2 eps (P - C), l checked before any
    draw; delta0 runs even when l_override replaces it, so that bounds
    checks eps."""
    big_n = confidence(net.n, big_n)
    l = math.ceil(delta0(net.n, big_n, eps, net.discount_ratio))
    l, name = (l, "l") if l_override is None else (l_override, "l_override")
    return big_n, sample_count(l, name), 2.0 * eps * net.full_profit() / net.n


def spm(net: TCNetwork, eps: float = 0.4, big_n=None, l_override=None,
        seed: int = 0, workers: int = 1) -> SelectionResult:
    """Forward-sampling selection: every set the oracle inspects gets its
    own batch of l simulations.

    FunctionOracle carries h(X) and h(Y): it inspects X + v, X, Y - v and
    Y at the first node and X + v and Y - v at every later one, each
    node's sets in one simulate_sets call per block of SIM_BLOCK runs.
    Every call draws from one generator, seeded once from the selection's
    evaluation stream, and an empty set draws nothing, so at most
    (2 n + 1) l runs are drawn, and sample_counts counts them.

    The guarantee is kept.  delta0's log(8 n N) pays for two Hoeffding
    tails over 4 n estimates, one per inspection of the four-set pass.
    Each estimate here is the mean of l runs of a set fixed before its
    runs are drawn; a carried h(X) or h(Y) is the estimate of X + v or
    Y - v made at the node that last changed that side, or of X or Y at
    the first node.  So each marginal is still the difference of two
    independent l-run estimates, and the union bound runs over at most
    2 n + 1 estimates drawn, fewer than the 4 n it pays for: with
    probability at least 1 - 1 / N every one is within eps L* / n, which
    the 2 eps L* / n shift compensates.
    """
    big_n, l, shift = _forward_setup(net, eps, big_n, l_override)
    coin_ss, eval_ss = np.random.SeedSequence(seed).spawn(2)
    gen = np.random.default_rng(eval_ss)
    runs = 0

    def evaluate(sets):
        nonlocal runs
        runs += l * sum(1 for s in sets if s)
        totals = sum(simulate_sets(net, sets, min(SIM_BLOCK, l - lo), gen).sum(axis=1)
                     for lo in range(0, l, SIM_BLOCK))
        return [net.price * (t / l) - net.coupon * len(s)
                for s, t in zip(sets, totals.tolist())]

    oracle = FunctionOracle(evaluate, range(net.n), shift=shift)
    members = double_greedy(oracle, range(net.n), _rng_from(coin_ss))
    return SelectionResult(
        members=members, produced_by=SPM,
        sample_counts={"simulations": runs, "realizations": 0, "ra_sets": 0},
        l=l,
        params={"eps": eps, "big_n": big_n, "l_override": l_override,
                "seed": seed})


# Bytes a stored RR set takes: its int32 size while the collection is
# built, its int64 offset and weight, the int64 size CoverageOracle derives
# from the offsets and the oracle's two int32 counters; and per member,
# the member and its index entry.  One-member sets are a count per node.
_SET_BYTES = 4 + 8 + 8 + 8 + 4 + 4
_MEMBER_BYTES = 4 + 4


def _realization_collection(net: TCNetwork, l: int, ss, budget_mb: float):
    """The l * n reverse-reachable sets of l realizations, SIM_BLOCK
    realizations per SeedSequence child of ss, as one RACollection.

    What is stored, the sets of two or more members with their weights,
    is charged against budget_mb after every pass of sample_rr_block.
    """
    budget = budget_mb * (1 << 20)
    held = 0
    builder = CollectionBuilder(net)
    for child, size in stream_blocks(ss, l, SIM_BLOCK):
        for block in sample_rr_block(net, size, np.random.default_rng(child)):
            _, sizes, members, _ = block
            held += sizes.size * _SET_BYTES + members.size * _MEMBER_BYTES
            if held > budget:
                raise MemoryBudgetError(
                    f"{l} realizations hold at least ~{held / (1 << 20):.2f} MiB "
                    f"of reverse-reachable sets, over the {budget_mb:g} MiB "
                    "budget; lower l or raise the budget")
            builder.add(*block)
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
    big_n, l, shift = _forward_setup(net, eps, big_n, l_override)
    ss = np.random.SeedSequence(seed)
    coin_ss, gen_ss = ss.spawn(2)
    coll = _realization_collection(net, l, gen_ss, memory_budget_mb)
    oracle = CoverageOracle(coll, net.price, net.coupon, shift=shift)
    members = double_greedy(oracle, range(net.n), _rng_from(coin_ss))
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
    coll = generate_collection(net, sample_count(probe_count, "probe_count"),
                               rng_seed)
    scores = coll.coverage_counts()
    order = np.lexsort((np.arange(net.n), -scores))
    return [int(v) for v in order]


def default_probe_count(net: TCNetwork, big_n, eps, cap=None) -> int:
    """node_order's RA sets: ceil(delta2) at eps, at most cap, at least 1."""
    probes = math.ceil(delta2(big_n, eps, net.discount_ratio))
    return max(min(probes, cap or probes), 1)


def rat_size(n, big_n, eps, r):
    """ra_t's split of eps and its collection size there: (eps1, eps2, l)."""
    eps1, eps2 = search_rat_params(n, big_n, eps, r, step=0.01)
    return eps1, eps2, math.ceil(max(delta1(n, big_n, eps1, r), delta2(big_n, eps2, r)))


def ra_t(net: TCNetwork, eps: float = 0.4, big_n=None, max_ra=None,
         seed: int = 0, workers: int = 1) -> SelectionResult:
    """Reverse-sampling selection with a precomputed collection size."""
    big_n = confidence(net.n, big_n)
    eps1, eps2, l = rat_size(net.n, big_n, eps, net.discount_ratio)
    cap = None if max_ra is None else sample_count(max_ra, "max_ra")
    l = min(l, cap or l)
    ss = np.random.SeedSequence(seed)
    coll_ss, probe_ss, coin_ss = ss.spawn(3)
    coll = generate_collection(net, l, coll_ss)
    probes = default_probe_count(net, big_n, eps, cap)
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
         workers: int = 1) -> SelectionResult:
    """Reverse-sampling selection on a doubling schedule.

    The collection starts at ceil(delta2_star) sets and doubles each
    round; rounds end early when the collection's own estimate of its
    output is confirmed by an independent simulation batch, when the
    estimate has plateaued (relative drop below plateau_pct percent), or
    unconditionally once the martingale threshold delta1_star is reached.
    """
    if not (plateau_pct >= 0.0 and math.isfinite(plateau_pct)):
        raise ParameterError(f"plateau_pct must be a finite percentage >= 0, got {plateau_pct}")
    big_n = confidence(net.n, big_n)
    params = solve_ras_params(net.n, big_n, eps, net.discount_ratio, k, eps3)
    l_star = params.l_simulations
    ss = np.random.SeedSequence(seed)
    probe_ss, loop_ss = ss.spawn(2)
    probes = default_probe_count(net, big_n, eps)
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

"""Forward simulation of coupon-driven diffusion, plus realization sampling.

Two interchangeable views of the same random process:

* simulate_sets runs a block of independent cascades from each of several
  seed sets together and reports how many nodes adopt in each run;
  simulate_block is its one-set call.  Under IC the runs advance level by
  level, drawing each edge as the cascade reaches it.  Under LT each run
  draws one uniform in-neighbor pick per eligible node with in-neighbors
  up front, and the adopters are the nodes whose chain of picks reaches
  a seed.  Every row has its own generator and draws from it exactly the
  uniforms, in exactly the order, that a call for its seed set alone
  draws, so a row never depends on the other rows of its call.  That
  lets estimate_profits_simulation, and spm through it, evaluate several
  seed sets per kernel call while every estimate stays bit-identical to
  its own estimate_profit_simulation.
* sample_realization freezes the randomness into one triggering set per
  node; replay_on_realization then resolves any seed set against that
  frozen draw with a breadth-first search.

Seeds always adopt: they hold coupons and pruning guarantees I_v >= P - C.
A non-seed adopts only if a neighbor activates it and I_v >= P; nodes below
the price can never be activated organically, so they never relay unless
seeded.
"""

import math
import numbers
import random
from dataclasses import dataclass

import numpy as np

from .network import ParameterError, TCNetwork

# The most samples one call may draw, about 1.1e12: at the cheapest cost
# per sample measured (about 0.035 us per RA set on a 7000-node, 100k-edge
# ic-cp net) that is over ten hours of sampling, so a larger count is
# taken for a mistake and refused before any sampling starts.
MAX_SAMPLES = 1 << 40
# Forward runs per random stream.  Every block of this many runs draws from
# its own SeedSequence child, so an estimate depends on its seed alone.
SIM_BLOCK = 1 << 12
# Dense per-run state one chunk of a block may hold per seed set: under IC
# 9 bytes per (run, node), an adoption flag and a first-level draw; under
# LT 16, two 8-byte values at a time, first a pick's uniform and its
# in-edge position, then a pointer and its next jump.  A block runs in
# chunks of as many runs as fit, and every set of a simulate_sets call
# runs each chunk together, so one call holds up to len(seed_sets) times
# this.
SIM_STATE_BYTES = 1 << 19
# Out-edges of one seed set expanded at once within a level, which bounds
# the scratch memory of the levels after the first to len(seed_sets) times
# this many edges.
EDGE_STEP = 1 << 12


@dataclass(frozen=True)
class ProfitEstimate:
    mean_profit: float
    mean_adopters: float
    sample_count: int
    estimator_kind: str


@dataclass(frozen=True)
class Realization:
    """One frozen draw of all triggering sets.

    triggering[v] lists the in-neighbors whose adoption would activate v.
    live_out is the forward view of the same information: live_out[u] lists
    the nodes v with u in triggering[v].
    """

    triggering: tuple
    live_out: tuple

    @classmethod
    def from_triggering(cls, triggering):
        triggering = tuple(tuple(t) for t in triggering)
        fwd = [[] for _ in triggering]
        for v, t in enumerate(triggering):
            for u in t:
                fwd[u].append(v)
        return cls(triggering, tuple(tuple(a) for a in fwd))


def _rng_from(seed_or_stream) -> random.Random:
    """Accept an int seed, a SeedSequence or a ready random.Random."""
    if isinstance(seed_or_stream, random.Random):
        return seed_or_stream
    if isinstance(seed_or_stream, np.random.SeedSequence):
        return random.Random(int(seed_or_stream.generate_state(2, np.uint64)[0]))
    return random.Random(seed_or_stream)


def _seed_sequence(seed) -> np.random.SeedSequence:
    """Accept a SeedSequence, a random.Random or any SeedSequence entropy."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, random.Random):
        return np.random.SeedSequence(seed.getrandbits(128))
    return np.random.SeedSequence(seed)


def sample_count(value, name: str) -> int:
    """value as a sample count: an int, or a float equal to one, from 1 to
    MAX_SAMPLES; anything else, nan and inf too, is a ParameterError
    that names name."""
    if not (isinstance(value, numbers.Real) and 1 <= value < math.inf
            and int(value) == value):
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    if value > MAX_SAMPLES:
        raise ParameterError(f"{name} must be at most {MAX_SAMPLES}, got {value!r}")
    return int(value)


def stream_blocks(seed, total: int, block: int):
    """Split total samples into consecutive blocks of block samples, the
    last one possibly short, and yield (SeedSequence child, size) for
    each.  The partition depends on total and block alone.  Each child is
    spawned as its block is reached, which gives the children one spawn
    of them all would."""
    total = sample_count(total, "sample count")
    ss = _seed_sequence(seed)
    for lo in range(0, total, block):
        yield ss.spawn(1)[0], min(block, total - lo)


def _sorted_runs(keys):
    """The distinct values of keys, ascending, and how often each occurs.

    Sort-based rather than np.unique, whose hash table code alone adds
    about 1.7 MiB of resident memory the first time it runs.
    """
    if not keys.size:
        return keys, keys
    keys = np.sort(keys)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.diff(np.append(starts, keys.size))


def _run_starts(keys):
    """Mask of the first entry of each run of equal values in keys."""
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _expand(start, deg):
    """Positions start[i] .. start[i] + deg[i] - 1 for every i, and for
    each position its i."""
    owner = np.repeat(np.arange(deg.size), deg)
    first = np.cumsum(deg) - deg  # where each i's positions begin
    return np.arange(owner.size) + (start - first)[owner], owner


def _steps(ends):
    """Cut points splitting items with cumulative edge counts ends into
    consecutive parts of about EDGE_STEP edges each."""
    if ends[-1] <= EDGE_STEP:
        return (0, ends.size)
    step = (ends - 1) // EDGE_STEP
    return (0, *(np.flatnonzero(step[1:] != step[:-1]) + 1), ends.size)


def _merged_steps(frontier, ends, starts):
    """The steps of one level of a multi-set call: (cuts, order).

    frontier is grouped by set, set s holding the keys from starts[s] on
    (starts is None for a single set), and ends are its cumulative
    out-degrees.  Each set is cut into steps
    as _steps cuts it alone, and merged step s is the union of every
    set's step s.  order is None when the merged steps are the contiguous
    slices frontier[cuts[i]:cuts[i + 1]]; otherwise they are those slices
    of frontier[order], which groups the items by step and, within a
    step, by set.
    """
    if ends[-1] <= EDGE_STEP:
        return (0, ends.size), None
    if starts is None:
        return _steps(ends), None
    bounds = frontier.searchsorted(starts)  # exact: frontier is grouped by set
    before = np.append(0, ends)[bounds[:-1]]
    step = (np.maximum(ends - np.repeat(before, np.diff(bounds)), 1) - 1) // EDGE_STEP
    if not step.any():
        return (0, ends.size), None
    order = np.argsort(step, kind="stable")
    step = step[order]
    return (0, *(np.flatnonzero(step[1:] != step[:-1]) + 1), ends.size), order


def _draw(gens, keys, starts):
    """One uniform per key, each from the generator of its key's set:
    keys is grouped by set, set s holding the keys from starts[s] on."""
    if len(gens) == 1:
        return gens[0].random(keys.size)
    cuts = [0, *keys.searchsorted(starts[1:-1]).tolist(), keys.size]
    return np.concatenate([gen.random(b - a) for gen, a, b
                           in zip(gens, cuts[:-1], cuts[1:])])


def simulate_sets(net: TCNetwork, seed_sets, count: int, gens) -> np.ndarray:
    """Run count independent cascades from each seed set together;
    returns each run's adopter count, seeds included, as a
    (len(seed_sets), count) int64 array.

    Row i draws from gens[i] alone, and exactly the uniforms, in exactly
    the order, that a call for seed_sets[i] alone draws, so it equals
    simulate_block(net, seed_sets[i], count, gens[i]) bit for bit.  An
    empty set draws nothing.

    Under the live-edge view of IC and LT (Kempe, Kleinberg & Tardos,
    KDD 2003) a cascade is reachability over one random draw of live
    edges.  IC draws its edges as the cascade reaches them, level by
    level (_ic_cascades).  LT draws each run's live edges up front, one
    uniform in-neighbor pick per eligible node with in-neighbors, and a
    node adopts iff its chain of picks reaches a seed (_lt_cascades).
    """
    if len(gens) != len(seed_sets):
        raise ParameterError(
            f"need one generator per seed set, got {len(gens)} for {len(seed_sets)}")
    counts = np.zeros((len(seed_sets), count), dtype=np.int64)
    rows, sets = [], []
    for row, seeds in enumerate(seed_sets):
        seeds = np.fromiter(seeds, dtype=np.int64)
        if seeds.size:
            seeds.sort()
            rows.append(row)
            sets.append(seeds[_run_starts(seeds)])
    if rows:
        cascades = _lt_cascades if net.params.model == "lt" else _ic_cascades
        counts[rows] = cascades(net, sets, count, [gens[row] for row in rows])
    return counts


def _ic_cascades(net: TCNetwork, seed_sets, count: int, gens) -> np.ndarray:
    """simulate_sets under IC for nonempty sets of distinct sorted seeds.

    The runs advance together one level at a time.  The sets share the
    chunking by rows and each level, and a level's steps of about
    EDGE_STEP edges are cut per set, merged step s being the union of
    every set's step s.  (set s, run r, node v) carries the key
    (s * runs + r) * n + v, where runs counts the runs of the chunk.  Each
    set's seed level is the same in every run: its out-edges are expanded
    once, and a non-seed target hit by k of them adopts with probability
    1 - (1 - p_v)^k.  Later levels expand each run's new adopters, and an
    edge is live with its target's probability.
    """
    n = net.n
    indptr, indices, prob_in = net.graph.out_indptr, net.graph.out_indices, net.prob_in
    # A node below the price never adopts unless seeded, so it starts out
    # closed, as if adopted: one lookup then keeps out both, and each
    # set's count is lowered by the unseeded ones after.
    blocked = ~net.eligible
    counts = np.empty((len(seed_sets), count), dtype=np.int64)
    # per set: its closed row at the start, its unseeded below-price
    # nodes, and its first level: the targets and their adoption
    # probability
    live = []
    for seeds in seed_sets:
        start = indptr[seeds]
        exposed = np.bincount(indices[_expand(start, indptr[seeds + 1] - start)[0]],
                              minlength=n)
        exposed[seeds] = 0
        exposed[blocked] = 0
        targets = exposed.nonzero()[0]
        first = 1.0 - (1.0 - prob_in[targets]) ** exposed[targets]
        init = blocked.copy()
        init[seeds] = True
        live.append((init, np.count_nonzero(init) - seeds.size, targets, first))
    sets = len(live)
    # Chunk rows are per set, so one call holds up to sets chunks' state.
    rows = max(1, SIM_STATE_BYTES // (9 * n))
    for lo in range(0, count, rows):
        runs = min(rows, count - lo)
        closed = np.empty((sets, runs, n), dtype=bool)
        parts = []
        for s, (gen, (init, _, targets, first)) in enumerate(zip(gens, live)):
            closed[s] = init
            hit_runs, hit_cols = np.nonzero(gen.random((runs, targets.size)) < first)
            if s:
                hit_runs += s * runs
            parts.append(hit_runs * n + targets[hit_cols])
        frontier = parts[0] if sets == 1 else np.concatenate(parts)
        flat = closed.reshape(-1)
        flat[frontier] = True
        starts = None if sets == 1 else np.arange(sets + 1) * (runs * n)
        while frontier.size:
            nodes = frontier % n
            base = frontier - nodes  # the key of (set, run, node 0)
            start = indptr[nodes]
            deg = indptr[nodes + 1] - start
            ends = deg.cumsum()
            cuts, order = _merged_steps(frontier, ends, starts)
            if order is not None:
                base, start, deg = base[order], start[order], deg[order]
                ends = deg.cumsum()
            found = []
            # a level in steps of about EDGE_STEP out-edges per set: a node
            # that adopts in one step is closed to the next, so the steps
            # compose exactly
            for a, b in zip(cuts[:-1], cuts[1:]):
                d = deg[a:b]
                before = ends[a - 1] if a else 0
                pos = np.arange(ends[b - 1] - before) + (
                    start[a:b] - (ends[a:b] - d - before)).repeat(d)
                v = indices[pos]
                keys = base[a:b].repeat(d) + v
                # index arrays: a boolean gather on random masks is slower
                still_open = np.flatnonzero(~flat[keys])
                keys = keys[still_open]
                new = keys[np.flatnonzero(
                    _draw(gens, keys, starts) < prob_in[v[still_open]])]
                new.sort()
                if new.size > 1:
                    new = new[_run_starts(new)]
                flat[new] = True
                found.append(new)
            frontier = found[0] if len(found) == 1 else np.concatenate(found)
            if order is not None:  # back to grouped by set, each set's steps in order
                frontier = frontier[np.argsort(frontier // (runs * n), kind="stable")]
        adopters = np.count_nonzero(closed, axis=2)
        for s, (_, unseeded_blocked, *_) in enumerate(live):
            counts[s, lo:lo + runs] = adopters[s] - unseeded_blocked
    return counts


def _lt_picks(u, start, deg) -> np.ndarray:
    """The in-edge position each uniform in u picks: item i picks one of
    its deg[i] in-edges from start[i] on.  Every LT weight is 1 / in-degree
    and they sum to exactly 1, so the pick is uniform.  u is scratch and
    is overwritten."""
    u *= deg
    pick = u.astype(np.int64)
    np.minimum(pick, deg - 1, out=pick)
    pick += start
    return pick


def _lt_cascades(net: TCNetwork, seed_sets, count: int, gens) -> np.ndarray:
    """simulate_sets under LT for nonempty sets of distinct seeds.

    One LT run is fixed by one uniform in-neighbor pick per eligible node
    with in-neighbors: the node adopts iff it is a seed or its pick
    adopts.  Each set draws the picks of a chunk of runs up front, one
    uniform per run and such node, as sampling._live_in_edges draws them,
    so its draws depend on its generator, count and the net alone.  The
    picks then resolve by pointer jumping: every seed points to one sink,
    other nodes without a pick to themselves, and the others to their
    pick.  The nodes whose chain of picks reaches the sink adopt; a chain
    that ends at a non-seed without a pick, or in a seed-free cycle,
    never does.
    """
    n = net.n
    indptr, indices = net.graph.in_indptr, net.graph.in_indices
    in_deg = np.diff(indptr)
    pickers = np.flatnonzero(net.eligible & (in_deg > 0))
    deg, first = in_deg[pickers], indptr[pickers]
    sets = len(seed_sets)
    seed_rows = np.repeat(np.arange(sets), [seeds.size for seeds in seed_sets])
    seeds = np.concatenate(seed_sets)
    counts = np.empty((sets, count), dtype=np.int64)
    # Chunk rows are per set, so one call holds up to sets chunks' state.
    rows = max(1, SIM_STATE_BYTES // (16 * n))
    for lo in range(0, count, rows):
        runs = min(rows, count - lo)
        u = np.empty((sets, runs, pickers.size))
        for s, gen in enumerate(gens):
            gen.random(out=u[s])
        picked = indices[_lt_picks(u, first, deg)]
        del u
        sink = sets * runs * n
        # ptr[(s * runs + r) * n + v] is where v points in run r of set s:
        # to itself, to the key of its pick or, if a seed, to the sink
        ptr = np.arange(sink + 1)
        grid = ptr[:sink].reshape(sets, runs, n)
        grid[:, :, pickers] = picked + grid[:, :, :1]
        grid[seed_rows, :, seeds] = sink
        # after j jumps a node points 2^j picks up its chain; stop at a
        # jump that adds no adopter, as a longer chain to the sink would
        # pass through a node that the jump adds
        reached = np.count_nonzero(ptr == sink)
        while True:
            ptr = ptr.take(ptr)
            before, reached = reached, np.count_nonzero(ptr == sink)
            if reached == before:
                break
        counts[:, lo:lo + runs] = np.count_nonzero(
            (ptr[:sink] == sink).reshape(sets, runs, n), axis=2)
    return counts


def simulate_block(net: TCNetwork, seeds, count: int,
                   gen: np.random.Generator) -> np.ndarray:
    """Run count independent cascades from seeds together; returns each
    run's adopter count, seeds included, as an int64 array.  The one-set
    call of simulate_sets."""
    return simulate_sets(net, [seeds], count, [gen])[0]


def simulate_once(net: TCNetwork, seeds, rng) -> int:
    """One stochastic run, a block of one through simulate_block; returns
    the number of adopters.

    rng is a numpy Generator, a random.Random (advanced by the call) or a
    seed.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(_seed_sequence(rng))
    return int(simulate_block(net, seeds, 1, rng)[0])


def estimate_profit_simulation(net: TCNetwork, seeds, l: int, rng_seed,
                               workers: int = 1) -> ProfitEstimate:
    """Mean profit over l independent forward runs of seeds: the one-set
    call of estimate_profits_simulation.  workers is ignored."""
    return estimate_profits_simulation(net, [seeds], l, [rng_seed])[0]


def estimate_profits_simulation(net: TCNetwork, seed_sets, l: int,
                                rng_seeds) -> list:
    """estimate_profit_simulation(net, seed_sets[i], l, rng_seeds[i]) for
    every i, bit for bit, with one simulate_sets call per block of runs.

    Every set keeps its own stream, split into blocks of SIM_BLOCK runs as
    for it alone; the sets share l, and so the block sizes.
    """
    l = sample_count(l, "l")
    if len(rng_seeds) != len(seed_sets):
        raise ParameterError(
            f"need one seed per seed set, got {len(rng_seeds)} for {len(seed_sets)}")
    seed_sets = [sorted(set(seeds)) for seeds in seed_sets]
    totals = [0] * len(seed_sets)
    for blocks in zip(*(stream_blocks(seed, l, SIM_BLOCK) for seed in rng_seeds)):
        gens = [np.random.default_rng(child) for child, _ in blocks]
        sums = simulate_sets(net, seed_sets, blocks[0][1], gens).sum(axis=1)
        totals = [t + s for t, s in zip(totals, sums.tolist())]
    return [ProfitEstimate(net.price * (t / l) - net.coupon * len(seeds),
                           t / l, l, "simulation")
            for seeds, t in zip(seed_sets, totals)]


def sample_triggering_set(net: TCNetwork, v: int, rng) -> tuple:
    """Draw T_v for a single node.

    Nodes priced out of organic adoption (I_v < P) draw from the empty
    distribution.  IC includes each in-neighbor independently; LT selects
    at most one, in-neighbor u with probability w_uv, none with the
    remaining mass.
    """
    g = net.graph
    parents = tuple(g.in_indices[g.in_indptr[v]:g.in_indptr[v + 1]].tolist())
    if not net.eligible[v] or not parents:
        return ()
    p = float(net.prob_in[v])
    d = len(parents)
    if net.params.model == "lt":
        # weights are equal (1/in-degree) and sum to exactly 1
        return (parents[min(d - 1, int(rng.random() * d))],)
    if p >= 1.0:
        return parents
    if p < 0.2:
        # geometric gap skipping to avoid one uniform draw per edge
        picked = []
        j = 0
        log1p = math.log(1.0 - p)
        while True:
            j += 1 + int(math.log(1.0 - rng.random()) / log1p)
            if j > d:
                break
            picked.append(parents[j - 1])
        return tuple(picked)
    return tuple(u for u in parents if rng.random() < p)


def sample_realization(net: TCNetwork, rng_seed) -> Realization:
    """Draw triggering sets for every node at once."""
    rng = _rng_from(rng_seed)
    trig = [sample_triggering_set(net, v, rng) for v in range(net.n)]
    return Realization.from_triggering(trig)


def replay_on_realization(real: Realization, seeds) -> int:
    """Adopter count of a seed set under a frozen realization.

    Breadth-first search over live edges u -> v (u in triggering[v]); a
    node activates when reached from a seed, so the count is the size of
    the forward reachable set including the seeds themselves.
    """
    return _reach_count(real.live_out, seeds)


def _reach_count(live_out, seeds) -> int:
    """How many nodes the seeds reach over the live edges u -> v listed in
    live_out[u], seeds included."""
    reached = set(seeds)
    queue = list(reached)
    while queue:
        u = queue.pop()
        for v in live_out[u]:
            if v not in reached:
                reached.add(v)
                queue.append(v)
    return len(reached)

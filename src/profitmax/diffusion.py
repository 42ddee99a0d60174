"""Forward simulation of coupon-driven diffusion, plus realization sampling.

Under the live-edge view of IC and LT (Kempe, Kleinberg & Tardos,
KDD 2003) a cascade is reachability over one random draw of live in-edges.
This module writes that law once for each way the program walks it:

* simulate_sets runs a block of independent cascades from each of several
  seed sets together, all drawing from one generator, and reports how
  many nodes adopt in each run; simulate_block is its one-set call.  Under
  IC a cascade from S only ever adopts open nodes, the eligible nodes
  outside S: the runs advance level by level over an out-CSR of each
  set's open nodes, built once per call, drawing each edge as the
  cascade reaches it.  Under LT each run draws one uniform in-neighbor
  pick per eligible node with in-neighbors up front, and the adopters are
  the nodes whose chain of picks reaches a seed.  The rows of a call share
  their generator's stream, so a row is a draw of its own cascade law but
  not the draw a call for its seed set alone makes; a one-set call draws
  exactly what simulate_block draws.
* _live_in_edges draws whole realizations over the in-edge CSR, as rpm's
  reverse-reachable sets use them.  sample_realization is one run of that
  draw, frozen into a triggering set per node; replay_on_realization then
  resolves any seed set against it with a breadth-first search.

sampling.py walks the same law in reverse, drawing only the in-edges its
traversals reach.

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
# Forward runs per kernel call.  estimate_profit_simulation draws every
# block of this many runs from its own SeedSequence child, so an estimate
# depends on its seed alone.
SIM_BLOCK = 1 << 12
# Dense per-run state one chunk of a block may hold: under IC 9 bytes per
# (run, open node), an adoption flag and a first-level draw, where the
# open nodes of every set of a simulate_sets call count together; under
# LT 16 per (run, node) and seed set, two 8-byte values at a time, first a
# pick's uniform and its in-edge position, then a pointer and its next
# jump, so an LT call holds up to len(seed_sets) times this.  A block runs
# in chunks of as many runs as fit, and every set of a call runs each
# chunk together.
SIM_STATE_BYTES = 1 << 19
# Out-edges expanded at once within an IC level, across every set and run
# of a chunk, which bounds the scratch memory of the levels after the
# first.
EDGE_STEP = 1 << 12
# Forward runs that evaluate a seed set unless a caller asks for another
# count: the CLI's --eval-sims, the baselines and BaseSelector.score.
EVAL_SIMULATIONS = 10_000


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


def _rng_from(ss: np.random.SeedSequence) -> random.Random:
    """A random.Random seeded from the SeedSequence ss."""
    return random.Random(int(ss.generate_state(2, np.uint64)[0]))


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


def _run_starts(keys):
    """Mask of the first entry of each run of equal values in keys.  On
    sorted keys it picks the distinct values: cheaper than np.unique,
    whose hash table code alone adds about 1.7 MiB of resident memory the
    first time it runs."""
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _expand(start, deg):
    """Positions start[i] .. start[i] + deg[i] - 1 for every i, and for
    each position its i."""
    owner = np.arange(deg.size).repeat(deg)
    first = deg.cumsum() - deg  # where each i's positions begin
    pos = (start - first)[owner]
    pos += np.arange(owner.size)
    return pos, owner


def _steps(ends):
    """Cut points splitting items with cumulative edge counts ends into
    consecutive parts of about EDGE_STEP edges each."""
    if ends[-1] <= EDGE_STEP:
        return (0, ends.size)
    step = (ends - 1) // EDGE_STEP
    return (0, *(np.flatnonzero(step[1:] != step[:-1]) + 1), ends.size)


def simulate_sets(net: TCNetwork, seed_sets, count: int,
                  gen: np.random.Generator) -> np.ndarray:
    """Run count independent cascades from each seed set together, all
    drawing from gen; returns each run's adopter count, seeds included, as
    a (len(seed_sets), count) int64 array.

    The sets and runs are one batch: each step draws the uniforms of every
    set at once, so a row follows its seed set's cascade law, independent
    of the other rows, but is not the draw a call for that set alone
    makes.  A one-set call is simulate_block.  An empty set draws nothing.

    Under the live-edge view of IC and LT (Kempe, Kleinberg & Tardos,
    KDD 2003) a cascade is reachability over one random draw of live
    edges.  IC draws its edges as the cascade reaches them, level by
    level, and only the edges into the set's open nodes, the eligible
    non-seeds (_ic_cascades).  LT draws each run's live edges up front,
    one uniform in-neighbor pick per eligible node with in-neighbors, and
    a node adopts iff its chain of picks reaches a seed (_lt_cascades).
    """
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
        counts[rows] = cascades(net, sets, count, gen)
    return counts


def _ic_cascades(net: TCNetwork, seed_sets, count: int, gen) -> np.ndarray:
    """simulate_sets under IC for nonempty sets of distinct sorted seeds.

    A cascade from S only ever adopts open nodes: eligible nodes outside
    S.  The open nodes of every set are numbered 0..N-1 (N is big_n),
    set after set, each set's in node order, and one out-CSR over them,
    the disjoint union of each set's graph on its open nodes, keeps an
    edge only where its target is open in that set: a frontier node is
    always open, so edges into seeds and into nodes below the price are
    dropped once per call, not walked in every run.  (run r, open node
    g) carries the key r * N + g.  Each set's seed level is the same in
    every run, so it is folded into exposure counts: an open node hit by
    k of its set's seeds' out-edges adopts with probability
    1 - (1 - p_v)^k.  Later levels expand each run's new adopters over
    the union, and an edge is live with its target's probability.  The
    runs advance together one level at a time, in chunks of runs, and a
    level in steps of about EDGE_STEP edges.  A run's count is its set's
    seeds plus its adopted open nodes.
    """
    n = net.n
    indptr, indices = net.graph.out_indptr, net.graph.out_indices
    sets = len(seed_sets)
    # (set s, node v) carries the key s * n + v while the union is built
    seeds = np.concatenate([seeds + s * n for s, seeds in enumerate(seed_sets)])
    is_open = np.concatenate([net.eligible] * sets)
    is_open[seeds] = False
    opened = is_open.nonzero()[0]
    big_n = opened.size
    counts = np.empty((sets, count), dtype=np.int64)
    counts.T[:] = [seeds.size for seeds in seed_sets]  # every run adopts its seeds
    if not big_n:
        return counts
    # the out-edges of the open nodes, then of the seeds, in one
    # expansion, kept where their target is open
    sources = np.concatenate((opened, seeds))
    nodes = sources % n
    start = indptr[nodes]
    pos, owner = _expand(start, indptr[nodes + 1] - start)
    targets = (sources - nodes)[owner]
    targets += indices[pos]
    del pos
    kept = is_open[targets].nonzero()[0]
    number = np.empty(is_open.size, dtype=np.int64)
    number[opened] = np.arange(big_n)
    edge_to = number[targets[kept]]
    # owner ascends: open node g's kept edges run from starts[g] to
    # starts[g + 1], and the seeds' kept edges follow
    starts = owner[kept].searchsorted(np.arange(big_n + 1))
    del targets, owner, kept, number
    degs = starts[1:] - starts[:-1]
    exposed = np.bincount(edge_to[starts[-1]:], minlength=big_n)
    prob = net.prob_in[nodes[:big_n]]  # each open node's
    edge_prob = prob[edge_to]
    first_hit = exposed.nonzero()[0]
    first = 1.0 - (1.0 - prob[first_hit]) ** exposed[first_hit]
    set_of = opened // n
    rows = max(1, SIM_STATE_BYTES // (9 * big_n))
    for lo in range(0, count, rows):
        runs = min(rows, count - lo)
        adopted = np.zeros(runs * big_n, dtype=bool)
        hit_runs, hit_cols = (gen.random((runs, first_hit.size)) < first).nonzero()
        frontier = hit_runs * big_n + first_hit[hit_cols]
        adopted[frontier] = True
        levels = [frontier]
        while frontier.size:
            nodes = frontier % big_n
            base = frontier - nodes  # the key of (run, open node 0)
            deg = degs[nodes]
            ends = deg.cumsum()
            if not ends[-1]:
                break  # the frontier has no edge to an open node
            # the level's edges are numbered in frontier order, and
            # node i's edge at number j is edge_to[j + shift[i]]
            shift = starts[nodes] - ends
            shift += deg
            cuts = _steps(ends)
            found = []
            # a level in steps of about EDGE_STEP out-edges: a node that
            # adopts in one step is closed to the next, so the steps
            # compose exactly
            for a, b in zip(cuts[:-1], cuts[1:]):
                d = deg[a:b]
                at = np.arange(ends[a - 1] if a else 0, ends[b - 1]) + shift[a:b].repeat(d)
                keys = base[a:b].repeat(d) + edge_to[at]
                # index arrays: a boolean gather on random masks is slower
                still_open = (~adopted[keys]).nonzero()[0]
                keys = keys[still_open]
                new = keys[(gen.random(keys.size) < edge_prob[at[still_open]]).nonzero()[0]]
                new.sort()
                if new.size > 1:
                    new = new[_run_starts(new)]
                adopted[new] = True
                found.append(new)
            frontier = found[0] if len(found) == 1 else np.concatenate(found)
            levels.append(frontier)
        run, g = np.divmod(np.concatenate(levels), big_n)
        counts[:, lo:lo + runs] += np.bincount(
            set_of[g] * runs + run, minlength=sets * runs).reshape(sets, runs)
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


def _live_in_edges(net: TCNetwork, runs: int, gen: np.random.Generator):
    """Draw runs realizations over the in-edge CSR.  Under IC each in-edge
    of an eligible node is live with that node's probability; under LT
    each eligible node with in-neighbors keeps one, picked uniformly.

    Returns (indptr, sources): the live in-edges of node v in realization
    r come from sources[indptr[r * n + v]:indptr[r * n + v + 1]].
    """
    n = net.n
    pickers = net.pickers()
    if net.params.model == "lt":
        nodes = pickers.nodes
        keys = (np.arange(runs)[:, None] * n + nodes).reshape(-1)
        pos = _lt_picks(gen.random((runs, nodes.size)), pickers.first,
                        pickers.deg).reshape(-1)
    else:
        target = np.repeat(np.arange(n), pickers.in_deg)
        edges = np.flatnonzero(net.eligible[target])
        hit_runs, hit = np.nonzero(gen.random((runs, edges.size))
                                   < net.prob_in[target[edges]])
        pos = edges[hit]
        keys = hit_runs * n + target[pos]
    # keys come out ascending: run-major, then in CSR order
    live_indptr = np.zeros(runs * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=runs * n), out=live_indptr[1:])
    return live_indptr, net.graph.in_indices[pos]


def _realizations(net: TCNetwork, live_indptr, sources) -> list:
    """The Realization of each run of a draw laid out as _live_in_edges
    returns it."""
    n = net.n
    bounds, sources = live_indptr.tolist(), sources.tolist()
    return [Realization.from_triggering(
        [sources[bounds[at]:bounds[at + 1]] for at in range(lo, lo + n)])
        for lo in range(0, len(bounds) - 1, n)]


def _lt_cascades(net: TCNetwork, seed_sets, count: int, gen) -> np.ndarray:
    """simulate_sets under LT for nonempty sets of distinct seeds.

    One LT run is fixed by one uniform in-neighbor pick per eligible node
    with in-neighbors: the node adopts iff it is a seed or its pick
    adopts.  A chunk of runs draws the picks of every set up front, one
    uniform per set, run and such node, in one call, as _live_in_edges
    draws them for one set.  The picks then resolve by pointer jumping:
    every seed points to one sink, other nodes without a pick to
    themselves, and the others to their pick.
    The nodes whose chain of picks reaches the sink adopt; a chain that
    ends at a non-seed without a pick, or in a seed-free cycle, never
    does.
    """
    n = net.n
    pickers = net.pickers()
    sets = len(seed_sets)
    seed_rows = np.repeat(np.arange(sets), [seeds.size for seeds in seed_sets])
    seeds = np.concatenate(seed_sets)
    counts = np.empty((sets, count), dtype=np.int64)
    # Chunk rows are per set, so one call holds up to sets chunks' state.
    rows = max(1, SIM_STATE_BYTES // (16 * n))
    for lo in range(0, count, rows):
        runs = min(rows, count - lo)
        picked = net.graph.in_indices[_lt_picks(
            gen.random((sets, runs, pickers.nodes.size)), pickers.first, pickers.deg)]
        sink = sets * runs * n
        # ptr[(s * runs + r) * n + v] is where v points in run r of set s:
        # to itself, to the key of its pick or, if a seed, to the sink
        ptr = np.arange(sink + 1)
        grid = ptr[:sink].reshape(sets, runs, n)
        grid[:, :, pickers.nodes] = picked + grid[:, :, :1]
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
        counts[:, lo:lo + runs] = np.bincount(
            np.flatnonzero(ptr[:sink] == sink) // n,
            minlength=sets * runs).reshape(sets, runs)
    return counts


def simulate_block(net: TCNetwork, seeds, count: int,
                   gen: np.random.Generator) -> np.ndarray:
    """Run count independent cascades from seeds together; returns each
    run's adopter count, seeds included, as an int64 array.  The one-set
    call of simulate_sets."""
    return simulate_sets(net, [seeds], count, gen)[0]


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
    """Mean profit over l independent forward runs of seeds, in blocks of
    SIM_BLOCK runs, each from its own child of rng_seed's stream (see
    stream_blocks).  workers is ignored."""
    l = sample_count(l, "l")
    seeds = sorted(set(seeds))
    total = 0
    for child, size in stream_blocks(rng_seed, l, SIM_BLOCK):
        total += int(simulate_block(net, seeds, size, np.random.default_rng(child)).sum())
    return ProfitEstimate(net.price * (total / l) - net.coupon * len(seeds),
                          total / l, l, "simulation")


def sample_realization(net: TCNetwork, rng_seed) -> Realization:
    """One realization, the one-run _live_in_edges draw from rng_seed's
    stream (a SeedSequence, a random.Random or a seed)."""
    gen = np.random.default_rng(_seed_sequence(rng_seed))
    return _realizations(net, *_live_in_edges(net, 1, gen))[0]


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

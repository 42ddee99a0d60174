"""Forward simulation of coupon-driven diffusion, plus realization sampling.

Two interchangeable views of the same random process:

* simulate_block runs a block of independent cascades together, level by
  level, and reports how many nodes adopt in each run.
* sample_realization freezes the randomness into one triggering set per
  node; replay_on_realization then resolves any seed set against that
  frozen draw with a breadth-first search.

Seeds always adopt: they hold coupons and pruning guarantees I_v >= P - C.
A non-seed adopts only if a neighbor activates it and I_v >= P; nodes below
the price can never be activated organically, so they never relay unless
seeded.
"""

import math
import random
import struct
from dataclasses import dataclass

import numpy as np

from .network import NetworkError, ParameterError, TCNetwork

# Forward runs per random stream.  Every block of this many runs draws from
# its own SeedSequence child, so an estimate depends on its seed alone.
SIM_BLOCK = 1 << 12
# Dense per-run state one chunk of a block may hold: an adoption flag, a
# first-level draw and, under LT, an exposure count per (run, node).  A
# block runs in chunks of as many runs as fit.
SIM_STATE_BYTES = 1 << 19
# Out-edges expanded at once within a level, which bounds the scratch
# memory of the levels after the first.
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


def stream_blocks(seed, total: int, block: int):
    """Split total samples into consecutive blocks of block samples, the
    last one possibly short, and yield (SeedSequence child, size) for
    each.  The partition depends on total and block alone, never on how
    many workers consume it."""
    ss = _seed_sequence(seed)
    for i, child in enumerate(ss.spawn(-(-total // block))):
        yield child, min(block, total - i * block)


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


def simulate_block(net: TCNetwork, seeds, count: int,
                   gen: np.random.Generator) -> np.ndarray:
    """Run count independent cascades from seeds together; returns each
    run's adopter count, seeds included, as an int64 array.

    Under the live-edge view of IC and LT (Kempe, Kleinberg & Tardos,
    KDD 2003) a cascade is reachability over one random draw, so the runs
    advance together one level at a time.  (run r, node v) carries the key
    r * n + v.  The seeds' level is the same in every run: their out-edges
    are expanded once, and a non-seed target hit by k of them adopts with
    probability 1 - (1 - p_v)^k under IC and k / d_v under LT (d_v its
    in-degree; every LT weight is 1 / d_v).  Later levels expand each
    run's new adopters.  An IC edge is live with its target's probability.
    An LT node that j new in-neighbors reach, after prev earlier ones,
    adopts with probability j / (d_v - prev): its uniform threshold,
    given that it lies above prev / d_v, lies below (prev + j) / d_v.
    """
    n = net.n
    indptr, indices = net.out_csr()
    in_indptr, _, prob_in, eligible = net.in_csr()
    lt = net.params.model == "lt"
    seeds = _sorted_runs(np.fromiter(seeds, dtype=np.int64))[0]
    counts = np.full(count, seeds.size, dtype=np.int64)
    if not seeds.size:
        return counts
    start = indptr[seeds]
    exposed = np.bincount(indices[_expand(start, indptr[seeds + 1] - start)[0]],
                          minlength=n)
    exposed[seeds] = 0
    exposed[~eligible] = 0
    targets = np.flatnonzero(exposed)
    k = exposed[targets]
    if lt:
        in_deg = np.diff(in_indptr)
        first = k / in_deg[targets]
    else:
        first = 1.0 - (1.0 - prob_in[targets]) ** k
    rows = max(1, SIM_STATE_BYTES // (n * (9 + 4 * lt)))
    for lo in range(0, count, rows):
        runs = min(rows, count - lo)
        adopted = np.zeros((runs, n), dtype=bool)
        adopted[:, seeds] = True
        flat = adopted.reshape(-1)
        hit_runs, hit_cols = np.nonzero(gen.random((runs, targets.size)) < first)
        frontier = hit_runs * n + targets[hit_cols]
        flat[frontier] = True
        if lt:
            seen = np.zeros((runs, n), dtype=np.int32)  # adopted in-neighbors
            seen[:, targets] = k
            seen = seen.reshape(-1)
        while frontier.size:
            frontier_runs, nodes = np.divmod(frontier, n)
            start = indptr[nodes]
            deg = indptr[nodes + 1] - start
            cuts = _steps(np.cumsum(deg))
            found = []
            # a level in steps of about EDGE_STEP out-edges: a node that
            # adopts in one step is closed to the next, and an LT node
            # carries its exposure count over, so the steps compose exactly
            for a, b in zip(cuts[:-1], cuts[1:]):
                pos, owner = _expand(start[a:b], deg[a:b])
                v = indices[pos]
                keys = frontier_runs[a:b][owner] * n + v
                still_open = eligible[v] & ~flat[keys]
                keys, v = keys[still_open], v[still_open]
                if lt:
                    keys, j = _sorted_runs(keys)
                    prev = seen[keys]
                    new = keys[gen.random(keys.size) < j / (in_deg[keys % n] - prev)]
                    seen[keys] = prev + j
                else:
                    new = _sorted_runs(keys[gen.random(keys.size) < prob_in[v]])[0]
                flat[new] = True
                found.append(new)
            frontier = np.concatenate(found)
        counts[lo:lo + runs] = np.count_nonzero(adopted, axis=1)
    return counts


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
    """Mean profit over l independent forward runs.

    The runs are split into blocks of SIM_BLOCK, each driven by its own
    SeedSequence child of rng_seed, so the estimate depends on
    (rng_seed, l) alone; workers is accepted for call compatibility.
    """
    if l < 1:
        raise ParameterError(f"need at least one simulation, got {l}")
    seeds = sorted(seeds)
    total = 0
    for child, size in stream_blocks(rng_seed, l, SIM_BLOCK):
        total += int(simulate_block(net, seeds, size,
                                    np.random.default_rng(child)).sum())
    mean_adopters = total / l
    profit = net.price * mean_adopters - net.coupon * len(seeds)
    return ProfitEstimate(profit, mean_adopters, l, "simulation")


def sample_triggering_set(net: TCNetwork, v: int, rng) -> tuple:
    """Draw T_v for a single node.

    Nodes priced out of organic adoption (I_v < P) draw from the empty
    distribution.  IC includes each in-neighbor independently; LT selects
    at most one, in-neighbor u with probability w_uv, none with the
    remaining mass.
    """
    if not net.eligible[v]:
        return ()
    in_adj = net.graph.in_adj[v]
    if not in_adj:
        return ()
    p = net.prob_in[v]
    if net.params.model == "lt":
        # weights are equal (1/in-degree) and sum to exactly 1
        d = len(in_adj)
        return (in_adj[min(d - 1, int(rng.random() * d))],)
    if p >= 1.0:
        return in_adj
    d = len(in_adj)
    if p < 0.2:
        # geometric gap skipping to avoid one uniform draw per edge
        picked = []
        j = 0
        log1p = math.log(1.0 - p)
        while True:
            j += 1 + int(math.log(1.0 - rng.random()) / log1p)
            if j > d:
                break
            picked.append(in_adj[j - 1])
        return tuple(picked)
    return tuple(u for u in in_adj if rng.random() < p)


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
    live_out = real.live_out
    reached = set(seeds)
    queue = list(reached)
    while queue:
        u = queue.pop()
        for v in live_out[u]:
            if v not in reached:
                reached.add(v)
                queue.append(v)
    return len(reached)


_REAL_MAGIC = b"TCRZ"
_REAL_VERSION = 1


def save_realizations(path, realizations, n: int):
    """Binary cache: magic, version byte, n, count, then each realization
    as per-node length-prefixed triggering lists (uint32 throughout)."""
    with open(path, "wb") as fh:
        fh.write(_REAL_MAGIC)
        fh.write(struct.pack("<BII", _REAL_VERSION, n, len(realizations)))
        for real in realizations:
            if len(real.triggering) != n:
                raise ValueError("realization node count mismatch")
            for t in real.triggering:
                fh.write(struct.pack("<I", len(t)))
                if t:
                    fh.write(struct.pack(f"<{len(t)}I", *t))


class _CacheReader:
    """Bounds-checked reads over a whole cache file held in memory."""

    def __init__(self, path, kind: str):
        with open(path, "rb") as fh:
            self.data = fh.read()
        self.pos = 0
        self.kind = kind

    def take(self, size: int) -> bytes:
        end = self.pos + size
        if end > len(self.data):
            raise NetworkError(f"truncated {self.kind} cache")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<u4")


def load_realizations(path):
    reader = _CacheReader(path, "realization")
    if reader.data[:4] != _REAL_MAGIC:
        raise NetworkError("not a realization cache file")
    reader.take(4)
    version, n, count = reader.unpack("<BII")
    if version != _REAL_VERSION:
        raise NetworkError(f"unsupported realization cache version {version}")
    out = []
    for _ in range(count):
        trig = []
        for _ in range(n):
            (k,) = reader.unpack("<I")
            trig.append(reader.unpack(f"<{k}I") if k else ())
        out.append(Realization.from_triggering(trig))
    return out

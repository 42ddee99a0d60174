"""Forward simulation of coupon-driven diffusion, plus realization sampling.

Two interchangeable views of the same random process:

* simulate_once runs the live process round by round (cascade attempts for
  the IC models, threshold accumulation for LT) and reports how many nodes
  adopt.
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

from .network import TCNetwork, NetworkError


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


def simulate_once(net: TCNetwork, seeds, rng) -> int:
    """One stochastic run; returns the number of adopters.

    rng must be a random.Random instance (hot path, no conversion here).
    """
    adopted = [False] * net.n
    frontier = []
    for s in seeds:
        if not adopted[s]:
            adopted[s] = True
            frontier.append(s)
    count = len(frontier)
    if net.params.model == "lt":
        return _run_lt(net, adopted, frontier, count, rng)
    out_adj = net.graph.out_adj
    prob_in = net.prob_in
    eligible = net.eligible
    rand = rng.random
    while frontier:
        nxt = []
        for u in frontier:
            for v in out_adj[u]:
                # one activation attempt per edge; spent even if v is below price
                if not adopted[v] and eligible[v] and rand() < prob_in[v]:
                    adopted[v] = True
                    nxt.append(v)
        count += len(nxt)
        frontier = nxt
    return count


def _run_lt(net, adopted, frontier, count, rng):
    # thresholds are drawn lazily on first exposure, fresh every run
    out_adj = net.graph.out_adj
    prob_in = net.prob_in
    eligible = net.eligible
    rand = rng.random
    theta = {}
    weight = {}
    while frontier:
        nxt = []
        touched = set()
        for u in frontier:
            for v in out_adj[u]:
                if adopted[v] or not eligible[v]:
                    continue
                weight[v] = weight.get(v, 0.0) + prob_in[v]
                touched.add(v)
        for v in touched:
            if v not in theta:
                theta[v] = rand()
            if weight[v] >= theta[v] and not adopted[v]:
                adopted[v] = True
                nxt.append(v)
        count += len(nxt)
        frontier = nxt
    return count


def _block_sizes(total: int, workers: int):
    q, rem = divmod(total, workers)
    return [q + 1 if i < rem else q for i in range(workers)]


def estimate_profit_simulation(net: TCNetwork, seeds, l: int, rng_seed,
                               workers: int = 1) -> ProfitEstimate:
    """Mean profit over l independent forward runs.

    The l runs are split into `workers` contiguous blocks, each driven by
    its own derived stream, so the result is reproducible for a fixed
    (rng_seed, workers) pair regardless of how blocks are scheduled.
    """
    if l < 1:
        raise ValueError("need at least one simulation")
    workers = max(1, min(workers, l))
    ss = rng_seed if isinstance(rng_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(rng_seed)
    seeds = sorted(seeds)
    total = 0
    for child, block in zip(ss.spawn(workers), _block_sizes(l, workers)):
        rng = _rng_from(child)
        for _ in range(block):
            total += simulate_once(net, seeds, rng)
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

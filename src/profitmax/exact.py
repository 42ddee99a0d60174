"""Exhaustive ground-truth oracle for tiny networks.

Computing expected adopter counts exactly is #P-hard in general, so this
module only accepts instances whose realization space can be enumerated in
full: every live-edge configuration for the IC models, every per-node
choice vector for LT.  Anything larger is refused loudly; there is no
silent fallback to sampling.
"""

import numpy as np

from .diffusion import _reach_count
from .network import TCNetwork


class OracleSizeError(ValueError):
    """The instance is too large for exhaustive enumeration."""


# hard limits for the streaming oracle and the full subset table
MAX_LIVE_EDGES = 25
MAX_LT_CHOICES = 10_000_000
MAX_TABLE_NODES = 20
# The table folds every realization into all 2^n subsets: it is refused
# when 2^n times the realization count exceeds this.
MAX_TABLE_WORK = 1 << 26
# Bytes of the (2^n, chunk) uint32 reach scratch of one fold; the chunk
# of realizations folded at once shrinks to fit.
TABLE_SCRATCH_BYTES = 1 << 23
# Entries this many ulps of a profit table's largest magnitude apart tie
# in best_seed_set: subsets of equal profit, such as the rotations of a
# seed set on a cycle, were seen up to 6 ulps apart after the fold.
TIE_ULPS = 8

try:
    _popcount_u32 = np.bitwise_count
except AttributeError:  # numpy < 2.0
    _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

    def _popcount_u32(x):
        x = np.asarray(x, dtype=np.uint32)
        return _POP16[x & np.uint32(0xFFFF)] + _POP16[x >> np.uint32(16)]


def _live_edges(net: TCNetwork):
    """Edges whose presence is random: all edges into organically eligible
    nodes.  Edges into priced-out nodes never fire (empty triggering set)."""
    g = net.graph
    targets = np.repeat(np.arange(net.n), np.diff(g.in_indptr))
    live = net.eligible[targets]
    return list(zip(g.in_indices[live].tolist(), targets[live].tolist(),
                    net.prob_in[targets[live]].tolist()))


def _lt_choices(net: TCNetwork):
    """Per-node option lists for LT enumeration.

    Each eligible node with in-neighbors picks one of them (probability
    w each) or nobody with the leftover mass; with 1/in-degree weights the
    leftover is zero and is dropped from the option list.
    """
    g = net.graph
    indptr = g.in_indptr
    choices = []
    for v in np.flatnonzero(net.eligible & (np.diff(indptr) > 0)).tolist():
        w = float(net.prob_in[v])
        opts = [(w, u) for u in g.in_indices[indptr[v]:indptr[v + 1]].tolist()]
        leftover = 1.0 - w * len(opts)
        if leftover > 1e-12:
            opts.append((leftover, None))
        choices.append((v, opts))
    return choices


def realization_count(net: TCNetwork) -> int:
    if net.params.model == "lt":
        count = 1
        for _, opts in _lt_choices(net):
            count *= len(opts)
        return count
    return 1 << len(_live_edges(net))


def _check_streamable(net: TCNetwork):
    if net.params.model == "lt":
        if realization_count(net) > MAX_LT_CHOICES:
            raise OracleSizeError(
                f"LT instance has {realization_count(net)} realizations, "
                f"limit is {MAX_LT_CHOICES}; exact oracle refused")
    else:
        m_live = len(_live_edges(net))
        if m_live > MAX_LIVE_EDGES:
            raise OracleSizeError(
                f"IC instance has {m_live} live-edge candidates, "
                f"limit is {MAX_LIVE_EDGES}; exact oracle refused")


def iter_realizations(net: TCNetwork):
    """Yield (probability, live_out adjacency) for every realization.

    Probabilities sum to 1 over the full iteration.  live_out[u] lists the
    nodes v whose triggering set contains u.  The adjacency object is
    reused between yields; consume it before advancing the iterator.
    """
    _check_streamable(net)
    n = net.n
    if net.params.model == "lt":
        choices = _lt_choices(net)
        k = len(choices)

        def rec(i, prob, live_out):
            if i == k:
                yield prob, live_out
                return
            v, opts = choices[i]
            for w, u in opts:
                if u is None:
                    yield from rec(i + 1, prob * w, live_out)
                else:
                    live_out[u].append(v)
                    yield from rec(i + 1, prob * w, live_out)
                    live_out[u].pop()

        yield from rec(0, 1.0, [[] for _ in range(n)])
        return
    edges = _live_edges(net)
    m = len(edges)
    for idx in range(1 << m):
        prob = 1.0
        live_out = [[] for _ in range(n)]
        for e, (u, v, p) in enumerate(edges):
            if idx >> e & 1:
                prob *= p
                live_out[u].append(v)
            else:
                prob *= 1.0 - p
        yield prob, live_out


def exact_pi(net: TCNetwork, seeds) -> float:
    """Exact expected adopter count by full enumeration."""
    seeds = set(seeds)
    if not seeds:
        return 0.0
    total = 0.0
    for prob, live_out in iter_realizations(net):
        total += prob * _reach_count(live_out, seeds)
    return total


def exact_profit(net: TCNetwork, seeds) -> float:
    seeds = set(seeds)
    return net.price * exact_pi(net, seeds) - net.coupon * len(seeds)


def _reach_masks(live_out, n):
    """Bitmask of nodes reachable from each start node, start included."""
    masks = []
    for s in range(n):
        reached = 1 << s
        queue = [s]
        while queue:
            u = queue.pop()
            for v in live_out[u]:
                bit = 1 << v
                if not reached & bit:
                    reached |= bit
                    queue.append(v)
        masks.append(reached)
    return masks


def pi_table(net: TCNetwork, chunk: int = 2048) -> np.ndarray:
    """Exact pi for every seed subset, indexed by bitmask.

    Builds per-realization reach masks, then folds them over all 2^n
    subsets, a chunk of at most chunk realizations at a time, fewer where
    TABLE_SCRATCH_BYTES requires it.  A fold builds the union of reach
    masks of every subset by doubling over the n bits, the subsets with
    top bit b being those below 2^b joined with reach mask b.  It then
    adds each subset's probability-weighted reach counts, summed pairwise,
    in row blocks whose float scratch is an eighth of TABLE_SCRATCH_BYTES.
    """
    n = net.n
    if n > MAX_TABLE_NODES:
        raise OracleSizeError(f"subset table limited to {MAX_TABLE_NODES} nodes, got {n}")
    count = realization_count(net)
    size = 1 << n
    if size * count > MAX_TABLE_WORK:
        raise OracleSizeError(
            f"subset table limited to 2^n x realizations <= {MAX_TABLE_WORK}, "
            f"instance has 2^{n} x {count}")
    chunk = max(1, min(chunk, TABLE_SCRATCH_BYTES // (4 * size)))
    table = np.zeros(size, dtype=np.float64)
    probs_buf, reach_buf = [], []

    def flush():
        if not probs_buf:
            return
        k = len(probs_buf)
        probs = np.array(probs_buf, dtype=np.float64)
        reach = np.array(reach_buf, dtype=np.uint32).T.copy()  # (n, k)
        u = np.zeros((size, k), dtype=np.uint32)
        for b in range(n):
            np.bitwise_or(u[:1 << b], reach[b], out=u[1 << b:2 << b])
        rows = max(1, TABLE_SCRATCH_BYTES // (64 * k))
        for lo in range(0, size, rows):
            weighted = _popcount_u32(u[lo:lo + rows]).astype(np.float64)
            weighted *= probs
            table[lo:lo + rows] += weighted.sum(axis=1)  # pairwise sums
        probs_buf.clear()
        reach_buf.clear()

    for prob, live_out in iter_realizations(net):
        probs_buf.append(prob)
        reach_buf.append(_reach_masks(live_out, n))
        if len(probs_buf) >= chunk:
            flush()
    flush()
    return table


def profit_table(net: TCNetwork, chunk: int = 2048) -> np.ndarray:
    """Exact profit for every seed subset, indexed by bitmask."""
    pis = pi_table(net, chunk=chunk)
    sizes = _popcount_u32(np.arange(len(pis), dtype=np.uint32)).astype(np.float64)
    return net.price * pis - net.coupon * sizes


def best_seed_set(net: TCNetwork, table: np.ndarray = None):
    """Optimal seed set by exhaustive search.

    Ties resolve to the numerically smallest bitmask so results are
    reproducible.  The table's sums round, so subsets of equal profit can
    differ in their last bits: every entry within TIE_ULPS ulps of the
    maximum, an ulp taken at the table's largest magnitude, ties with it.
    Returns (frozenset of node ids, optimal profit).
    """
    if table is None:
        table = profit_table(net)
    slack = TIE_ULPS * np.spacing(np.abs(table).max())
    mask = int(np.flatnonzero(table >= table.max() - slack)[0])
    members = frozenset(v for v in range(net.n) if mask >> v & 1)
    return members, float(table[mask])


def mask_of(seeds) -> int:
    mask = 0
    for v in seeds:
        mask |= 1 << v
    return mask

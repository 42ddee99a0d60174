"""Reverse adopted-reachable (RA) sampling.

An RA set is grown backwards from a uniformly random root: the root's
triggering set is sampled, then the triggering sets of the newly reached
nodes, and so on.  Every node in the result could have caused the root to
adopt, so the fraction of RA sets touched by a seed set S estimates the
adopter expectation: E[x(S, R)] = pi(S) / n.  The profit estimator built
on a collection of l RA sets is

    F(R_l, S) = P * n * (sum_i x(S, R_i)) / l - C * |S|

rpm's sets come from the same level loop: sample_rr_block draws whole
realizations and collects, for every node w of each, the nodes that reach
w.  Over l realizations those l * n sets give F the value P times the mean
adopter count of S across the realizations, less C * |S|.

A one-member set {v} meets S exactly when v is in S, so collections keep
such sets, most RA sets on sparse networks, as a count per node.  The
kernels settle them at the first level of the traversal: a root that draws
no parent is counted and leaves it, and only the sets of two or more
members are grown on and returned, and stored, whole.
"""

import numpy as np

from .diffusion import (SIM_STATE_BYTES, _expand, _lt_picks, _sorted_runs,
                        sample_count, stream_blocks)
from .network import TCNetwork

# RA sets per random stream.  Every block of this many sets draws from its
# own SeedSequence child, so a collection depends on its seed alone.
RA_BLOCK = 1 << 15
# Entries per pass of the inverted-index build and of the member count,
# which bounds their scratch memory: about 50 bytes per entry.
INDEX_CHUNK = 1 << 13


def _ic_parents(gen, sets, start, deg, p, indices, n):
    """Keys of the live in-edges' sources: each in-edge of a frontier node
    is live independently with that node's probability, p, a scalar when
    every node shares it.  Geometric skips jump from one live edge to the
    next, so the draws follow the hits rather than the in-degree."""
    per_node = np.ndim(p) > 0
    found = []
    pos = gen.geometric(p, size=sets.size)  # 1-based position of the next live in-edge
    while True:
        hit = np.flatnonzero(pos <= deg)  # index arrays: cheaper than masks
        sets, start, deg, pos = sets[hit], start[hit], deg[hit], pos[hit]
        if per_node:
            p = p[hit]
        if not sets.size:
            break
        found.append(sets * n + indices[start + pos - 1])
        pos += gen.geometric(p, size=sets.size)
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def _lt_parents(gen, sets, start, deg, indices, n):
    """Keys of the one in-neighbor each frontier node picks (_lt_picks)."""
    return sets * n + indices[_lt_picks(gen.random(sets.size), start, deg)]


def _in_sorted(sorted_keys, keys) -> np.ndarray:
    """Mask over keys: which ones occur in the ascending array sorted_keys."""
    if not sorted_keys.size:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def _grow(roots, n: int, parents):
    """Grow one set from each root together by level-synchronous reverse BFS.

    A member of set i that is node v carries the key i * n + v.
    parents(sets, nodes) returns the keys of the parents of the newest
    members (any order, repeats allowed), and the step keeps the ones new
    to their set.

    The first level settles the one-member sets: a root that draws no
    parent is only counted, and its set leaves the traversal.  A Graph
    keeps no self-loops or repeated edges, so the first level's parents
    are distinct and new to their sets.  The other sets grow on under
    their original ids, which parents reads, and draw what they would
    draw if every set were grown.

    Returns (single, sizes, members): single (int64) counts, per node, the
    sets holding their root alone; sizes and members (int32) describe the
    sets of two or more members, in their original order: members holds
    the first one's nodes, then the second one's, each set's ascending.
    """
    count = roots.size
    frontier = np.sort(parents(np.arange(count), roots))
    grown = np.zeros(count, dtype=bool)
    grown[frontier // n] = True
    kept = np.flatnonzero(grown)
    # every root less the kept ones: cheaper than masking out the kept
    single = np.bincount(roots, minlength=n) - np.bincount(roots[kept], minlength=n)
    levels = [kept * n + roots[kept], frontier]
    # member keys of the sets still growing, ascending; sets that have
    # stopped never meet a candidate again, so they are left out
    growing = np.sort(np.concatenate(levels))
    while frontier.size:
        sets, nodes = np.divmod(frontier, n)
        found = _sorted_runs(parents(sets, nodes))[0]
        frontier = found[~_in_sorted(growing, found)]
        if not frontier.size:
            break
        levels.append(frontier)
        alive = np.zeros(count, dtype=bool)
        alive[frontier // n] = True
        growing = np.sort(np.concatenate((growing[alive[growing // n]], frontier)),
                          kind="stable")
    keys = np.sort(np.concatenate(levels), kind="stable")
    sets = keys // n
    sizes = np.bincount(sets, minlength=count)[kept]
    return single, sizes.astype(np.int32), (keys - sets * n).astype(np.int32)


def sample_ra_block(net: TCNetwork, count: int, gen: np.random.Generator):
    """Grow count RA sets together from uniform roots (see _grow).

    Each step samples the triggering sets of every set's newest members at
    once.  Triggering sets are drawn only for nodes the traversal reaches,
    each once per set; the rest of the realization is never materialized.
    In-degrees and the nodes that can draw a parent at all (eligible, with
    in-neighbors) are looked up once per block.

    Returns (single, sizes, members) as _grow lays them out.
    """
    n = net.n
    indptr, indices = net.graph.in_indptr, net.graph.in_indices
    in_deg = np.diff(indptr)
    expands = net.eligible & (in_deg > 0)
    lt = net.params.model == "lt"
    # under ic-cp every node shares one probability; a scalar draws the
    # same stream as the per-node array
    prob = net.params.ic_probability if net.params.model == "ic-cp" else net.prob_in
    roots = gen.integers(0, n, size=count)

    def parents(sets, nodes):
        live = np.flatnonzero(expands[nodes])
        sets, nodes = sets[live], nodes[live]
        start, deg = indptr[nodes], in_deg[nodes]
        if lt:
            return _lt_parents(gen, sets, start, deg, indices, n)
        p = prob if np.ndim(prob) == 0 else prob[nodes]
        return _ic_parents(gen, sets, start, deg, p, indices, n)

    return _grow(roots, n, parents)


def _live_in_edges(net: TCNetwork, runs: int, gen: np.random.Generator):
    """Draw runs realizations over the in-edge CSR.  Under IC each in-edge
    of an eligible node is live with that node's probability; under LT
    each eligible node with in-neighbors keeps one, picked uniformly.

    Returns (indptr, sources): the live in-edges of node v in realization
    r come from sources[indptr[r * n + v]:indptr[r * n + v + 1]].
    """
    n = net.n
    indptr, indices = net.graph.in_indptr, net.graph.in_indices
    prob_in, eligible = net.prob_in, net.eligible
    deg = np.diff(indptr)
    if net.params.model == "lt":
        nodes = np.flatnonzero(eligible & (deg > 0))
        keys = (np.arange(runs)[:, None] * n + nodes).reshape(-1)
        pos = _lt_picks(gen.random((runs, nodes.size)), indptr[nodes],
                        deg[nodes]).reshape(-1)
    else:
        target = np.repeat(np.arange(n), deg)
        edges = np.flatnonzero(eligible[target])
        hit_runs, hit = np.nonzero(gen.random((runs, edges.size))
                                   < prob_in[target[edges]])
        pos = edges[hit]
        keys = hit_runs * n + target[pos]
    # keys come out ascending: run-major, then in CSR order
    live_indptr = np.zeros(runs * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=runs * n), out=live_indptr[1:])
    return live_indptr, indices[pos]


def sample_rr_block(net: TCNetwork, count: int, gen: np.random.Generator):
    """Draw count realizations and the reverse-reachable set of every node
    in each: RR_r(w) holds the nodes that reach w over live edges in
    realization r, w included.

    A generator: it yields (single, sizes, members), laid out as _grow
    does, for consecutive passes of whole realizations: single counts the
    sets {w} at w, and the larger sets follow in (r, w) order.  A caller
    can stop as soon as the sets outgrow its budget.  A pass holds as many
    realizations as fit SIM_STATE_BYTES at 8 bytes per in-edge (the draw)
    and per node of each of n sets (the member keys).  The passes draw
    the same stream as one pass would.
    """
    n = net.n
    rows = max(1, SIM_STATE_BYTES // (8 * (net.m + n * n)))
    for lo in range(0, count, rows):
        runs = min(rows, count - lo)
        live_indptr, sources = _live_in_edges(net, runs, gen)

        def parents(sets, nodes):
            at = sets // n * n + nodes  # (realization, node)
            start = live_indptr[at]
            pos, owner = _expand(start, live_indptr[at + 1] - start)
            return sets[owner] * n + sources[pos]

        yield _grow(np.tile(np.arange(n), runs), n, parents)  # root of r*n+w is w


def _stable_order(nodes, n: int) -> np.ndarray:
    """Stable argsort of node ids below n: passes over 16-bit digits,
    which numpy sorts by radix, so the cost is linear for any node count;
    the second pass runs only when ids need more than 16 bits."""
    order = np.argsort((nodes & 0xFFFF).astype(np.uint16), kind="stable")
    if n <= 1 << 16:
        return order
    return order[np.argsort((nodes[order] >> 16).astype(np.uint16), kind="stable")]


class RACollection:
    """A flat store of RA sets with an inverted index.

    single[v] counts the sets {v}.  The other sets are stored: their
    member lists live in one int32 array sliced by offsets, which keeps
    millions of small sets cheap.  len() counts every set; sizes,
    members_of and the inverted index (node -> stored sets containing it,
    built on first use) describe the stored sets, numbered before the
    one-member sets, which sets_containing numbers node after node.
    """

    def __init__(self, n: int, single, offsets, members):
        self.n = n
        self.single = np.asarray(single, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.members = np.asarray(members, dtype=np.int32)
        self._index = None

    def __len__(self):
        return self.offsets.size - 1 + int(self.single.sum())

    def members_of(self, i: int) -> np.ndarray:
        return self.members[self.offsets[i]:self.offsets[i + 1]]

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def index(self):
        """(idx_offsets, idx_sets): for node v, idx_sets[idx_offsets[v]:
        idx_offsets[v+1]] are the indices of stored sets containing v,
        ascending, as int32."""
        if self._index is None:
            idx_offsets = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self.coverage_counts() - self.single, out=idx_offsets[1:])
            idx_sets = np.empty(self.members.size, dtype=np.int32)
            cursor = idx_offsets[:-1].copy()  # each node's next free slot
            # a counting sort: entries come in set order, so filling each
            # node's slots in entry order keeps its sets ascending
            for lo in range(0, self.members.size, INDEX_CHUNK):
                hi = min(lo + INDEX_CHUNK, self.members.size)
                # sets first..last hold entries lo..hi-1
                first = np.searchsorted(self.offsets, lo, side="right") - 1
                last = np.searchsorted(self.offsets, hi, side="left") - 1
                bounds = np.clip(self.offsets[first:last + 2], lo, hi)
                owner = np.repeat(np.arange(first, last + 1, dtype=np.int32),
                                  np.diff(bounds))
                order = _stable_order(self.members[lo:hi], self.n)
                nodes = self.members[lo:hi][order]
                starts = np.flatnonzero(
                    np.concatenate(([True], nodes[1:] != nodes[:-1])))
                runs = np.diff(np.append(starts, nodes.size))
                rank = np.arange(nodes.size) - np.repeat(starts, runs)
                idx_sets[cursor[nodes] + rank] = owner[order]
                cursor[nodes[starts]] += runs
            self._index = (idx_offsets, idx_sets)
        return self._index

    def sets_containing(self, v: int) -> np.ndarray:
        """Every set containing v, ascending: stored, then one-member."""
        idx_offsets, idx_sets = self.index()
        first = self.offsets.size - 1 + int(self.single[:v].sum())
        return np.concatenate((idx_sets[idx_offsets[v]:idx_offsets[v + 1]],
                               np.arange(first, first + self.single[v])))

    def coverage_counts(self) -> np.ndarray:
        """How many sets contain each node, as int64.  The stored members
        are counted in place per INDEX_CHUNK entries: np.bincount would
        first copy the whole int32 member array to int64."""
        counts = self.single.copy()
        for lo in range(0, self.members.size, INDEX_CHUNK):
            np.add.at(counts, self.members[lo:lo + INDEX_CHUNK], 1)
        return counts


class CollectionBuilder:
    """Accumulates RA or RR sets kernel block by block, across growth rounds,
    as a running count of one-member sets per node and split blocks."""

    def __init__(self, net: TCNetwork):
        self.net = net
        self._single = np.zeros(net.n, dtype=np.int64)
        # (sizes, members) of the multi-member sets per block
        self._chunks = [(np.empty(0, np.int32), np.empty(0, np.int32))]
        self._count = 0

    def __len__(self):
        return self._count

    def add(self, single, sizes, members):
        """Store one kernel block of sets laid out as _grow lays them out."""
        self._count += int(single.sum()) + sizes.size
        self._single = self._single + single  # earlier snapshots hold the old one
        self._chunks.append((sizes, members))

    def extend(self, count: int, rng):
        """Append count RA sets.  rng (a SeedSequence, a random.Random or a
        seed) spawns one child stream per RA_BLOCK sets."""
        if count <= 0:
            return
        for child, size in stream_blocks(rng, count, RA_BLOCK):
            self.add(*sample_ra_block(self.net, size, np.random.default_rng(child)))

    def _merged(self):
        # merge once; later snapshots only append the newer chunks
        if len(self._chunks) > 1:
            self._chunks = [tuple(map(np.concatenate, zip(*self._chunks)))]
        return self._chunks[0]

    @property
    def members(self) -> np.ndarray:
        """Members of every multi-member set so far, set after set."""
        return self._merged()[1]

    def snapshot(self) -> RACollection:
        sizes, members = self._merged()
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return RACollection(self.net.n, self._single, offsets, members)


def generate_collection(net: TCNetwork, l: int, rng_seed, workers: int = 1) -> RACollection:
    """l RA sets, drawn by CollectionBuilder.extend, so the collection
    depends on (rng_seed, l) alone.  workers is ignored."""
    builder = CollectionBuilder(net)
    builder.extend(sample_count(l, "l"), rng_seed)
    return builder.snapshot()


def estimate_F(coll: RACollection, seeds, net: TCNetwork) -> float:
    """Profit estimate of a seed set under a fixed RA collection."""
    l = len(coll)
    if l < 1:
        raise ValueError("empty RA collection")
    covered = covered_sets(coll, seeds)
    return net.price * net.n * covered.sum() / l - net.coupon * len(set(seeds))


def covered_sets(coll: RACollection, seeds) -> np.ndarray:
    """Boolean mask over the collection: which RA sets contain a seed."""
    covered = np.zeros(len(coll), dtype=bool)
    for v in set(seeds):
        covered[coll.sets_containing(v)] = True
    return covered

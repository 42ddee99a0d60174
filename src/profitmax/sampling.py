"""Reverse adopted-reachable (RA) sampling.

An RA set is grown backwards from a uniformly random root: the root's
triggering set is sampled, then the triggering sets of the newly reached
nodes, and so on.  Every node in the result could have caused the root to
adopt, so the fraction of RA sets touched by a seed set S estimates the
adopter expectation: E[x(S, R)] = pi(S) / n.  The profit estimator built
on a collection of l RA sets is

    F(R_l, S) = P * n * (sum_i x(S, R_i)) / l - C * |S|

rpm's sets are the reverse-reachable (RR) sets of whole realizations:
sample_rr_block draws them with diffusion._live_in_edges, the draw
sample_realization makes one run of, and collects, for every node w of
each, the nodes that reach w.  Over l realizations those l * n sets give
F the value P times the mean adopter count of S across the realizations,
less C * |S|.  On a net of at most 64 nodes they come from a one-word
ancestor closure (_rr_closure) that holds each distinct set of a pass
once, with its count; past that, from the level loop below.

Most RA sets on sparse networks hold their root alone.  The level loop
settles them at the first level of the traversal: a root that draws no
parent is only counted, per node, and leaves it; only the sets of two or
more members are grown on and returned whole.  Copies of one set meet
the same seed sets, so every stored set carries a weight, the number of
drawn sets it stands for, and a collection holds one kind of set:
CollectionBuilder.snapshot turns the per-node count into at most n sets
{v}, each weighted by its count.
"""

import numpy as np

from .diffusion import (SIM_STATE_BYTES, _expand, _live_in_edges, _lt_picks,
                        _run_starts, sample_count, stream_blocks)
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
        found = np.sort(parents(sets, nodes))
        found = found[_run_starts(found)]
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
    In-degrees and the nodes that can draw a parent at all come from
    net.pickers(), computed once per network.

    Returns (single, sizes, members) as _grow lays them out.
    """
    n = net.n
    indptr, indices = net.graph.in_indptr, net.graph.in_indices
    pickers = net.pickers()
    in_deg, expands = pickers.in_deg, pickers.mask
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


def _rr_grow(n: int, runs: int, live_indptr, sources):
    """The RR sets of runs drawn realizations by _grow from every (r, w):
    (single, sizes, members, weights), each stored set once, in (r, w)
    order, with weight one."""

    def parents(sets, nodes):
        at = sets // n * n + nodes  # (realization, node)
        start = live_indptr[at]
        pos, owner = _expand(start, live_indptr[at + 1] - start)
        return sets[owner] * n + sources[pos]

    single, sizes, members = _grow(np.tile(np.arange(n), runs), n, parents)
    return single, sizes, members, np.ones(sizes.size, dtype=np.int64)


def _rr_closure(n: int, runs: int, live_indptr, sources):
    """The RR sets of runs drawn realizations of a net of at most 64
    nodes, as one-word ancestor masks: bit u of anc[r * n + w] says that
    u reaches w in realization r.  Each round ORs into every node with
    live in-edges the masks of its live in-neighbors, until no mask
    changes, after at most the longest live path plus one rounds.

    Returns (single, sizes, members, weights): single counts the masks
    holding their root alone; the other masks are sorted, each distinct
    one is stored once, ascending by mask, with its number of copies as
    its weight, and only those are unpacked to members.
    """
    bit = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    anc = np.tile(bit, runs)
    targets = np.flatnonzero(live_indptr[1:] != live_indptr[:-1])
    if targets.size:
        starts = live_indptr[targets]
        # each live in-edge's source as a (realization, node) key
        src = np.repeat(targets - targets % n,
                        live_indptr[targets + 1] - starts) + sources
        while True:
            held = anc[targets]
            grown = np.bitwise_or.reduceat(anc[src], starts)
            grown |= held
            changed = np.flatnonzero(grown != held)
            if not changed.size:
                break
            anc[targets[changed]] = grown[changed]
    alone = (anc.reshape(runs, n) == bit).reshape(-1)
    single = np.bincount(np.flatnonzero(alone) % n, minlength=n)
    masks = np.sort(anc[~alone])
    first = np.flatnonzero(_run_starts(masks))
    distinct = masks[first]
    weights = np.diff(np.append(first, masks.size))
    # bit u of a little-endian word is bit u % 8 of its byte u // 8
    bits = np.unpackbits(distinct.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8),
                         axis=1, count=n, bitorder="little")
    sizes = bits.sum(axis=1, dtype=np.int32)
    members = np.flatnonzero(bits)
    members %= n
    return single, sizes, members.astype(np.int32), weights


def sample_rr_block(net: TCNetwork, count: int, gen: np.random.Generator):
    """Draw count realizations and the reverse-reachable set of every node
    in each: RR_r(w) holds the nodes that reach w over live edges in
    realization r, w included.

    A generator: it yields (single, sizes, members, weights) for
    consecutive passes of whole realizations.  single counts the sets
    {w} at w; sizes and members describe the larger sets, each stored
    once per pass, and weights counts how many of the pass's sets it
    stands for.  A caller can stop as soon as the sets outgrow its
    budget.  The passes draw the same stream as one pass would.

    On a net of at most 64 nodes the sets come from _rr_closure, and a
    pass holds as many realizations as fit SIM_STATE_BYTES at 8 bytes per
    in-edge (the draw's uniforms) and 64 per node (the mask and the rest
    of the closure's scratch, as measured), beyond the distinct sets it
    unpacks.  Past 64 nodes they come from _grow, in (r, w) order
    and with weight one, at 8 bytes per in-edge and per node of each of n
    sets (the member keys).
    """
    n = net.n
    closure = n <= 64
    rows = max(1, SIM_STATE_BYTES // (8 * (net.m + (8 * n if closure else n * n))))
    sets_of = _rr_closure if closure else _rr_grow
    for lo in range(0, count, rows):
        runs = min(rows, count - lo)
        yield sets_of(n, runs, *_live_in_edges(net, runs, gen))


def _stable_order(nodes, n: int) -> np.ndarray:
    """Stable argsort of node ids below n: passes over 16-bit digits,
    which numpy sorts by radix, so the cost is linear for any node count;
    the second pass runs only when ids need more than 16 bits."""
    order = np.argsort((nodes & 0xFFFF).astype(np.uint16), kind="stable")
    if n <= 1 << 16:
        return order
    return order[np.argsort((nodes[order] >> 16).astype(np.uint16), kind="stable")]


class RACollection:
    """A flat store of RA or RR sets with an inverted index.

    Member lists live in one int32 array sliced by offsets, which keeps
    millions of small sets cheap, and weights[i] (int64) counts the drawn
    sets stored set i stands for: one for every RA set of two or more
    members, for rpm's RR sets the copies of each distinct set of a pass,
    and for a set {v} every drawn set that held v alone.  len() counts
    every drawn set; sizes, members_of and the inverted index (node ->
    stored sets containing it, built on first use) describe the stored
    sets.  sets_containing numbers the drawn sets: stored set i as
    weights[i] consecutive sets, in order.
    """

    def __init__(self, n: int, offsets, members, weights):
        self.n = n
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.members = np.asarray(members, dtype=np.int32)
        self.weights = np.asarray(weights, dtype=np.int64)
        self._index = None

    def __len__(self):
        return int(self.weights.sum())

    def members_of(self, i: int) -> np.ndarray:
        return self.members[self.offsets[i]:self.offsets[i + 1]]

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def _entry_chunks(self):
        """(lo, hi, first, spans) per INDEX_CHUNK entries: entries lo..hi-1
        belong to stored sets first, first + 1, ..., spans[i] of them to
        set first + i."""
        for lo in range(0, self.members.size, INDEX_CHUNK):
            hi = min(lo + INDEX_CHUNK, self.members.size)
            first = np.searchsorted(self.offsets, lo, side="right") - 1
            last = np.searchsorted(self.offsets, hi, side="left") - 1
            yield lo, hi, first, np.diff(np.clip(self.offsets[first:last + 2], lo, hi))

    def _entry_counts(self) -> np.ndarray:
        """How many stored sets hold each node, as int64, counted in place
        per INDEX_CHUNK entries: np.bincount would first copy the whole
        int32 member array to int64."""
        counts = np.zeros(self.n, dtype=np.int64)
        for lo in range(0, self.members.size, INDEX_CHUNK):
            np.add.at(counts, self.members[lo:lo + INDEX_CHUNK], 1)
        return counts

    def index(self):
        """(idx_offsets, idx_sets): for node v, idx_sets[idx_offsets[v]:
        idx_offsets[v+1]] are the indices of stored sets containing v,
        ascending, as int32."""
        if self._index is None:
            idx_offsets = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self._entry_counts(), out=idx_offsets[1:])
            idx_sets = np.empty(self.members.size, dtype=np.int32)
            cursor = idx_offsets[:-1].copy()  # each node's next free slot
            # a counting sort: entries come in set order, so filling each
            # node's slots in entry order keeps its sets ascending
            for lo, hi, first, spans in self._entry_chunks():
                owner = np.repeat(np.arange(first, first + spans.size, dtype=np.int32),
                                  spans)
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
        """Every drawn set containing v, ascending."""
        idx_offsets, idx_sets = self.index()
        stored = idx_sets[idx_offsets[v]:idx_offsets[v + 1]]
        weights = self.weights[stored]
        # stored set i is numbered from the weight of the sets before it
        ends = np.cumsum(self.weights)[stored]
        return np.arange(int(weights.sum())) + np.repeat(ends - np.cumsum(weights),
                                                         weights)

    def coverage_counts(self) -> np.ndarray:
        """How many drawn sets contain each node, as int64: the weight of
        every stored set holding it, added chunk by chunk, so the scratch
        stays within a chunk.  A chunk of unit weights adds one per entry
        and spells out no weight per entry."""
        counts = np.zeros(self.n, dtype=np.int64)
        for lo, hi, first, spans in self._entry_chunks():
            weights = self.weights[first:first + spans.size]
            np.add.at(counts, self.members[lo:hi],
                      np.repeat(weights, spans) if weights.max() > 1 else 1)
        return counts


class CollectionBuilder:
    """Accumulates RA or RR sets kernel block by block, across growth rounds:
    the sets of two or more members as split blocks, and the one-member
    sets as a running count per node, which snapshot stores."""

    def __init__(self, net: TCNetwork):
        self.net = net
        self._single = np.zeros(net.n, dtype=np.int64)
        # (sizes, members, weights) of the multi-member sets per block
        self._chunks = [(np.empty(0, np.int32), np.empty(0, np.int32),
                         np.empty(0, np.int64))]
        self._count = 0

    def __len__(self):
        return self._count

    def add(self, single, sizes, members, weights):
        """Store one kernel block of sets: single counts the one-member
        sets per node, and the stored sets are laid out as _grow lays
        them out, weights[i] drawn sets standing for set i."""
        self._count += int(single.sum()) + int(weights.sum())
        self._single += single
        self._chunks.append((sizes, members, weights))

    def extend(self, count: int, rng):
        """Append count RA sets.  rng (a SeedSequence, a random.Random or a
        seed) spawns one child stream per RA_BLOCK sets."""
        if count <= 0:
            return
        for child, size in stream_blocks(rng, count, RA_BLOCK):
            single, sizes, members = sample_ra_block(self.net, size,
                                                     np.random.default_rng(child))
            self.add(single, sizes, members, np.ones(sizes.size, dtype=np.int64))

    def _merged(self, tail=None):
        """The chunks, then tail's (sizes, members, weights) if it holds any
        set, in one concatenation.  The chunks' part of it is kept, as
        views, for later calls to append to."""
        parts = self._chunks + ([tail] if tail is not None and tail[0].size else [])
        if len(parts) == 1:
            return parts[0]
        merged = tuple(map(np.concatenate, zip(*parts)))
        sets, entries = (sum(chunk[i].size for chunk in self._chunks) for i in (0, 1))
        self._chunks = [(merged[0][:sets], merged[1][:entries], merged[2][:sets])]
        return merged

    @property
    def members(self) -> np.ndarray:
        """Members of every multi-member set so far, set after set."""
        return self._merged()[1]

    def snapshot(self) -> RACollection:
        """The sets so far: the multi-member ones in the order drawn, then
        one set {v} per node v in order, weighted by its one-member sets."""
        nodes = np.flatnonzero(self._single)
        sizes, members, weights = self._merged(
            (np.ones(nodes.size, np.int32), nodes.astype(np.int32), self._single[nodes]))
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return RACollection(self.net.n, offsets, members, weights)


def generate_collection(net: TCNetwork, l: int, rng_seed) -> RACollection:
    """l RA sets, drawn by CollectionBuilder.extend, so the collection
    depends on (rng_seed, l) alone."""
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

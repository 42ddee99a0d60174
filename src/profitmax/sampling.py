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

Most RA and RR sets on sparse networks hold their root alone.  Those
are only counted, per node, and the level loop (_grow) grows just the
others.  RA roots are not drawn one by one to find them:
sample_ra_block counts the roots per node and splits off, per node, the
ones that draw no parent by one binomial draw, a root at v drawing none
with chance q_v = (1 - p_v)^indeg(v) under IC.  That applies SUBSIM's
geometric skips between live edges (Guo, Wang, Wei & Chen, SIGMOD 2020)
to the roots: a grown root's first live in-edge comes from the geometric
truncated to the in-degree.  An RR set of w in realization r holds w
alone when w has no live in-edge in r.  Copies of one set meet
the same seed sets, so every stored set carries a weight, the number of
drawn sets it stands for, and a collection holds one kind of set:
CollectionBuilder.snapshot turns the per-node count into at most n sets
{v}, each weighted by its count.
"""

import numpy as np

from .diffusion import (SIM_STATE_BYTES, _expand, _live_in_edges, _lt_picks,
                        _run_starts, _seed_sequence, sample_count)
from .network import TCNetwork

# Grown RA roots (those that draw a parent) per block: the first block
# draws from the stream that split the roots, every later one from its own
# SeedSequence child, so a collection depends on its seed alone.  A grown
# root carries about 2.2 members through the traversal; a block of this
# many peaks at about 0.94 MiB on rat-large's shape.
RA_BLOCK = 1 << 13
# Entries per pass of the inverted-index build and of the member count,
# which bounds their scratch memory: about 50 bytes per entry.
INDEX_CHUNK = 1 << 13


def _ic_parents(gen, sets, start, deg, p, indices, n, pos=None):
    """Keys of the live in-edges' sources: each in-edge of a frontier node
    is live independently with that node's probability, p, a scalar when
    every node shares it.  Geometric skips jump from one live edge to the
    next, so the draws follow the hits rather than the in-degree.  pos,
    if given, holds each node's first live in-edge, drawn by the caller;
    the later skips are memoryless and drawn here.  sets, start, deg, pos
    and a per-node p are scratch: the filter moves the entries it keeps
    to their fronts in place, so it never holds a second copy of them."""
    per_node = np.ndim(p) > 0
    found = []
    if pos is None:
        pos = gen.geometric(p, size=sets.size)  # 1-based position of the next live in-edge
    while True:
        hit = np.flatnonzero(pos <= deg)  # index arrays: cheaper than masks
        if hit.size < sets.size:
            sets, start, deg, pos = _keep(hit, sets, start, deg, pos)
            if per_node:
                p, = _keep(hit, p)
        if not sets.size:
            break
        found.append(sets * n + indices[start + pos - 1])
        pos += gen.geometric(p, size=sets.size)
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def _keep(hit, *arrays):
    """Views of each array's entries at the ascending positions hit,
    moved in place to its front."""
    for a in arrays:
        a[:hit.size] = a[hit]
    return [a[:hit.size] for a in arrays]


def _first_live(u, deg, p, reach):
    """The 1-based position of each node's first live in-edge, given that
    it has one: the geometric of p truncated to [1, deg], by inverse CDF
    of the uniforms u.  reach = 1 - (1 - p)^deg is the chance of a live
    in-edge at all; p = 1 puts every position at 1."""
    with np.errstate(divide="ignore"):
        skip = np.log1p(-u * reach) / np.log1p(-p)
    pos = skip.astype(np.int64)  # skip >= 0, so truncation is floor
    pos += 1
    np.minimum(pos, deg, out=pos)  # rounding may pass deg
    return pos


def _lt_parents(gen, sets, start, deg, indices, n):
    """Keys of the one in-neighbor each frontier node picks (_lt_picks)."""
    return sets * n + indices[_lt_picks(gen.random(sets.size), start, deg)]


def _in_sorted(sorted_keys, keys) -> np.ndarray:
    """Mask over keys: which ones occur in the ascending array sorted_keys."""
    if not sorted_keys.size:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def _grow(roots, first, n: int, parents):
    """Grow one set from each root together by level-synchronous reverse BFS.

    A member of set i that is node v carries the key i * n + v.  first
    holds the keys of the roots' parents at the first level, at least one
    per root: every root handed in draws a parent, so every set holds two
    or more members.  A Graph keeps no self-loops or repeated edges, so
    those parents are distinct and new to their sets.  parents(sets,
    nodes) returns the keys of the parents of the newest members (any
    order, repeats allowed), and each later step keeps the ones new to
    their set.  first, the arrays handed to parents and the arrays it
    returns are scratch: sorted or filtered in place, never copied.

    Returns (sizes, members), int32: members holds the first set's nodes,
    then the second one's, each set's ascending.
    """
    count = roots.size
    frontier = first
    frontier.sort()
    levels = [np.arange(count) * n + roots, frontier]
    # member keys of the sets still growing, ascending; sets that have
    # stopped never meet a candidate again, so they are left out
    growing = np.concatenate(levels)
    growing.sort()
    while frontier.size:
        found = parents(*np.divmod(frontier, n))
        found.sort()
        found = found[_run_starts(found)]
        frontier = found[~_in_sorted(growing, found)]
        if not frontier.size:
            break
        levels.append(frontier)
        alive = np.zeros(count, dtype=bool)
        alive[frontier // n] = True
        growing = np.sort(np.concatenate((growing[alive[growing // n]], frontier)),
                          kind="stable")
    # one int64 copy of the member keys: the levels go once joined, the
    # keys are sorted in place (they are distinct), and each set's size
    # comes from where its keys begin
    del growing
    keys = np.concatenate(levels)
    del levels
    keys.sort()
    sizes = np.diff(np.searchsorted(keys, np.arange(count + 1) * n))
    np.remainder(keys, n, out=keys)
    return sizes.astype(np.int32), keys.astype(np.int32)


def _grow_ra(net: TCNetwork, roots, reach, gen: np.random.Generator):
    """The RA sets of roots that each draw a parent, by _grow: (sizes,
    members).  reach[v] is the chance that a root at v draws one under
    IC; a root's first live in-edge comes from _first_live, and later
    triggering sets are drawn in full, once per set, for the nodes the
    traversal reaches: the rest of the realization is never materialized.
    """
    n = net.n
    indptr, indices = net.graph.in_indptr, net.graph.in_indices
    pickers = net.pickers()
    in_deg, expands = pickers.in_deg, pickers.mask
    lt = net.params.model == "lt"
    # under ic-cp every node shares one probability; a scalar draws the
    # same stream as the per-node array
    prob = net.params.ic_probability if net.params.model == "ic-cp" else net.prob_in

    def draw(sets, nodes, first=False):
        start, deg = indptr[nodes], in_deg[nodes]
        if lt:
            return _lt_parents(gen, sets, start, deg, indices, n)
        p = prob if np.ndim(prob) == 0 else prob[nodes]
        pos = _first_live(gen.random(nodes.size), deg, p, reach[nodes]) if first else None
        return _ic_parents(gen, sets, start, deg, p, indices, n, pos)

    def parents(sets, nodes):
        return draw(*_keep(np.flatnonzero(expands[nodes]), sets, nodes))

    return _grow(roots, draw(np.arange(roots.size), roots, first=True), n, parents)


def sample_ra_block(net: TCNetwork, count: int, rng):
    """Draw count RA sets from uniform roots, block by block.

    A generator: it yields (single, sizes, members) per block.  single
    (int64) counts, per node, the sets holding their root alone; sizes
    and members (int32) describe the other sets as _grow lays them out,
    grouped by root, in node order.  Only the first block's single holds
    any count.

    The roots are split once.  From the first child of rng (a
    SeedSequence, a random.Random or a seed) they are counted per node,
    by one multinomial when count >= n and by count uniform draws below
    that.  Of the c_v roots at a node v that can draw a parent (one of
    net.pickers()), Binomial(c_v, q_v) draw none: q_v = (1 - p_v)^indeg(v)
    under IC, and 0 under LT, where a picker always picks.  Every other
    root draws none.  Only the roots that draw a parent are grown
    (_grow_ra), RA_BLOCK at a time: the first block from the same
    generator, each later block from its own child.  Roots are i.i.d.
    uniform and each roots a set independently, so this is the law of
    count independent RA sets, and the sets depend on (rng, count) alone.
    """
    n = net.n
    count = sample_count(count, "sample count")
    ss = _seed_sequence(rng)
    gen = np.random.default_rng(ss.spawn(1)[0])
    if count >= n:
        single = gen.multinomial(count, np.full(n, 1.0 / n))
    else:
        single = np.bincount(gen.integers(0, n, size=count), minlength=n)
    pickers = net.pickers()
    nodes = pickers.nodes
    reach = np.zeros(n)
    if net.params.model == "lt":
        grown = single[nodes]
    else:
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-net.prob_in[nodes])
        reach[nodes] = -np.expm1(pickers.deg * log_miss)
        grown = gen.binomial(single[nodes], reach[nodes])
    single[nodes] -= grown
    # picker i's grown roots are numbers ends[i] .. ends[i + 1] - 1
    ends = np.concatenate(([0], np.cumsum(grown)))
    total = int(ends[-1])
    for lo in range(0, max(total, 1), RA_BLOCK):
        if lo:
            gen = np.random.default_rng(ss.spawn(1)[0])
            single = np.zeros(n, dtype=np.int64)
        hi = min(lo + RA_BLOCK, total)
        a = np.searchsorted(ends, lo, side="right") - 1
        b = np.searchsorted(ends, hi, side="left")
        roots = np.repeat(nodes[a:b], np.diff(np.clip(ends[a:b + 1], lo, hi)))
        yield (single, *_grow_ra(net, roots, reach, gen))


def _rr_grow(n: int, runs: int, live_indptr, sources):
    """The RR sets of runs drawn realizations from every (r, w):
    (single, sizes, members, weights), each stored set once, in (r, w)
    order, with weight one.  A (r, w) with no live in-edge holds w alone
    and is only counted; _grow grows the others."""
    grown = np.flatnonzero(live_indptr[1:] != live_indptr[:-1])  # r * n + w
    roots = grown % n
    base = grown - roots  # r * n

    def parents(sets, nodes):
        at = base[sets] + nodes  # (realization, node)
        start = live_indptr[at]
        pos, owner = _expand(start, live_indptr[at + 1] - start)
        return sets[owner] * n + sources[pos]

    sizes, members = _grow(roots, parents(np.arange(roots.size), roots), n, parents)
    single = runs - np.bincount(roots, minlength=n)
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
        # the sizes, the members and the weights of the multi-member sets,
        # each a list of one array per block
        self._fields = ([np.empty(0, np.int32)], [np.empty(0, np.int32)],
                        [np.empty(0, np.int64)])
        self._count = 0

    def __len__(self):
        return self._count

    def add(self, single, sizes, members, weights):
        """Store one kernel block of sets: single counts the one-member
        sets per node, and the stored sets are laid out as _grow lays
        them out, weights[i] drawn sets standing for set i."""
        self._count += int(single.sum()) + int(weights.sum())
        self._single += single
        for field, part in zip(self._fields, (sizes, members, weights)):
            field.append(part)

    def extend(self, count: int, rng):
        """Append count RA sets, drawn by sample_ra_block: rng (a
        SeedSequence, a random.Random or a seed) spawns one child stream
        for the split of the roots and the first RA_BLOCK grown roots, and
        one per RA_BLOCK grown roots after that."""
        if count <= 0:
            return
        for single, sizes, members in sample_ra_block(self.net, count, rng):
            self.add(single, sizes, members, np.ones(sizes.size, dtype=np.int64))

    def _merged(self, tail=None):
        """(sizes, members, weights) of the blocks, then of tail if it
        holds any set, each field in one concatenation.  The blocks' part
        of a field is kept, as a view, for later calls to append to, and
        its blocks go as soon as it is merged, so the merge holds one
        field twice at a time, not all three."""
        merged = []
        for i, field in enumerate(self._fields):
            parts = field + [tail[i]] if tail is not None and tail[0].size else field
            if len(parts) == 1:
                merged.append(parts[0])
                continue
            whole = np.concatenate(parts)
            field[:] = [whole[:sum(part.size for part in field)]]
            merged.append(whole)
        return tuple(merged)

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
        offsets[1:] = sizes
        np.cumsum(offsets, out=offsets)  # in place: from int32 it would buffer a copy
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

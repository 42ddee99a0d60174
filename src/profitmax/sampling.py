"""Reverse adopted-reachable (RA) sampling.

An RA set is grown backwards from a uniformly random root: the root's
triggering set is sampled, then the triggering sets of the newly reached
nodes, and so on.  Every node in the result could have caused the root to
adopt, so the fraction of RA sets touched by a seed set S estimates the
adopter expectation: E[x(S, R)] = pi(S) / n.  The profit estimator built
on a collection of l RA sets is

    F(R_l, S) = P * n * (sum_i x(S, R_i)) / l - C * |S|
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .diffusion import _CacheReader, _seed_sequence, _sorted_runs, stream_blocks
from .network import NetworkError, TCNetwork

# RA sets per random stream.  Every block of this many sets draws from its
# own SeedSequence child, so a collection depends on its seed alone.
RA_BLOCK = 1 << 15
# Entries per pass of the inverted-index build, which bounds its scratch
# memory.
INDEX_CHUNK = 1 << 15


@dataclass(frozen=True)
class RASet:
    root: int
    members: frozenset

    def __post_init__(self):
        if self.root not in self.members:
            raise ValueError("RA set must contain its own root")


def _ic_parents(gen, sets, start, deg, p, indices, n):
    """Keys of the live in-edges' sources: each in-edge of a frontier node
    is live independently with that node's probability.  Geometric skips
    jump from one live edge to the next, so the draws follow the hits
    rather than the in-degree."""
    found = []
    pos = gen.geometric(p)  # 1-based position of the next live in-edge
    while True:
        hit = pos <= deg
        sets, start, deg, p, pos = sets[hit], start[hit], deg[hit], p[hit], pos[hit]
        if not sets.size:
            break
        found.append(sets * n + indices[start + pos - 1])
        pos += gen.geometric(p)
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def _lt_parents(gen, sets, start, deg, indices, n):
    """Keys of the one in-neighbor each frontier node picks: weights are
    1/in-degree and sum to exactly 1, so the pick is uniform."""
    pick = (gen.random(sets.size) * deg).astype(np.int64)
    np.minimum(pick, deg - 1, out=pick)
    return sets * n + indices[start + pick]


def _in_sorted(sorted_keys, keys) -> np.ndarray:
    """Mask over keys: which ones occur in the ascending array sorted_keys."""
    if not sorted_keys.size:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def sample_ra_block(net: TCNetwork, count: int, gen: np.random.Generator):
    """Grow count RA sets together by level-synchronous reverse BFS.

    A member of set i that is node v carries the key i * n + v.  Each step
    samples the triggering sets of every set's newest members at once and
    keeps the parents whose keys are new to their set.  Triggering sets are
    drawn only for nodes the traversal reaches, each once per set; the
    rest of the realization is never materialized.

    Returns (roots, sizes, members): members holds set 0's nodes, then set
    1's, and so on, each set's nodes ascending.
    """
    n = net.n
    indptr, indices, prob_in, eligible = net.in_csr()
    lt = net.params.model == "lt"
    roots = gen.integers(0, n, size=count)
    frontier = np.arange(count, dtype=np.int64) * n + roots
    levels = [frontier]
    # member keys of the sets still growing, ascending; sets that have
    # stopped never meet a candidate again, so they are left out
    growing = frontier
    while frontier.size:
        sets, nodes = np.divmod(frontier, n)
        start = indptr[nodes]
        deg = indptr[nodes + 1] - start
        live = eligible[nodes] & (deg > 0)
        sets, nodes, start, deg = sets[live], nodes[live], start[live], deg[live]
        if lt:
            parents = _lt_parents(gen, sets, start, deg, indices, n)
        else:
            parents = _ic_parents(gen, sets, start, deg, prob_in[nodes], indices, n)
        parents = _sorted_runs(parents)[0]
        frontier = parents[~_in_sorted(growing, parents)]
        if not frontier.size:
            break
        levels.append(frontier)
        alive = np.zeros(count, dtype=bool)
        alive[frontier // n] = True
        growing = np.sort(np.concatenate((growing[alive[growing // n]], frontier)),
                          kind="stable")
    keys = np.sort(np.concatenate(levels), kind="stable")
    sets = keys // n
    sizes = np.bincount(sets, minlength=count)
    return (roots.astype(np.int32), sizes.astype(np.int64),
            (keys - sets * n).astype(np.int32))


def generate_ra_set(net: TCNetwork, rng) -> RASet:
    """Grow one RA set: a block of one through sample_ra_block.

    rng is a numpy Generator, a random.Random (advanced by the call) or
    a seed.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(_seed_sequence(rng))
    roots, _, members = sample_ra_block(net, 1, rng)
    return RASet(int(roots[0]), frozenset(members.tolist()))


def coverage_indicator(seeds, ra: RASet) -> int:
    """1 if the seed set intersects the RA set, else 0."""
    members = ra.members
    for s in seeds:
        if s in members:
            return 1
    return 0


def _stable_order(nodes) -> np.ndarray:
    """Stable argsort of node ids: two passes over 16-bit digits, which
    numpy sorts by radix, so the cost is linear for any node count."""
    order = np.argsort((nodes & 0xFFFF).astype(np.uint16), kind="stable")
    return order[np.argsort((nodes[order] >> 16).astype(np.uint16), kind="stable")]


class RACollection:
    """A flat, append-only store of RA sets with an inverted index.

    Member lists live in one int32 array sliced by offsets, which keeps
    millions of small sets cheap.  The inverted index (node -> indices of
    sets containing it) is built on first use and reused afterwards.
    """

    def __init__(self, n: int, roots, offsets, members):
        self.n = n
        self.roots = np.asarray(roots, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.members = np.asarray(members, dtype=np.int32)
        self._index = None

    def __len__(self):
        return len(self.roots)

    def members_of(self, i: int) -> np.ndarray:
        return self.members[self.offsets[i]:self.offsets[i + 1]]

    def sets(self):
        for i in range(len(self)):
            yield RASet(int(self.roots[i]), frozenset(int(v) for v in self.members_of(i)))

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def index(self):
        """(idx_offsets, idx_sets): for node v, idx_sets[idx_offsets[v]:
        idx_offsets[v+1]] are the indices of RA sets containing v, ascending,
        as int32."""
        if self._index is None:
            counts = np.bincount(self.members, minlength=self.n)
            idx_offsets = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=idx_offsets[1:])
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
                order = _stable_order(self.members[lo:hi])
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
        idx_offsets, idx_sets = self.index()
        return idx_sets[idx_offsets[v]:idx_offsets[v + 1]]

    def coverage_counts(self) -> np.ndarray:
        """How many RA sets contain each node."""
        return np.bincount(self.members, minlength=self.n)

    @classmethod
    def from_sets(cls, n: int, sets):
        roots, offsets, members = [], [0], []
        for ra in sets:
            roots.append(ra.root)
            members.extend(sorted(ra.members))
            offsets.append(len(members))
        return cls(n, roots, offsets, members)


class CollectionBuilder:
    """Accumulates RA sets across growth rounds as kernel output chunks."""

    def __init__(self, net: TCNetwork):
        self.net = net
        self._chunks = []  # (roots, sizes, members) per block
        self._count = 0

    def __len__(self):
        return self._count

    def extend(self, count: int, rng):
        """Append count RA sets.  rng (a SeedSequence, a random.Random or a
        seed) spawns one child stream per RA_BLOCK sets."""
        if count <= 0:
            return
        for child, size in stream_blocks(rng, count, RA_BLOCK):
            self._chunks.append(
                sample_ra_block(self.net, size, np.random.default_rng(child)))
        self._count += count

    def _merged(self):
        # merge once; later snapshots only append the newer chunks
        if len(self._chunks) != 1:
            if not self._chunks:
                return (np.empty(0, np.int32), np.empty(0, np.int64),
                        np.empty(0, np.int32))
            self._chunks = [tuple(map(np.concatenate, zip(*self._chunks)))]
        return self._chunks[0]

    @property
    def members(self) -> np.ndarray:
        """Members of every set so far, set after set."""
        return self._merged()[2]

    def snapshot(self) -> RACollection:
        roots, sizes, members = self._merged()
        offsets = np.zeros(len(roots) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return RACollection(self.net.n, roots, offsets, members)


def generate_collection(net: TCNetwork, l: int, rng_seed, workers: int = 1) -> RACollection:
    """Generate l RA sets.

    The stream is split into blocks of RA_BLOCK sets with one SeedSequence
    child each, so the collection is the same for every workers value;
    workers is accepted for call compatibility.
    """
    if l < 1:
        raise ValueError("collection needs at least one RA set")
    builder = CollectionBuilder(net)
    builder.extend(l, rng_seed)
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


_RA_MAGIC = b"RACL"
_RA_VERSION = 2


def _model_digest(net: TCNetwork) -> bytes:
    csr = net.in_csr()
    h = hashlib.sha256(repr((net.params.model, net.params.ic_probability, net.price,
                             net.coupon, net.n, net.m, net.intrinsic)).encode())
    h.update(csr.indptr.astype("<i8").tobytes())
    h.update(csr.indices.astype("<i4").tobytes())
    return h.digest()[:8]


def save_collection(path, coll: RACollection, net: TCNetwork):
    """Versioned binary cache: header (magic, version, model digest, n, l),
    then the roots, the set sizes and all members as uint32 arrays."""
    with open(path, "wb") as fh:
        fh.write(_RA_MAGIC)
        fh.write(struct.pack("<B", _RA_VERSION))
        fh.write(_model_digest(net))
        fh.write(struct.pack("<IQ", coll.n, len(coll)))
        for arr in (coll.roots, coll.sizes(), coll.members):
            fh.write(arr.astype("<u4").tobytes())


def load_collection(path, net: TCNetwork) -> RACollection:
    reader = _CacheReader(path, "RA collection")
    if reader.data[:4] != _RA_MAGIC:
        raise NetworkError("not an RA collection cache file")
    reader.take(4)
    (version,) = reader.unpack("<B")
    if version != _RA_VERSION:
        raise NetworkError(f"unsupported RA cache version {version}")
    if reader.take(8) != _model_digest(net):
        raise NetworkError(
            "RA cache was generated for a different network or model")
    n, l = reader.unpack("<IQ")
    if n != net.n:
        raise NetworkError("RA cache node count mismatch")
    roots = reader.u32_array(l)
    sizes = reader.u32_array(l).astype(np.int64)
    members = reader.u32_array(int(sizes.sum()))
    if (l and roots.max() >= n) or (members.size and members.max() >= n):
        raise NetworkError("RA cache holds node ids outside the network")
    offsets = np.zeros(l + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return RACollection(n, roots, offsets, members)

import hashlib
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from profitmax import (RACollection, estimate_F, exact_pi, exact_profit,
                       generate_collection, ra_t)
from profitmax import sampling
from profitmax.diffusion import stream_blocks
from profitmax.sampling import (INDEX_CHUNK, RA_BLOCK, CollectionBuilder,
                                _live_in_edges, covered_sets, sample_ra_block,
                                sample_rr_block)

from conftest import (collection_of, make_net, ra_block, random_edge_text,
                      random_small_net, rat_large_net, realizations_of, rr_passes)


def ra_sets(net, count, seed):
    """count RA sets from sample_ra_block as (root, members frozenset).

    A one-member set's root is its member.  The kernel keeps no root for
    the other sets; on the acyclic nets these tests use, it is the one
    member with no out-edge to another member, since every other member
    reaches the root through members."""
    single, sizes, members = sample_ra_block(net, count, np.random.default_rng(seed))
    g = net.graph
    out = [set(g.out_indices[g.out_indptr[u]:g.out_indptr[u + 1]].tolist())
           for u in range(net.n)]
    sets = [(v, frozenset({v})) for v in range(net.n) for _ in range(single[v])]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        group = frozenset(members[lo:hi].tolist())
        (root,) = [u for u in group if not out[u] & group]
        sets.append((root, group))
    assert len(sets) == count
    return sets


class TestRASet:
    def test_fork_outcomes(self, lt_fork_net):
        # under the threshold model the tip picks exactly one parent
        a = lt_fork_net.graph.id_of(1)
        b = lt_fork_net.graph.id_of(2)
        c = lt_fork_net.graph.id_of(3)
        for root, members in ra_sets(lt_fork_net, 100, 0):
            assert root in members
            if root in (a, b):
                assert members == frozenset({root})
            else:
                assert members in (frozenset({c, a}), frozenset({c, b}))

    def test_root_uniform(self, lt_fork_net):
        trials = 6000
        roots = [root for root, _ in ra_sets(lt_fork_net, trials, 1)]
        counts = np.bincount(roots, minlength=3)
        expected = trials / 3
        chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(3))
        assert chi2 < stats.chi2.ppf(0.999, df=2)

    def test_lazy_traversal_matches_forward_law(self):
        # reverse sampling must induce the same (root, set) distribution
        # as materializing a full realization and reverse-reaching the root
        net = make_net("1 2\n2 3\n", ic_p=0.5)
        trials = 9000
        counts = Counter((root, tuple(sorted(members)))
                         for root, members in ra_sets(net, trials, 2))
        # exact law: root uniform; reverse chain halts at each edge w.p. 1/2
        expected = {
            (0, (0,)): 1 / 3,
            (1, (1,)): 1 / 6, (1, (0, 1)): 1 / 6,
            (2, (2,)): 1 / 6, (2, (1, 2)): 1 / 12, (2, (0, 1, 2)): 1 / 12,
        }
        chi2 = sum((counts.get(k, 0) - p * trials) ** 2 / (p * trials)
                   for k, p in expected.items())
        assert set(counts) == set(expected)
        assert chi2 < stats.chi2.ppf(0.999, df=len(expected) - 1)

    def test_ineligible_root_never_expands(self):
        net = make_net("1 2\n2 3\n", ic_p=1.0, intrinsics=[0.9, 0.3, 0.9])
        for root, members in ra_sets(net, 50, 3):
            if root == 1:  # cannot pay full price: empty triggering set
                assert members == frozenset({1})


class TestCollection:
    def test_generate_deterministic(self, lt_fork_net):
        a = generate_collection(lt_fork_net, 200, 5)
        b = generate_collection(lt_fork_net, 200, 5)
        assert len(a) == len(b) == 200
        assert np.array_equal(a.single, b.single)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.offsets, b.offsets)

    def test_collection_independent_of_worker_count(self, lt_fork_net):
        # the stream is split into fixed RA_BLOCK-set blocks, not per worker
        l = 2 * RA_BLOCK + 123
        base = generate_collection(lt_fork_net, l, 5, workers=1)
        assert len(base) == l
        for workers in (2, 3):
            other = generate_collection(lt_fork_net, l, 5, workers=workers)
            assert np.array_equal(base.single, other.single)
            assert np.array_equal(base.offsets, other.offsets)
            assert np.array_equal(base.members, other.members)

    def test_ra_t_independent_of_worker_count(self):
        net = make_net("1 2\n2 3\n3 4\n1 4\n4 5\n2 5\n", ic_p=0.4)
        a = ra_t(net, eps=0.4, seed=8, workers=1)
        b = ra_t(net, eps=0.4, seed=8, workers=2)
        assert a.members == b.members
        assert a.internal_value == b.internal_value

    def test_from_sets_round_trip(self):
        coll = collection_of(2, [[0], [0, 1]])
        assert len(coll) == 2
        assert list(coll.single) == [1, 0]
        assert list(coll.members_of(0)) == [0, 1]
        assert list(coll.sizes()) == [2]

    def test_inverted_index_matches_bruteforce(self):
        rng = random.Random(7)
        net = random_small_net(rng, n_max=6)
        coll = generate_collection(net, 300, 11)
        stored = len(coll.sizes())
        assert stored < len(coll)
        for v in range(net.n):
            brute = [j for j in range(stored)
                     if v in set(coll.members_of(j).tolist())]
            # then v's one-member sets, numbered node after node
            first = stored + int(coll.single[:v].sum())
            brute += range(first, first + int(coll.single[v]))
            assert list(coll.sets_containing(v)) == brute

    def test_inverted_index_beyond_16_bit_ids(self):
        # node ids above 2^16 exercise the high digit of the radix sort,
        # and the entries span several INDEX_CHUNKs; the reference is a
        # stable comparison sort of the same entries
        rng = np.random.default_rng(17)
        n, l = 200_003, 30_000
        sets = [np.unique(rng.integers(0, n, rng.integers(1, 6))) for _ in range(l)]
        sets[0] = np.array([0, 65_535, 65_536, n - 1])
        offsets = np.concatenate(([0], np.cumsum([s.size for s in sets])))
        coll = RACollection(n, np.zeros(n), offsets, np.concatenate(sets))
        assert coll.members.size > 2 * INDEX_CHUNK
        idx_offsets, idx_sets = coll.index()
        assert idx_sets.dtype == np.int32
        owner = np.repeat(np.arange(l), coll.sizes())
        want = owner[np.argsort(coll.members, kind="mergesort")]
        assert np.array_equal(idx_sets, want)
        assert np.array_equal(np.diff(idx_offsets),
                              np.bincount(coll.members, minlength=n))
        assert list(coll.sets_containing(n - 1)) == [0] + [
            i for i in range(1, l) if n - 1 in sets[i]]

    def test_coverage_counts(self):
        coll = collection_of(2, [[0], [0, 1], [1]])
        assert list(coll.coverage_counts()) == [2, 2]

    @pytest.mark.parametrize("n", [1000, 70_000])  # one and two radix passes
    def test_index_scratch_is_bounded(self, n):
        # 1.5M entries: counting them with one np.bincount would first copy
        # the int32 members to int64, 12 MB of scratch for a 6 MB index
        rng = np.random.default_rng(5)
        offsets = np.concatenate(([0], np.cumsum(rng.integers(1, 6, 500_000))))
        members = rng.integers(0, n, offsets[-1]).astype(np.int32)
        coll = RACollection(n, np.zeros(n), offsets, members)
        tracemalloc.start()
        try:
            size = coll.coverage_counts().nbytes
            counts_scratch = tracemalloc.get_traced_memory()[1] - size
            tracemalloc.reset_peak()
            idx_offsets, idx_sets = coll.index()
            index_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts_scratch <= 16 * INDEX_CHUNK
        assert np.array_equal(np.diff(idx_offsets), np.bincount(members, minlength=n))
        # the result, a cursor and a count per node, and ~50 B per chunk entry
        result = idx_offsets.nbytes + idx_sets.nbytes
        assert index_peak <= result + 2 * idx_offsets.nbytes + 64 * INDEX_CHUNK

    def test_builder_matches_generate_len(self, lt_fork_net):
        builder = CollectionBuilder(lt_fork_net)
        rng = random.Random(1)
        builder.extend(50, rng)
        builder.extend(30, rng)
        snap = builder.snapshot()
        assert len(snap) == 80
        assert len(builder) == 80
        assert np.array_equal(builder.members, snap.members)
        assert len(snap.members) == snap.sizes().sum()


class TestCollectionMemory:
    def test_generate_peak_is_result_plus_one_block(self):
        # on a rat-large-shaped net, 93% of the 600,000 RA sets hold their
        # root alone: kept as counts, the collection never holds them whole
        net = rat_large_net()
        l, seed = 600_000, 7
        tracemalloc.start()
        try:
            # the kernel's own peak, its output included, on each block
            # generate_collection draws
            scratch = 0
            for child, size in stream_blocks(seed, l, RA_BLOCK):
                tracemalloc.reset_peak()
                sample_ra_block(net, size, np.random.default_rng(child))
                scratch = max(scratch, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            coll = generate_collection(net, l, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = coll.single.nbytes + coll.offsets.nbytes + coll.members.nbytes
        assert len(coll) == l
        assert coll.single.sum() > 0.9 * l
        assert peak <= result + scratch
        assert peak < 6 << 20

    def test_kernel_block_peak(self):
        # one full block on a rat-large-shaped net, its output included:
        # the 93% of sets that draw no parent at the first level are only
        # counted, and just the rest are carried through the traversal
        # (1.19 MiB; 2.14 MiB while every set was grown to the end)
        net = rat_large_net()
        tracemalloc.start()
        try:
            sample_ra_block(net, RA_BLOCK, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (1 << 20)


# A multi-level chain, a cycle and two paths to one ancestor (the diamond:
# 4's parents 2 and 3 reach 1 on the same level, so 1 must be kept once).
KERNEL_NETS = {"chain": "1 2\n2 3\n3 4\n",
               "cycle": "1 2\n2 3\n3 1\n",
               "diamond": "1 2\n1 3\n2 4\n3 4\n"}


def assert_well_formed(n, count, single, sizes, members):
    """count sets in the kernels' layout: single counts the one-member
    sets per node, and every other set holds two or more nodes,
    ascending, so none twice."""
    assert single.shape == (n,) and single.sum() + sizes.size == count
    assert np.all(sizes >= 2) and sizes.sum() == members.size
    keys = np.repeat(np.arange(sizes.size), sizes) * n + members
    assert np.all(np.diff(keys) > 0)


class TestKernel:
    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    @pytest.mark.parametrize("shape", sorted(KERNEL_NETS))
    def test_coverage_matches_exact_pi(self, model, shape):
        # n * (fraction of sets holding v) is unbiased for pi({v})
        net = make_net(KERNEL_NETS[shape], model=model, ic_p=0.5)
        l = 60_000
        single, sizes, members = sample_ra_block(
            net, l, np.random.default_rng(20260822))
        assert_well_formed(net.n, l, single, sizes, members)
        covering = single + np.bincount(members, minlength=net.n)
        for v in range(net.n):
            pi = exact_pi(net, [v])
            p = pi / net.n
            se = net.n * math.sqrt(p * (1.0 - p) / l)
            got = net.n * covering[v] / l
            assert abs(got - pi) <= 3.0 * se + 1e-12, (v, got, pi, se)

    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    def test_collection_is_well_formed(self, model):
        # node 5 cannot pay full price, so it never expands
        net = make_net(KERNEL_NETS["diamond"] + "4 1\n4 5\n5 2\n", model=model,
                       ic_p=0.7, intrinsics=[0.9, 0.9, 0.9, 0.9, 0.3])
        l = RA_BLOCK + 500
        coll = generate_collection(net, l, 4)
        # the collection is the kernel's blocks, one-member sets counted
        single, sizes, members = np.zeros(net.n), [], []
        for child, size in stream_blocks(4, l, RA_BLOCK):
            block = sample_ra_block(net, size, np.random.default_rng(child))
            assert_well_formed(net.n, size, *block)
            single += block[0]
            sizes.append(block[1])
            members.append(block[2])
        assert np.array_equal(coll.single, single)
        assert np.array_equal(coll.sizes(), np.concatenate(sizes))
        assert np.array_equal(coll.members, np.concatenate(members))
        for i in range(0, len(coll.sizes()), 37):
            assert np.all(np.diff(coll.members_of(i)) > 0)  # ascending


def rr_sets(net, count, seed):
    """sample_rr_block's passes joined: (single, sizes, members)."""
    parts = rr_passes(net, count, seed)
    return (sum(p[0] for p in parts), np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]))


class TestRRKernel:
    # one eligible-below-price node (5) and a cycle through the diamond
    EDGES = KERNEL_NETS["diamond"] + "4 1\n4 5\n5 2\n1 6\n6 4\n"
    INTRINSICS = [0.9, 0.9, 0.9, 0.9, 0.3, 0.9]

    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    def test_sets_are_reverse_reachability(self, model):
        # RR_r(w) holds exactly the nodes whose forward reach in
        # realization r, replayed from the same draw, contains w
        net = make_net(self.EDGES, model=model, ic_p=0.5,
                       intrinsics=self.INTRINSICS)
        l, n = 40, net.n
        single, sizes, members = rr_sets(net, l, 9)
        assert_well_formed(n, l * n, single, sizes, members)
        reals = realizations_of(net, *_live_in_edges(net, l, np.random.default_rng(9)))
        # RR_r(w) for every r and w in turn: {w} is counted at w, the
        # larger sets are stored in that order
        want_single, want = np.zeros(n, dtype=np.int64), []
        for real in reals:
            for w in range(n):
                rr = [u for u in range(n) if w in _reach_set(real.live_out, u)]
                if rr == [w]:
                    want_single[w] += 1
                else:
                    want.append(rr)
        assert np.array_equal(single, want_single)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        assert [members[lo:hi].tolist()
                for lo, hi in zip(offsets[:-1], offsets[1:])] == want

    @pytest.mark.parametrize("model", ["ic-cp", "lt"])
    def test_passes_compose(self, model, monkeypatch):
        # one realization per pass draws the same stream as one pass
        rng = random.Random(3)
        net = make_net(random_edge_text(rng, 12, 30), model=model, ic_p=0.4)
        whole = rr_sets(net, 50, 4)
        monkeypatch.setattr(sampling, "SIM_STATE_BYTES", 1)
        assert len(list(sample_rr_block(net, 50, np.random.default_rng(4)))) == 50
        split = rr_sets(net, 50, 4)
        for a, b in zip(whole, split):
            assert np.array_equal(a, b)



def pin_net(name):
    """The nets whose kernel output is pinned: rat-large's shape, a p = 1
    complete 12-node digraph and every KERNEL_NETS shape under each model."""
    if name == "rat-large":
        return rat_large_net()
    if name == "complete-12":
        return make_net("".join(f"{u} {v}\n" for u in range(1, 13)
                                for v in range(1, 13) if u != v), ic_p=1.0)
    shape, model = name.split("/")
    return make_net(KERNEL_NETS[shape], model=model, ic_p=0.5)


def kernel_digest(blocks):
    """A digest of a sequence of (single, sizes, members) blocks."""
    h = hashlib.sha256()
    for block in blocks:
        for part in block:
            part = np.asarray(part, dtype=np.int64)
            h.update(np.int64(part.size).tobytes() + part.tobytes())
    return h.hexdigest()[:16]


class TestKernelPins:
    # digests of each kernel's output in the split layout, pinned while the
    # kernels still grew every set through the whole traversal; counts
    # span one full RA_BLOCK on rat-large and several RR passes
    @pytest.mark.parametrize("name,pinned", [
        ("rat-large", "ee4907ddf8511587"),
        ("complete-12", "25f15c2f9ac7586d"),
        ("chain/ic-cp", "f29d154bfebf0a4e"), ("chain/ic-wc", "90640b79ac6f8f1f"), ("chain/lt", "90640b79ac6f8f1f"),
        ("cycle/ic-cp", "8d0818a9d4667976"), ("cycle/ic-wc", "dbf327eaf70d2a0b"), ("cycle/lt", "dbf327eaf70d2a0b"),
        ("diamond/ic-cp", "05ac7997092eca5b"), ("diamond/ic-wc", "2bba8800455c48eb"), ("diamond/lt", "685df6052239fef5"),
    ])
    def test_ra_block_is_pinned(self, name, pinned):
        net = pin_net(name)
        count = RA_BLOCK if name == "rat-large" else 3000
        assert kernel_digest([ra_block(net, count, 20261019)]) == pinned

    @pytest.mark.parametrize("name,pinned", [
        ("rat-large", "25986418ccf38d03"),
        ("complete-12", "b7418e6c19265118"),
        ("chain/ic-cp", "19d4635e38178743"), ("chain/ic-wc", "f8e84c8538a96153"), ("chain/lt", "f8e84c8538a96153"),
        ("cycle/ic-cp", "1b571603effdec7b"), ("cycle/ic-wc", "2516da34cbc23870"), ("cycle/lt", "2516da34cbc23870"),
        ("diamond/ic-cp", "7c813d64bf0b91fd"), ("diamond/ic-wc", "ff5b09aa4369617b"), ("diamond/lt", "c98fb2d1b2bead86"),
    ])
    def test_rr_passes_are_pinned(self, name, pinned):
        net = pin_net(name)
        count = 3 if name == "rat-large" else 300
        assert kernel_digest(rr_passes(net, count, 20261019)) == pinned


def _reach_set(live_out, u):
    """Nodes reachable from u over live_out, u included."""
    reached, queue = {u}, [u]
    while queue:
        for v in live_out[queue.pop()]:
            if v not in reached:
                reached.add(v)
                queue.append(v)
    return reached


class TestEstimateF:
    def test_matches_bruteforce_recompute(self):
        rng = random.Random(42)
        for _ in range(8):
            net = random_small_net(rng, n_max=6)
            coll = generate_collection(net, 150, rng.randrange(1000))
            for _ in range(4):
                seeds = [v for v in range(net.n) if rng.random() < 0.4]
                covered = sum(
                    1 for j in range(len(coll.sizes()))
                    if set(seeds) & set(coll.members_of(j).tolist()))
                covered += int(coll.single[seeds].sum())
                want = net.price * net.n * covered / len(coll) \
                    - net.coupon * len(set(seeds))
                assert estimate_F(coll, seeds, net) == pytest.approx(want, abs=1e-12)

    def test_unbiased_against_exact_profit(self, lt_fork_net):
        # E[F] = P pi(S) - C|S|; fork with S={a} has pi = 1.5
        a = lt_fork_net.graph.id_of(1)
        l = 200_000
        coll = generate_collection(lt_fork_net, l, 3)
        got = estimate_F(coll, [a], lt_fork_net)
        want = exact_profit(lt_fork_net, [a])
        # covered indicator is Bernoulli(pi/n); scale by P n
        p_cov = 1.5 / 3
        se = lt_fork_net.price * 3 * math.sqrt(p_cov * (1 - p_cov) / l)
        assert got == pytest.approx(want, abs=4 * se)

    def test_covered_sets_mask(self):
        coll = collection_of(2, [[0], [1]])
        assert list(covered_sets(coll, [0])) == [True, False]

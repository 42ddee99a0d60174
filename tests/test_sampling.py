import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from profitmax import (NetworkError, RACollection, RASet, estimate_F, exact_pi,
                       exact_profit, generate_collection, generate_ra_set,
                       load_collection, ra_t, save_collection)
from profitmax.sampling import (INDEX_CHUNK, RA_BLOCK, CollectionBuilder,
                                coverage_indicator, covered_sets, sample_ra_block)

from conftest import make_net, random_small_net


class TestRASet:
    def test_root_must_be_member(self):
        with pytest.raises(ValueError):
            RASet(root=0, members=frozenset({1}))

    def test_fork_outcomes(self, lt_fork_net):
        # under the threshold model the tip picks exactly one parent
        a = lt_fork_net.graph.id_of(1)
        b = lt_fork_net.graph.id_of(2)
        c = lt_fork_net.graph.id_of(3)
        rng = random.Random(0)
        for _ in range(100):
            ra = generate_ra_set(lt_fork_net, rng)
            assert ra.root in ra.members
            if ra.root in (a, b):
                assert ra.members == frozenset({ra.root})
            else:
                assert ra.members in (frozenset({c, a}), frozenset({c, b}))

    def test_root_uniform(self, lt_fork_net):
        rng = random.Random(1)
        trials = 6000
        counts = Counter(generate_ra_set(lt_fork_net, rng).root
                         for _ in range(trials))
        expected = trials / 3
        chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(3))
        assert chi2 < stats.chi2.ppf(0.999, df=2)

    def test_lazy_traversal_matches_forward_law(self):
        # reverse sampling must induce the same (root, set) distribution
        # as materializing a full realization and reverse-reaching the root
        net = make_net("1 2\n2 3\n", ic_p=0.5)
        rng = random.Random(2)
        trials = 9000
        counts = Counter()
        for _ in range(trials):
            ra = generate_ra_set(net, rng)
            counts[(ra.root, tuple(sorted(ra.members)))] += 1
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
        rng = random.Random(3)
        for _ in range(50):
            ra = generate_ra_set(net, rng)
            if ra.root == 1:  # cannot pay full price: empty triggering set
                assert ra.members == frozenset({1})

    def test_coverage_indicator(self):
        ra = RASet(root=2, members=frozenset({2, 0}))
        assert coverage_indicator([0], ra) == 1
        assert coverage_indicator([1], ra) == 0
        assert coverage_indicator([], ra) == 0


class TestCollection:
    def test_generate_deterministic(self, lt_fork_net):
        a = generate_collection(lt_fork_net, 200, 5)
        b = generate_collection(lt_fork_net, 200, 5)
        assert len(a) == len(b) == 200
        assert np.array_equal(a.roots, b.roots)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.offsets, b.offsets)

    def test_collection_independent_of_worker_count(self, lt_fork_net):
        # the stream is split into fixed RA_BLOCK-set blocks, not per worker
        l = 2 * RA_BLOCK + 123
        base = generate_collection(lt_fork_net, l, 5, workers=1)
        assert len(base) == l
        for workers in (2, 3):
            other = generate_collection(lt_fork_net, l, 5, workers=workers)
            assert np.array_equal(base.roots, other.roots)
            assert np.array_equal(base.offsets, other.offsets)
            assert np.array_equal(base.members, other.members)

    def test_ra_t_independent_of_worker_count(self):
        net = make_net("1 2\n2 3\n3 4\n1 4\n4 5\n2 5\n", ic_p=0.4)
        a = ra_t(net, eps=0.4, seed=8, workers=1)
        b = ra_t(net, eps=0.4, seed=8, workers=2)
        assert a.members == b.members
        assert a.internal_value == b.internal_value

    def test_from_sets_round_trip(self):
        sets = [RASet(0, frozenset({0})), RASet(1, frozenset({0, 1}))]
        coll = RACollection.from_sets(2, sets)
        assert len(coll) == 2
        assert list(coll.members_of(1)) == [0, 1]
        assert list(coll.sizes()) == [1, 2]

    def test_inverted_index_matches_bruteforce(self):
        rng = random.Random(7)
        net = random_small_net(rng, n_max=6)
        coll = generate_collection(net, 300, 11)
        for v in range(net.n):
            brute = [j for j in range(len(coll))
                     if v in set(coll.members_of(j).tolist())]
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
        coll = RACollection(n, [s[0] for s in sets], offsets, np.concatenate(sets))
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
        sets = [RASet(0, frozenset({0})), RASet(1, frozenset({0, 1})),
                RASet(1, frozenset({1}))]
        coll = RACollection.from_sets(2, sets)
        assert list(coll.coverage_counts()) == [2, 2]

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


# A multi-level chain, a cycle and two paths to one ancestor (the diamond:
# 4's parents 2 and 3 reach 1 on the same level, so 1 must be kept once).
KERNEL_NETS = {"chain": "1 2\n2 3\n3 4\n",
               "cycle": "1 2\n2 3\n3 1\n",
               "diamond": "1 2\n1 3\n2 4\n3 4\n"}


def assert_well_formed(n, roots, sizes, members):
    """Every set holds its root once and no node twice."""
    assert sizes.sum() == members.size
    owner = np.repeat(np.arange(roots.size), sizes)
    keys = owner * n + members
    assert np.unique(keys).size == keys.size
    assert np.array_equal(np.bincount(owner[members == roots[owner]],
                                      minlength=roots.size),
                          np.ones(roots.size))


class TestKernel:
    @pytest.mark.parametrize("model", ["ic-cp", "ic-wc", "lt"])
    @pytest.mark.parametrize("shape", sorted(KERNEL_NETS))
    def test_coverage_matches_exact_pi(self, model, shape):
        # n * (fraction of sets holding v) is unbiased for pi({v})
        net = make_net(KERNEL_NETS[shape], model=model, ic_p=0.5)
        l = 60_000
        roots, sizes, members = sample_ra_block(
            net, l, np.random.default_rng(20260822))
        assert roots.size == sizes.size == l
        assert_well_formed(net.n, roots, sizes, members)
        covering = np.bincount(members, minlength=net.n)
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
        coll = generate_collection(net, RA_BLOCK + 500, 4)
        assert_well_formed(net.n, coll.roots, coll.sizes(), coll.members)
        for i in range(0, len(coll), 37):
            assert np.all(np.diff(coll.members_of(i)) > 0)  # ascending

    def test_generate_ra_set_is_a_block_of_one(self, lt_fork_net):
        ra = generate_ra_set(lt_fork_net, np.random.default_rng(3))
        roots, _, members = sample_ra_block(lt_fork_net, 1, np.random.default_rng(3))
        assert ra == RASet(int(roots[0]), frozenset(members.tolist()))


class TestEstimateF:
    def test_matches_bruteforce_recompute(self):
        rng = random.Random(42)
        for _ in range(8):
            net = random_small_net(rng, n_max=6)
            coll = generate_collection(net, 150, rng.randrange(1000))
            for _ in range(4):
                seeds = [v for v in range(net.n) if rng.random() < 0.4]
                covered = sum(
                    1 for j in range(len(coll))
                    if set(seeds) & set(coll.members_of(j).tolist()))
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
        sets = [RASet(0, frozenset({0})), RASet(1, frozenset({1}))]
        coll = RACollection.from_sets(2, sets)
        assert list(covered_sets(coll, [0])) == [True, False]


class TestCache:
    def test_round_trip(self, tmp_path, lt_fork_net):
        coll = generate_collection(lt_fork_net, 120, 9)
        path = tmp_path / "ra.bin"
        save_collection(str(path), coll, lt_fork_net)
        loaded = load_collection(str(path), lt_fork_net)
        assert len(loaded) == 120
        assert np.array_equal(loaded.roots, coll.roots)
        assert np.array_equal(loaded.members, coll.members)

    def test_rejects_other_network(self, tmp_path, lt_fork_net):
        coll = generate_collection(lt_fork_net, 10, 9)
        path = tmp_path / "ra.bin"
        save_collection(str(path), coll, lt_fork_net)
        other = make_net("1 3\n2 3\n", model="lt", price=0.4, coupon=0.1)
        with pytest.raises(ValueError, match="different network"):
            load_collection(str(path), other)

    def test_rejects_same_shape_other_edges(self, tmp_path):
        # same model, prices, n and m; only the edges differ
        net = make_net("1 2\n2 3\n")
        other = make_net("1 2\n1 3\n")
        path = tmp_path / "ra.bin"
        save_collection(str(path), generate_collection(net, 50, 2), net)
        with pytest.raises(NetworkError, match="different network"):
            load_collection(str(path), other)

    @pytest.mark.parametrize("cut", ["header", "body"])
    def test_truncated_file_fails_cleanly(self, tmp_path, lt_fork_net, cut):
        path = tmp_path / "ra.bin"
        save_collection(str(path), generate_collection(lt_fork_net, 40, 1),
                        lt_fork_net)
        data = path.read_bytes()
        # the header is 25 bytes: magic, version, digest, n, l
        path.write_bytes(data[:20] if cut == "header" else data[:-3])
        with pytest.raises(NetworkError, match="truncated RA collection cache"):
            load_collection(str(path), lt_fork_net)

    def test_rejects_garbage(self, tmp_path, lt_fork_net):
        path = tmp_path / "ra.bin"
        path.write_bytes(b"???")
        with pytest.raises(ValueError):
            load_collection(str(path), lt_fork_net)

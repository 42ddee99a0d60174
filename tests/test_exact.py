import math
import random
import tracemalloc

import numpy as np
import pytest

from profitmax import (OracleSizeError, best_seed_set, exact, exact_pi,
                       exact_profit, pi_table, profit_table, realization_count)
from profitmax.exact import mask_of

from conftest import make_net, random_small_net


class TestClosedForms:
    """Instances small enough to solve by hand; values frozen here."""

    def test_two_node_profits(self, two_node_net):
        assert exact_profit(two_node_net, [0]) == pytest.approx(0.75, abs=1e-12)
        assert exact_profit(two_node_net, [0, 1]) == pytest.approx(0.5, abs=1e-12)
        assert exact_profit(two_node_net, [1]) == pytest.approx(0.25, abs=1e-12)
        assert exact_profit(two_node_net, []) == 0.0

    def test_ic_three_cycle(self):
        # 1 -> 2 -> 3 -> 1 at p: pi({1}) = 1 + p + p^2
        net = make_net("1 2\n2 3\n3 1\n", ic_p=0.3)
        assert exact_pi(net, [0]) == pytest.approx(1.39, abs=1e-12)

    def test_ic_diamond(self):
        # a -> {b, c} -> d at p = 0.5; two independent 2-edge paths to d:
        # pi({a}) = 1 + 2p + 1 - (1 - p^2)^2 = 2.4375
        net = make_net("1 2\n1 3\n2 4\n3 4\n", ic_p=0.5)
        assert exact_pi(net, [0]) == pytest.approx(2.4375, abs=1e-12)

    def test_lt_fork(self, lt_fork_net):
        a = lt_fork_net.graph.id_of(1)
        b = lt_fork_net.graph.id_of(2)
        assert exact_pi(lt_fork_net, [a]) == pytest.approx(1.5, abs=1e-12)
        assert exact_pi(lt_fork_net, [a, b]) == pytest.approx(3.0, abs=1e-12)

    def test_unaffordable_relay_blocked(self):
        net = make_net("1 2\n2 3\n", ic_p=1.0, intrinsics=[0.9, 0.3, 0.9])
        assert exact_pi(net, [0]) == pytest.approx(1.0, abs=1e-12)
        assert exact_pi(net, [0, 1]) == pytest.approx(3.0, abs=1e-12)

    def test_profit_is_price_pi_minus_coupon_size(self):
        net = make_net("1 2\n2 3\n3 1\n", ic_p=0.3, price=0.7, coupon=0.2)
        pi = exact_pi(net, [0, 2])
        assert exact_profit(net, [0, 2]) == pytest.approx(0.7 * pi - 0.4, abs=1e-12)


class TestRealizationCount:
    def test_ic_counts_live_edge_subsets(self, two_node_net):
        assert realization_count(two_node_net) == 2

    def test_ic_skips_edges_into_ineligible(self):
        net = make_net("1 2\n2 3\n", ic_p=1.0, intrinsics=[0.9, 0.3, 0.9])
        # only the edge 2 -> 3 can matter; 1 -> 2 enters an ineligible node
        assert realization_count(net) == 2

    def test_lt_counts_choice_vectors(self, lt_fork_net):
        # only the fork tip has in-edges: two choices
        assert realization_count(lt_fork_net) == 2


class TestTables:
    def test_table_matches_streaming_on_random_nets(self):
        rng = random.Random(1234)
        for _ in range(12):
            net = random_small_net(rng, n_max=6)
            table = pi_table(net)
            for _ in range(4):
                seeds = [v for v in range(net.n) if rng.random() < 0.5]
                assert table[mask_of(seeds)] == pytest.approx(
                    exact_pi(net, seeds), abs=1e-9)

    def test_matches_the_lowest_bit_fold(self):
        # the union of reach masks of every subset, built mask by mask
        # from the subset without its lowest bit, weighted one
        # realization at a time
        rng = random.Random(2024)
        for _ in range(8):
            net = random_small_net(rng, n_max=8)
            want = np.zeros(1 << net.n)
            for prob, live_out in exact.iter_realizations(net):
                reach = exact._reach_masks(live_out, net.n)
                union = [0] * (1 << net.n)
                for mask in range(1, 1 << net.n):
                    low = mask & -mask
                    union[mask] = union[mask ^ low] | reach[low.bit_length() - 1]
                    want[mask] += prob * bin(union[mask]).count("1")
            assert np.allclose(pi_table(net), want, rtol=0.0, atol=1e-12)

    def test_scratch_bound_shrinks_the_fold(self, monkeypatch):
        # with room for one realization per fold the table is the same
        rng = random.Random(4321)
        for _ in range(6):
            net = random_small_net(rng, n_max=6)
            want = pi_table(net)
            with monkeypatch.context() as m:
                m.setattr(exact, "TABLE_SCRATCH_BYTES", 4 << net.n)
                got = pi_table(net)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_fold_scratch_is_bounded(self):
        # a 12-node ring with 2^12 realizations: folded 2048 at a time,
        # its scratch alone would be 32 MiB
        ring = "".join(f"{v} {v % 12 + 1}\n" for v in range(1, 13))
        net = make_net(ring, ic_p=0.5)
        assert realization_count(net) == 1 << 12
        tracemalloc.start()
        try:
            pi_table(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * exact.TABLE_SCRATCH_BYTES

    def test_profit_table_consistent(self, two_node_net):
        table = profit_table(two_node_net)
        assert table[0b01] == pytest.approx(0.75, abs=1e-12)
        assert table[0b11] == pytest.approx(0.5, abs=1e-12)
        assert table[0] == 0.0

    def test_best_seed_set(self, two_node_net):
        members, value = best_seed_set(two_node_net)
        assert members == frozenset({0})
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_best_seed_set_tie_breaks_low_mask(self):
        # symmetric 2-cycle with certain edges: {v1} and {v2} both give
        # 2P - C = 0.75 and tie for the optimum; the lowest bitmask wins
        net = make_net("1 2\n2 1\n", ic_p=1.0, price=0.5, coupon=0.25)
        members, value = best_seed_set(net)
        assert members == frozenset({0})
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_best_seed_set_ties_within_rounding(self):
        # on a 6-cycle, {v1, v3, v5} and {v2, v4, v6} are rotations of each
        # other and tie for the optimum, but the fold rounds the second
        # one's entry an ulp higher, so np.argmax picks it
        net = make_net("".join(f"{v} {v % 6 + 1}\n" for v in range(1, 7)),
                       ic_p=0.6, price=0.5, coupon=0.25)
        table = profit_table(net)
        low, high = mask_of([0, 2, 4]), mask_of([1, 3, 5])
        assert int(np.argmax(table)) == high
        assert 0 < table[high] - table[low] <= 4 * np.spacing(table[high])
        members, value = best_seed_set(net, table)
        assert members == frozenset({0, 2, 4})
        assert value == table[low]

    def test_probabilities_sum_to_one(self):
        rng = random.Random(99)
        for _ in range(6):
            net = random_small_net(rng, n_max=5)
            from profitmax.exact import iter_realizations
            total = sum(prob for prob, _ in iter_realizations(net))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestRefusals:
    def test_ic_too_many_live_edges(self):
        edges = "\n".join(f"{u} {v}" for u in range(1, 7)
                          for v in range(1, 7) if u != v)
        net = make_net(edges + "\n", ic_p=0.5)  # 30 live edges
        with pytest.raises(OracleSizeError):
            exact_pi(net, [0])

    def test_table_too_many_nodes(self):
        edges = "\n".join(f"{v} {v + 1}" for v in range(1, 22))
        net = make_net(edges + "\n", ic_p=0.5)
        with pytest.raises(OracleSizeError):
            pi_table(net)

    def test_table_work_bound(self):
        # 20 nodes and 2^12 realizations are each within their limit, but
        # the fold would need 2^20 x 2^12 steps: refused before allocating
        ring = "".join(f"{v} {v % 20 + 1}\n" for v in range(1, 21))
        net = make_net(ring, ic_p=0.5, intrinsics=[0.9] * 12 + [0.3] * 8)
        assert realization_count(net) == 1 << 12
        with pytest.raises(OracleSizeError, match="2\\^20 x 4096"):
            pi_table(net)

    def test_edges_into_ineligible_nodes_do_not_count(self):
        # a 6-clique where nobody can pay full price: no live edges at all
        edges = "\n".join(f"{u} {v}" for u in range(1, 7)
                          for v in range(1, 7) if u != v)
        net = make_net(edges + "\n", ic_p=0.5, price=0.5, coupon=0.25,
                       intrinsics=[0.3] * 6)
        assert realization_count(net) == 1
        assert exact_pi(net, [0]) == pytest.approx(1.0, abs=1e-12)

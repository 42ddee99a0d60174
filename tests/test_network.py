import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitmax import (CONFIG_KEYS, MODELS, DiffusionParams, Graph, NetworkError,
                       ParameterError, ParseError, build_tc_network,
                       generate_intrinsics, ingest_edge_list, load_intrinsics,
                       load_network_config)

from conftest import make_graph, make_net


class TestIngest:
    def test_basic_shape(self):
        g = make_graph("# comment\n1 2\n2 3\n\n3 1\n")
        assert g.n == 3
        assert g.m == 3
        assert g.out_indices[g.out_indptr[0]:g.out_indptr[1]].tolist() == [1]
        assert g.in_indices[g.in_indptr[0]:g.in_indptr[1]].tolist() == [2]

    def test_labels_keep_first_seen_order(self):
        g = make_graph("10 7\n7 3\n")
        assert g.labels == (10, 7, 3)
        assert g.id_of(7) == 1

    def test_duplicate_edges_collapse(self):
        g = make_graph("1 2\n1 2\n1 2\n")
        assert g.m == 1

    def test_self_loops_dropped(self):
        g = make_graph("1 1\n1 2\n")
        assert g.m == 1
        assert g.n == 2

    def test_undirected_doubles_edges(self):
        g = make_graph("1 2\n", undirected=True)
        assert g.m == 2
        assert g.out_indices[g.out_indptr[1]:g.out_indptr[2]].tolist() == [0]

    def test_tab_separated(self):
        g = make_graph("1\t2\n")
        assert g.m == 1

    def test_empty_input_rejected(self):
        with pytest.raises(NetworkError, match="empty graph"):
            make_graph("# nothing\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            make_graph("1 2\nbogus\n")

    def test_degrees(self):
        g = make_graph("1 2\n1 3\n2 3\n")
        assert np.diff(g.out_indptr)[0] == 2
        assert np.diff(g.in_indptr)[g.id_of(3)] == 2


def reference_csr(n, edges):
    """(indptr, indices) of both directions of a set of (u, v) pairs,
    built with plain Python: neighbors ascending, each edge once."""
    out = []
    for adj in ([sorted(v for u, v in edges if u == w) for w in range(n)],
                [sorted(u for u, v in edges if v == w) for w in range(n)]):
        indptr = [0]
        for nbrs in adj:
            indptr.append(indptr[-1] + len(nbrs))
        out.append((indptr, [x for nbrs in adj for x in nbrs]))
    return out


def assert_csr(g, n, edges):
    (out_ptr, out_idx), (in_ptr, in_idx) = reference_csr(n, edges)
    assert g.n == n
    assert g.m == len(edges)
    assert g.out_indptr.tolist() == out_ptr
    assert g.out_indices.tolist() == out_idx
    assert g.in_indptr.tolist() == in_ptr
    assert g.in_indices.tolist() == in_idx
    assert g.out_indptr.dtype == g.in_indptr.dtype == np.int64
    assert g.out_indices.dtype == g.in_indices.dtype == np.int32


class TestGraph:
    @settings(max_examples=80, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(-5, 12), st.integers(-5, 12)),
                          min_size=1, max_size=40),
           undirected=st.booleans())
    def test_ingest_matches_reference_adjacency(self, pairs, undirected):
        # repeats and self-loops come from the small label range
        text = "".join(f"{a} {b}\n" for a, b in pairs)
        g = make_graph(text, undirected)
        labels = list(dict.fromkeys(lab for pair in pairs for lab in pair))
        ids = {lab: i for i, lab in enumerate(labels)}
        edges = {(ids[a], ids[b]) for a, b in pairs if a != b}
        if undirected:
            edges |= {(v, u) for u, v in edges}
        assert_csr(g, len(labels), edges)
        assert g.labels == tuple(labels)
        assert all(g.id_of(lab) == i for i, lab in enumerate(labels))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9))
    def test_constructor_matches_reference_adjacency(self, data, n):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)), max_size=50))
        g = Graph(n, [u for u, _ in pairs], [v for _, v in pairs])
        assert_csr(g, n, {(u, v) for u, v in pairs if u != v})
        assert g.labels == tuple(range(n))

    @pytest.mark.parametrize("sources,targets", [
        ([0, 3], [1, 0]), ([0], [3]), ([-1], [2]), ([1, 0], [0, -4])])
    def test_out_of_range_ids_rejected(self, sources, targets):
        with pytest.raises(NetworkError, match="out of range for n=3"):
            Graph(3, sources, targets)

    def test_shape_checked(self):
        with pytest.raises(NetworkError):
            Graph(0, [], [])
        with pytest.raises(NetworkError, match="equal-length"):
            Graph(3, [0, 1], [1])
        with pytest.raises(NetworkError, match="labels length"):
            Graph(3, [0], [1], labels=[5, 6])


class TestDiffusionParams:
    def test_unknown_model_rejected(self):
        with pytest.raises(ParameterError):
            DiffusionParams(model="sir")

    def test_ic_probability_range(self):
        with pytest.raises(ParameterError):
            DiffusionParams(model="ic-cp", ic_probability=1.5)
        with pytest.raises(ParameterError):
            DiffusionParams(model="ic-cp", ic_probability=-0.1)
        # the other models do not read it, but a report echoes it
        for model in ("ic-wc", "lt"):
            for p in (1.5, -0.1, 0.0, math.nan):
                with pytest.raises(ParameterError, match="ic probability"):
                    DiffusionParams(model=model, ic_probability=p)
            assert DiffusionParams(model=model, ic_probability=1.0).model == model


class TestBuild:
    def test_pricing_validation(self):
        g = make_graph("1 2\n")
        params = DiffusionParams("ic-cp")
        with pytest.raises(ParameterError):
            build_tc_network(g, params, 0.0, 0.0, [0.9, 0.9])
        with pytest.raises(ParameterError):
            build_tc_network(g, params, 1.2, 0.1, [0.9, 0.9])
        with pytest.raises(ParameterError):
            build_tc_network(g, params, 0.5, 0.5, [0.9, 0.9])
        with pytest.raises(ParameterError):
            build_tc_network(g, params, 0.5, -0.1, [0.9, 0.9])

    def test_intrinsics_length_checked(self):
        g = make_graph("1 2\n")
        with pytest.raises(NetworkError):
            build_tc_network(g, DiffusionParams("ic-cp"), 0.5, 0.25, [0.9])

    def test_pruning_removes_unaffordable(self):
        # v3 cannot afford the price even with the coupon
        net = make_net("1 2\n2 3\n", price=0.5, coupon=0.25,
                       intrinsics=[0.9, 0.9, 0.1])
        assert net.n == 2
        assert net.pruned_labels == (3,)

    def test_pruning_keeps_boundary(self):
        # intrinsic + coupon == price is affordable when seeded
        net = make_net("1 2\n", price=0.5, coupon=0.25, intrinsics=[0.9, 0.25])
        assert net.n == 2

    def test_everyone_pruned_is_an_error(self):
        with pytest.raises(NetworkError, match="every node was pruned"):
            make_net("1 2\n", price=0.9, coupon=0.0, intrinsics=[0.1, 0.1])

    def test_adopter_eligibility_needs_full_price(self):
        # v2 affords with the coupon but not without: not adopter-eligible
        net = make_net("1 2\n", price=0.5, coupon=0.25, intrinsics=[0.9, 0.3])
        assert net.eligible[0]
        assert not net.eligible[1]

    def test_prob_in_constant_model(self):
        net = make_net("1 2\n2 3\n", ic_p=0.37)
        assert net.prob_in[2] == pytest.approx(0.37)

    def test_prob_in_weighted_cascade(self):
        net = make_net("1 3\n2 3\n", model="ic-wc")
        assert net.prob_in[net.graph.id_of(3)] == pytest.approx(0.5)
        # sources with no in-edges get probability 0 (never activated)
        assert net.prob_in[net.graph.id_of(1)] == 0.0

    def test_weighted_cascade_uses_pruned_degree(self):
        # v3 has in-degree 2 before pruning, 1 after v2 is removed;
        # intrinsics follow first-seen order (1, 3, 2)
        net = make_net("1 3\n2 3\n", model="ic-wc", price=0.5, coupon=0.25,
                       intrinsics=[0.9, 0.9, 0.1])
        assert net.n == 2
        assert net.prob_in[net.graph.id_of(3)] == pytest.approx(1.0)

    def test_full_profit(self):
        net = make_net("1 2\n", price=0.5, coupon=0.2)
        assert net.full_profit() == pytest.approx(0.6)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 9), model=st.sampled_from(MODELS))
    def test_pruned_network_matches_reference_remap(self, data, n, model):
        pairs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                                   min_size=1, max_size=30))
        g = make_graph("".join(f"{a} {b}\n" for a, b in pairs))
        intr = data.draw(st.lists(st.sampled_from([0.1, 0.3, 0.6, 0.9]),
                                  min_size=g.n, max_size=g.n))
        price, coupon = 0.5, 0.25
        keep = [v for v in range(g.n) if intr[v] + coupon >= price]
        params = DiffusionParams(model, 0.3)
        if not keep:
            with pytest.raises(NetworkError, match="every node was pruned"):
                build_tc_network(g, params, price, coupon, intr)
            return
        remap = {old: new for new, old in enumerate(keep)}
        edges = {(remap[u], remap[v])
                 for u in keep
                 for v in g.out_indices[g.out_indptr[u]:g.out_indptr[u + 1]].tolist()
                 if v in remap}
        net = build_tc_network(g, params, price, coupon, intr)
        assert_csr(net.graph, len(keep), edges)
        assert net.graph.labels == tuple(g.labels[v] for v in keep)
        assert net.pruned_labels == tuple(g.labels[v] for v in range(g.n)
                                          if v not in remap)
        assert net.intrinsic.tolist() == [intr[v] for v in keep]
        assert net.eligible.tolist() == [intr[v] >= price for v in keep]
        in_deg = [sum(1 for _, v in edges if v == w) for w in range(len(keep))]
        if model == "ic-cp":
            assert net.prob_in.tolist() == [0.3] * len(keep)
        else:
            assert net.prob_in.tolist() == [1.0 / d if d else 0.0 for d in in_deg]

    def test_labels_round_trip(self):
        net = make_net("5 9\n9 4\n")
        ids = [net.graph.id_of(lab) for lab in (5, 9, 4)]
        assert net.labels_of(ids) == [4, 5, 9]  # sorted by label


class TestIntrinsics:
    def test_generate_range_and_determinism(self):
        g = make_graph("1 2\n2 3\n")
        a = generate_intrinsics(g, 0.5, 0.25, 42)
        b = generate_intrinsics(g, 0.5, 0.25, 42)
        c = generate_intrinsics(g, 0.5, 0.25, 43)
        assert list(a) == list(b)
        assert list(a) != list(c)
        assert all(0.25 <= x <= 1.0 for x in a)

    def test_load(self, tmp_path):
        path = tmp_path / "intr.txt"
        path.write_text("0.5\n0.75\n# note\n1.0\n")
        vals = load_intrinsics(str(path), 3)
        assert vals == [0.5, 0.75, 1.0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_load_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "intr.txt"
        path.write_text(f"0.5\n# note\n{value}\n")
        with pytest.raises(ParseError, match="line 3"):
            load_intrinsics(str(path), 2)

    def test_load_count_mismatch(self, tmp_path):
        path = tmp_path / "intr.txt"
        path.write_text("0.5\n")
        with pytest.raises(NetworkError, match="holds 1"):
            load_intrinsics(str(path), 2)


class TestConfig:
    def test_parse_both_separators(self, tmp_path):
        path = tmp_path / "net.conf"
        path.write_text("# demo\nmodel = lt\nprice 0.4\nrng-seed = 7\n")
        cfg = load_network_config(str(path))
        assert cfg == {"model": "lt", "price": 0.4, "rng-seed": 7}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "net.conf"
        path.write_text("pricing = 0.4\n")
        with pytest.raises(ParseError, match="unknown"):
            load_network_config(str(path))

    def test_known_keys_documented(self):
        assert {"model", "price", "coupon-fraction", "ic-probability",
                "rng-seed"} <= set(CONFIG_KEYS)

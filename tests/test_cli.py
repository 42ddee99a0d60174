import argparse
import inspect
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from profitmax import (ALGORITHMS, SELECTORS, DiffusionParams,
                       build_tc_network, generate_intrinsics, ingest_edge_list,
                       ra_s, ra_t, validate_report)
from profitmax import cli
from profitmax.cli import build_parser, main

from conftest import make_net, random_edge_text

EVAL_SIMS = 100


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# demo\n1 2\n2 3\n3 1\n1 4\n")
    return str(path)


@pytest.fixture
def intr_file(tmp_path):
    path = tmp_path / "intr.txt"
    path.write_text("0.9\n0.9\n0.9\n0.9\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestIngestCheck:
    def test_reports_shape(self, capsys, graph_file):
        code, out, _ = run_cli(capsys, "ingest-check", "--graph", graph_file)
        assert code == 0
        data = json.loads(out)
        assert data["nodes"] == 4
        assert data["edges"] == 4

    def test_undirected(self, capsys, graph_file):
        code, out, _ = run_cli(capsys, "ingest-check", "--graph", graph_file,
                               "--undirected")
        assert json.loads(out)["edges"] == 8

    def test_pruning_summary(self, capsys, graph_file, tmp_path):
        low = tmp_path / "low.txt"
        low.write_text("0.9\n0.9\n0.1\n0.9\n")
        code, out, _ = run_cli(capsys, "ingest-check", "--graph", graph_file,
                               "--price", "0.5", "--coupon-frac", "0.5",
                               "--intrinsics-file", str(low))
        data = json.loads(out)
        assert data["pruned_nodes"] == 1
        assert data["retained_nodes"] == 3

    @pytest.mark.parametrize("frac", [None, "0.5"])
    def test_pruning_counts_what_the_network_prunes(self, capsys, graph_file,
                                                    tmp_path, frac):
        # values at and next to P - C; the default coupon fraction is run's
        price = 0.5
        coupon = (0.9 if frac is None else float(frac)) * price
        edge = price - coupon
        values = [edge, edge + 1e-17, edge - 1e-17, 0.9]
        intr = tmp_path / "edge.txt"
        intr.write_text("".join(f"{v!r}\n" for v in values))
        extra = [] if frac is None else ["--coupon-frac", frac]
        code, out, _ = run_cli(capsys, "ingest-check", "--graph", graph_file,
                               "--price", str(price), "--intrinsics-file",
                               str(intr), *extra)
        assert code == 0
        net = build_tc_network(ingest_edge_list(graph_file), DiffusionParams(),
                               price, coupon, values)
        data = json.loads(out)
        assert data["pruned_nodes"] == len(net.pruned_labels)
        assert data["retained_nodes"] == net.n

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "ingest-check", "--graph",
                               str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error:" in err

    def test_pinned_output(self, capsys, tmp_path):
        # repeats, a self-loop and a reversed pair over labels 7, 3, 9, 1
        graph = tmp_path / "pinned.txt"
        graph.write_text("7 3\n3 9\n7 3\n9 9\n9 7\n3 7\n1 3\n7 9\n")
        intr = tmp_path / "pinned-intr.txt"
        intr.write_text("0.9\n0.3\n0.2\n0.8\n")
        code, out, _ = run_cli(capsys, "ingest-check", "--graph", str(graph),
                               "--price", "0.5", "--coupon-frac", "0.5",
                               "--intrinsics-file", str(intr))
        assert code == 0
        assert out == json.dumps({"edges": 6, "max_in_degree": 2,
                                  "max_out_degree": 2, "nodes": 4,
                                  "pruned_nodes": 1, "retained_nodes": 3},
                                 indent=2, sort_keys=True) + "\n"
        code, out, _ = run_cli(capsys, "ingest-check", "--graph", str(graph),
                               "--undirected")
        assert json.loads(out) == {"edges": 8, "max_in_degree": 3,
                                   "max_out_degree": 3, "nodes": 4}

    @pytest.mark.parametrize("price,frac,message", [
        ("0.5", "3", "coupon fraction must lie in [0, 1)"),
        ("0.5", "-0.1", "coupon fraction must lie in [0, 1)"),
        ("1.5", "0.5", "price must lie in (0, 1]"),
        ("0", "0.5", "price must lie in (0, 1]"),
    ])
    def test_pricing_range_checked_like_run(self, capsys, graph_file, intr_file,
                                            price, frac, message):
        for command, extra in (("ingest-check", []),
                               ("run", ["--alg", "ra-t", "--eval-sims", "10"])):
            code, out, err = run_cli(
                capsys, command, "--graph", graph_file, "--price", price,
                "--coupon-frac", frac, "--intrinsics-file", intr_file, *extra)
            assert code == 1
            assert out == ""
            assert message in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_intrinsic_fails_cleanly(self, capsys, graph_file,
                                                tmp_path, value):
        intr = tmp_path / "bad.txt"
        intr.write_text(f"0.9\n0.9\n{value}\n0.9\n")
        code, out, err = run_cli(capsys, "ingest-check", "--graph", graph_file,
                                 "--price", "0.5", "--intrinsics-file", str(intr))
        assert code == 1
        assert out == ""
        assert "line 3" in err


@pytest.mark.parametrize("command,flag", [
    ("ingest-check", "--graph"),
    ("run", "--graph"),
    ("run", "--config"),
    ("run", "--out"),
    ("sweep", "--csv"),
])
def test_directory_path_fails_cleanly(capsys, graph_file, intr_file, tmp_path,
                                      command, flag):
    # an IsADirectoryError is an OSError: exit 1 with a message, no traceback
    flags = {"--graph": graph_file}
    if command != "ingest-check":
        flags.update({"--intrinsics-file": intr_file, "--alg": "ra-t",
                      "--max-ra": "50", "--eval-sims": "10"})
    flags[flag] = str(tmp_path)
    code, _, err = run_cli(capsys, command,
                           *[tok for pair in flags.items() for tok in pair])
    assert code == 1
    assert err.startswith("error:") and "directory" in err


NEGATIVE_SEED_ARGS = {
    "run": ["--alg", "ra-t", "--max-ra", "50", "--eval-sims", "10"],
    "evaluate": ["--seed-set", "1", "--eval-sims", "10"],
    "oracle": ["--optimum"],
    "sweep": ["--alg", "ra-t", "--max-ra", "50", "--eval-sims", "10"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEED_ARGS))
def test_negative_seed_fails_cleanly(capsys, graph_file, command):
    # generated intrinsics would hand -1 to numpy, which raises ValueError
    code, out, err = run_cli(capsys, command, "--graph", graph_file,
                             "--seed", "-1", *NEGATIVE_SEED_ARGS[command])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--seed" in err and "-1" in err


def test_negative_config_seed_fails_cleanly(capsys, graph_file, tmp_path):
    conf = tmp_path / "net.conf"
    conf.write_text("rng-seed = -4\n")
    code, out, err = run_cli(capsys, "run", "--graph", graph_file,
                             "--config", str(conf),
                             *NEGATIVE_SEED_ARGS["run"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "rng-seed" in err and "-4" in err


class TestRun:
    @pytest.mark.parametrize("alg,value,message", [
        ("ra-s", "nan", "plateau_pct must be a finite"),
        ("ra-s", "inf", "plateau_pct must be a finite"),
        ("ra-s", "-1", "plateau_pct must be a finite"),
        # algorithms that ignore the flag still echo it in the report
        ("ra-t", "nan", "report.parameters.plateau_pct must be finite"),
    ])
    def test_non_finite_plateau_fails_cleanly(self, capsys, graph_file,
                                              intr_file, alg, value, message):
        code, out, err = run_cli(
            capsys, "run", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--alg", alg, "--k", "3", "--eval-sims", "10",
            "--plateau-pct", value)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("alg,extra", [
        ("spm", ["--l-override", "50"]),
        ("rpm", ["--l-override", "50"]),
        ("ra-t", ["--max-ra", "300"]),
        ("ra-s", ["--k", "3"]),
        ("maxinf", []),
        ("highdegree", []),
    ])
    def test_all_algorithms_produce_valid_reports(self, capsys, graph_file,
                                                  intr_file, alg, extra):
        code, out, _ = run_cli(
            capsys, "run", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--ic-p", "0.4", "--alg", alg, "--eval-sims", "100",
            "--seed", "5", "--threads", "1", *extra)
        assert code == 0
        data = json.loads(out)
        validate_report(data)
        assert data["algorithm"] == alg
        assert data["parameters"]["rng_seed"] == 5

    @pytest.mark.parametrize("alg", ["spm", "rpm"])
    def test_zero_l_override_fails_cleanly(self, capsys, graph_file, intr_file,
                                           alg):
        code, out, err = run_cli(
            capsys, "run", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--alg", alg, "--eval-sims", "10", "--l-override", "0")
        assert code == 1
        assert out == ""
        assert "l_override must be a positive integer" in err

    @pytest.mark.parametrize("extra,message", [
        (["--alg", "ra-t", "--max-ra", "0"], "max_ra must be a positive integer"),
        (["--alg", "ra-t", "--eval-sims", "0"], "eval_sims must be a positive integer"),
    ])
    def test_zero_counts_fail_cleanly(self, capsys, graph_file, intr_file,
                                      extra, message):
        code, out, err = run_cli(
            capsys, "run", "--graph", graph_file, "--intrinsics-file",
            intr_file, *(["--eval-sims", "10"] + extra))
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("sims", ["0", "-1"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("alg", list(SELECTORS))
    def test_bad_eval_sims_refused_before_selecting(self, capsys, graph_file,
                                                    intr_file, monkeypatch,
                                                    command, alg, sims):
        class Refuse:
            def __init__(self, **params):
                raise AssertionError("the selector ran")

        monkeypatch.setitem(cli.SELECTORS, alg, Refuse)
        code, out, err = run_cli(capsys, command, "--graph", graph_file,
                                 "--intrinsics-file", intr_file, "--alg", alg,
                                 "--eval-sims", sims)
        assert code == 1
        assert out == ""
        assert err == f"error: eval_sims must be a positive integer, got {sims}\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("size", [None, "1"])
    def test_fixed_size_echoed(self, capsys, graph_file, intr_file, command, size):
        extra = [] if size is None else ["--fixed-size", size]
        code, out, _ = run_cli(capsys, command, "--graph", graph_file,
                               "--intrinsics-file", intr_file, "--alg", "maxinf",
                               "--eval-sims", "10", *extra)
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()] \
            if command == "sweep" else [json.loads(out)]
        want = None if size is None else int(size)
        for report in reports:
            assert report["parameters"]["fixed_size"] == want
            if size is not None:
                assert report["seed_count"] == 1

    @pytest.mark.parametrize("alg,extra", [
        ("spm", ["--l-override", "50"]),
        ("rpm", ["--l-override", "50"]),
        ("ra-t", []),
        ("ra-s", ["--k", "3"]),
        ("maxinf", []),
        ("highdegree", []),
    ])
    def test_thread_count_changes_nothing(self, capsys, graph_file, intr_file,
                                          alg, extra):
        reports = []
        for threads in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "run", "--graph", graph_file, "--intrinsics-file",
                intr_file, "--ic-p", "0.4", "--alg", alg, "--eval-sims", "300",
                "--seed", "5", "--threads", threads, *extra)
            assert code == 0
            report = json.loads(out)
            report.pop("wall_time_ms")
            assert report["parameters"].pop("threads") == int(threads)
            reports.append(report)
        assert reports[0] == reports[1]

    def test_deterministic_output(self, capsys, graph_file, intr_file):
        args = ("run", "--graph", graph_file, "--intrinsics-file", intr_file,
                "--alg", "ra-t", "--eval-sims", "100", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("wall_time_ms")
        b.pop("wall_time_ms")
        assert a == b

    def test_out_file(self, capsys, graph_file, intr_file, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "run", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--alg", "spm", "--l-override", "30",
            "--eval-sims", "50", "--out", str(dest))
        assert code == 0
        assert out == ""
        validate_report(json.loads(dest.read_text()))

    def test_config_file_merging(self, capsys, graph_file, intr_file, tmp_path):
        conf = tmp_path / "net.conf"
        conf.write_text("model = lt\nprice = 0.4\nrng-seed = 3\n")
        code, out, _ = run_cli(
            capsys, "run", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--config", str(conf), "--price", "0.6",
            "--alg", "spm", "--l-override", "30", "--eval-sims", "50")
        data = json.loads(out)
        # explicit flag beats config; config beats default
        assert data["network_summary"]["price"] == 0.6
        assert data["network_summary"]["model"] == "lt"
        assert data["parameters"]["rng_seed"] == 3

    def test_generated_intrinsics_by_default(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys, "run", "--graph", graph_file, "--alg", "spm",
            "--l-override", "30", "--eval-sims", "50", "--seed", "1")
        assert code == 0
        validate_report(json.loads(out))


class TestEvaluate:
    def test_explicit_seed_set(self, capsys, graph_file, intr_file):
        code, out, _ = run_cli(
            capsys, "evaluate", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--ic-p", "1.0", "--seed-set", "1",
            "--eval-sims", "200", "--seed", "2")
        data = json.loads(out)
        validate_report(data)
        assert data["seed_set"] == [1]
        # certain edges: seeding node 1 adopts all four nodes
        assert data["estimated_profit"]["mean_adopters"] == pytest.approx(4.0)

    def test_empty_seed_set(self, capsys, graph_file, intr_file):
        code, out, _ = run_cli(
            capsys, "evaluate", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--seed-set", "", "--eval-sims", "50")
        data = json.loads(out)
        assert data["seed_set"] == []
        assert data["estimated_profit"]["value"] == 0.0

    def test_empty_seed_set_report(self, capsys, graph_file, intr_file):
        # the empty set takes the same path as any other: no draws, 0 adopters
        code, out, _ = run_cli(
            capsys, "evaluate", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--seed-set", "", "--eval-sims", "50", "--seed", "3")
        assert code == 0
        data = json.loads(out)
        validate_report(data)
        assert data["seed_count"] == 0
        assert data["estimated_profit"] == {
            "value": 0.0, "mean_adopters": 0.0, "estimator_kind": "simulation",
            "sample_count": 50}
        assert data["sample_counts"] == {"simulations": 50, "realizations": 0,
                                         "ra_sets": 0}

    @pytest.mark.parametrize("seed_set", ["", "1"])
    @pytest.mark.parametrize("sims", ["0", "-4"])
    def test_nonpositive_eval_sims_fail(self, capsys, graph_file, intr_file,
                                        seed_set, sims):
        code, out, err = run_cli(
            capsys, "evaluate", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--seed-set", seed_set, "--eval-sims", sims)
        assert code == 1
        assert out == ""
        assert "eval_sims must be a positive integer" in err

    def test_unknown_node_fails(self, capsys, graph_file, intr_file):
        code, _, err = run_cli(
            capsys, "evaluate", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--seed-set", "99", "--eval-sims", "50")
        assert code == 1
        assert "99" in err


    def test_repeated_node_fails(self, capsys, graph_file, intr_file):
        code, out, err = run_cli(
            capsys, "evaluate", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--seed-set", "2,1,2", "--eval-sims", "50")
        assert code == 1
        assert out == ""
        assert "node 2 appears more than once" in err


class TestOracle:
    def test_exact_and_optimum(self, capsys, graph_file, intr_file):
        code, out, _ = run_cli(
            capsys, "oracle", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--ic-p", "1.0", "--seed-set", "1", "--optimum")
        data = json.loads(out)
        assert data["exact"]["adopters"] == pytest.approx(4.0)
        assert data["exact"]["profit"] == pytest.approx(0.5 * 4 - 0.45)
        assert data["optimum"]["profit"] >= data["exact"]["profit"] - 1e-12

    def test_requires_some_request(self, capsys, graph_file, intr_file):
        code, _, err = run_cli(capsys, "oracle", "--graph", graph_file,
                               "--intrinsics-file", intr_file)
        assert code == 1
        assert "seed-set" in err or "optimum" in err

    def test_oversized_table_fails_cleanly(self, capsys, tmp_path):
        # a 20-node ring at the default pricing: its table is refused
        graph = tmp_path / "ring.txt"
        graph.write_text("".join(f"{v} {v % 20 + 1}\n" for v in range(1, 21)))
        code, out, err = run_cli(capsys, "oracle", "--graph", str(graph), "--optimum")
        assert code == 1
        assert out == ""
        assert err.startswith("error: subset table")

    def test_repeated_node_fails(self, capsys, graph_file, intr_file):
        code, out, err = run_cli(
            capsys, "oracle", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--seed-set", "1,1")
        assert code == 1
        assert out == ""
        assert "node 1 appears more than once" in err


class TestThresholds:
    def test_reports_all_families(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--n", "10", "--r", "0.1",
                               "--eps", "0.4")
        data = json.loads(out)
        assert set(data) >= {"delta0", "rat", "ras", "inputs"}
        assert data["rat"]["l"] >= 1
        assert data["ras"]["delta1_star"] > data["ras"]["delta2_star"]

    def test_raw_point(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--n", "5", "--r", "0.5",
                               "--eps", "0.3", "--eps1", "0.2", "--eps2", "0.2")
        data = json.loads(out)
        assert {"delta1", "delta1_star", "delta3"} <= set(data["raw"])
        assert {"delta2", "delta2_star"} <= set(data["raw"])

    def test_infeasible_solver_reported_inline(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--n", "10", "--r", "0.5",
                               "--eps", "0.05", "--eps3", "0.2")
        assert code == 0
        assert "error" in json.loads(out)["ras"]

    def test_infeasible_rat_grid_reported_inline(self, capsys):
        # eps 0.005 leaves no point of ra-t's 0.01 grid; delta0 and ras
        # are printed all the same
        code, out, _ = run_cli(capsys, "thresholds", "--n", "20", "--r", "0.1",
                               "--eps", "0.005")
        assert code == 0
        data = json.loads(out)
        assert data["rat"] == {
            "error": "no feasible grid point: step 0.01 does not fit below eps 0.005"}
        assert data["delta0"] > 0 and "ras" in data

    def test_infinite_big_n_fails_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "thresholds", "--n", "10", "--r", "0.1",
                                 "--eps", "0.4", "--bigN", "inf")
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("extra", [[], ["--bigN", "5"]])
    def test_node_count_beyond_floats_fails_cleanly(self, capsys, extra):
        code, out, err = run_cli(capsys, "thresholds", "--n", "1" + "0" * 400,
                                 "--r", "0.5", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: node count must be at most ")
        assert err.count("\n") == 1

    def test_prints_the_sizes_the_algorithms_use(self, capsys):
        net = make_net("1 2\n", ic_p=1.0, price=0.5, coupon=0.25)
        code, out, _ = run_cli(capsys, "thresholds", "--n", str(net.n), "--r",
                               repr(net.discount_ratio), "--k", "3")
        data = json.loads(out)
        assert data["rat"]["l"] == ra_t(net, seed=1).l
        ras = ra_s(net, k=3, seed=1)
        assert data["ras"]["l_simulations"] == ras.extras["l_star"]
        assert data["ras"]["l_start"] == math.ceil(ras.extras["delta2_star"])

    def test_huge_k_reported_inline(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--n", "10", "--r", "0.1",
                               "--eps", "0.4", "--k", "1024")
        assert code == 0
        data = json.loads(out)
        assert "k must be below 1024" in data["ras"]["error"]
        assert data["rat"]["l"] >= 1


@pytest.mark.parametrize("command,extra,message", [
    ("run", ["--alg", "ra-t", "--bigN", "inf"], "must be finite"),
    ("run", ["--alg", "ra-s", "--bigN", "inf"], "must be finite"),
    ("run", ["--alg", "spm", "--l-override", "5", "--bigN", "inf"], "must be finite"),
    ("sweep", ["--alg", "ra-t", "--bigN", "inf"], "must be finite"),
    ("run", ["--alg", "ra-s", "--k", "1024"], "k must be below 1024"),
    ("sweep", ["--alg", "ra-s", "--k", "4096"], "k must be below 1024"),
])
def test_overflowing_numeric_flags_fail_cleanly(capsys, graph_file, intr_file,
                                                command, extra, message):
    code, out, err = run_cli(capsys, command, "--graph", graph_file,
                             "--intrinsics-file", intr_file, "--eval-sims", "10",
                             *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


class TestSweep:
    def test_five_price_points(self, capsys, graph_file, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--graph", graph_file, "--alg", "spm",
            "--l-override", "30", "--eval-sims", "50", "--seed", "4",
            "--csv", str(csv_path))
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 5
        prices = [json.loads(ln)["network_summary"]["price"] for ln in lines]
        assert prices == [0.2, 0.3, 0.4, 0.5, 0.6]
        header, *rows = csv_path.read_text().splitlines()
        assert header.startswith("price,")
        assert len(rows) == 5

    def test_inputs_read_once(self, capsys, graph_file, intr_file, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return ingest_edge_list(*args, **kwargs)

        monkeypatch.setattr(cli, "ingest_edge_list", counting)
        code, out, _ = run_cli(capsys, "sweep", "--graph", graph_file,
                               "--intrinsics-file", intr_file, "--alg", "ra-t",
                               "--max-ra", "50", "--eval-sims", "10")
        assert code == 0
        assert len(out.splitlines()) == len(cli.SWEEP_PRICES)
        assert len(calls) == 1


@pytest.mark.parametrize("extra", [
    ["run", "--alg", "spm", "--l-override", "99999999999999999999"],
    ["run", "--alg", "spm", "--eval-sims", "99999999999999"],
    ["evaluate", "--seed-set", "1", "--eval-sims", "99999999999999"],
])
def test_huge_sample_counts_fail_fast(graph_file, intr_file, extra):
    # past MAX_SAMPLES a count is refused before any sampling starts
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "profitmax", *extra, "--graph", graph_file,
         "--intrinsics-file", intr_file], capture_output=True, text=True,
        env=env, timeout=20)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "must be at most" in done.stderr
    assert "Traceback" not in done.stderr


def test_python_m_profitmax_help():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "profitmax", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: profitmax" in done.stdout
    assert "evaluate" in done.stdout


class TestRegistry:
    # flags for `profitmax run` and the same values as selector parameters
    CASES = {
        "spm": (["--eps", "0.3", "--l-override", "40"],
                {"eps": 0.3, "l_override": 40}),
        "rpm": (["--l-override", "60"], {"l_override": 60}),
        "ra-t": (["--bigN", "20", "--max-ra", "5000"],
                 {"big_n": 20.0, "max_ra": 5000}),
        "ra-s": (["--k", "3", "--eps3", "0.2", "--plateau-pct", "3"],
                 {"k": 3, "eps3": 0.2, "plateau_pct": 3.0}),
        "maxinf": (["--fixed-size", "3"],
                   {"fixed_size": 3, "eval_simulations": EVAL_SIMS}),
        "highdegree": ([], {"eval_simulations": EVAL_SIMS}),
    }

    @pytest.mark.parametrize("alg", sorted(CASES))
    def test_cli_picks_what_the_selector_picks(self, capsys, tmp_path, alg):
        path = tmp_path / "graph.txt"
        path.write_text(random_edge_text(random.Random(4), 12, 30))
        flags, params = self.CASES[alg]
        code, out, _ = run_cli(
            capsys, "run", "--graph", str(path), "--model", "lt", "--seed", "6",
            "--alg", alg, "--eval-sims", str(EVAL_SIMS), *flags)
        assert code == 0
        report = json.loads(out)
        net = build_tc_network(ingest_edge_list(str(path)),
                               DiffusionParams("lt", 0.01), 0.5, 0.9 * 0.5,
                               generate_intrinsics(ingest_edge_list(str(path)),
                                                   0.5, 0.9 * 0.5, 6))
        sel = SELECTORS[alg](seed=6, **params).fit(net)
        assert sel.selection_.produced_by == alg
        assert report["seed_set"] == sel.seed_labels_
        counts = dict(sel.sample_counts_)
        counts["simulations"] += EVAL_SIMS
        assert report["sample_counts"] == counts

    def test_names_agree(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for command in ("run", "sweep"):
            alg = next(a for a in commands[command]._actions if a.dest == "alg")
            assert list(alg.choices) == list(SELECTORS)
        assert set(SELECTORS) == set(ALGORITHMS) | {"maxinf", "highdegree"}
        assert set(self.CASES) == set(SELECTORS)


def _set_default(monkeypatch, fn, name, value):
    """Give the parameter name of fn the default value."""
    names = [p.name for p in inspect.signature(fn).parameters.values()
             if p.default is not p.empty]
    monkeypatch.setattr(fn, "__defaults__", tuple(
        value if param == name else default
        for param, default in zip(names, fn.__defaults__)))


class TestFlagDefaults:
    def test_signature_defaults_reach_help_and_args(self, capsys, monkeypatch):
        for fn in ALGORITHMS.values():
            _set_default(monkeypatch, fn, "eps", 0.35)
        for name, value in (("k", 7), ("eps3", 0.15), ("plateau_pct", 3.5)):
            _set_default(monkeypatch, ra_s, name, value)
        parser = build_parser()
        for command in ("run", "sweep"):
            args = parser.parse_args([command, "--graph", "g", "--alg", "ra-s"])
            assert (args.eps, args.k, args.eps3, args.plateau_pct) == (0.35, 7, 0.15, 3.5)
        args = parser.parse_args(["thresholds", "--n", "10", "--r", "0.5"])
        assert (args.eps, args.k, args.eps3) == (0.35, 7, 0.15)
        shared = ["accuracy (default 0.35)", "(ra-s, default 7)", "(ra-s, default 0.15)"]
        for command, shown in (("run", shared + ["(ra-s, default 3.5)"]),
                               ("thresholds", shared)):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert all(s in text for s in shown), (command, text)

    def test_algorithms_must_agree_on_a_shared_default(self, monkeypatch):
        _set_default(monkeypatch, ra_t, "eps", 0.3)
        with pytest.raises(ValueError, match="disagree on the default eps"):
            build_parser()

    def test_evaluation_runs_named_once(self):
        args = build_parser().parse_args(["evaluate", "--graph", "g", "--seed-set", ""])
        assert args.eval_sims == \
            SELECTORS["maxinf"]().get_params()["eval_simulations"] == \
            SELECTORS["highdegree"]().get_params()["eval_simulations"] == \
            inspect.signature(SELECTORS["spm"].score).parameters["eval_sims"].default


@pytest.mark.parametrize("extra,where", [
    (["run", "--alg", "spm", "--eps", "1e-300"], "delta0 is not a finite positive number at eps=1e-300"),
    (["run", "--alg", "rpm", "--eps", "1e-300"], "delta0 is not a finite positive number at eps=1e-300"),
    (["run", "--alg", "spm", "--eps", "1e-155"], "delta0 is not a finite positive number at eps=1e-155"),
    (["run", "--alg", "spm", "--eps", "1e-155", "--l-override", "5"], "at eps=1e-155"),
    (["thresholds", "--eps", "1e-300"], "delta0 is not a finite positive number at eps=1e-300"),
    (["thresholds", "--eps1", "1e-300"], "delta1 is not a finite positive number at eps1=1e-300"),
    (["thresholds", "--eps2", "1e-300"], "delta2 is not a finite positive number at eps2=1e-300"),
    (["thresholds", "--r", "1e-300"], "r=1e-300"),
    # 2 n^2 overflows a float, though n itself does not
    (["thresholds", "--n", "1" + "0" * 160],
     "delta0 is not a finite positive number at this node count; the node count is too large"),
])
def test_overflowing_thresholds_fail_cleanly(capsys, graph_file, intr_file, extra, where):
    command, *flags = extra
    if command == "thresholds":
        base = ["--n", "10", "--r", "0.5"]
    else:
        base = ["--graph", graph_file, "--intrinsics-file", intr_file, "--eval-sims", "10"]
    code, out, err = run_cli(capsys, command, *base, *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and where in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_thresholds_output_fails_cleanly(capsys, value):
    code, out, err = run_cli(capsys, "thresholds", "--n", "10", "--r", "0.5",
                             "--eps3", value)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"eps3 must be finite, got {value}" in err


@pytest.mark.parametrize("flag,value", [
    ("--eps", "0.6"), ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
    ("--bigN", "0.5"), ("--bigN", "1"), ("--bigN", "nan"), ("--bigN", "inf"),
])
def test_bad_eps_or_n_gets_one_message(capsys, graph_file, intr_file, flag, value):
    errors = set()
    for command in (["run", "--alg", "spm"], ["run", "--alg", "rpm"],
                    ["run", "--alg", "ra-t"], ["run", "--alg", "ra-s"],
                    ["sweep", "--alg", "ra-t"]):
        code, out, err = run_cli(capsys, *command, "--graph", graph_file,
                                 "--intrinsics-file", intr_file, "--eval-sims", "10",
                                 "--l-override", "5", flag, value)
        assert code == 1 and out == ""
        errors.add(err)
    code, out, err = run_cli(capsys, "thresholds", "--n", "10", "--r", "0.5", flag, value)
    assert code == 1 and out == ""
    errors.add(err)
    assert len(errors) == 1
    assert errors.pop().startswith("error:")


# Edge values for every numeric flag: int flags draw from COUNTS, float
# flags from FLOATS.  --bigN and --k only take values that are refused.
FLOATS = ("0", "-1", "1e-300", "1e-155", "nan", "inf")
COUNTS = ("0", "-1", str(2 ** 41))
NETWORK_FLAGS = {"--ic-p": FLOATS, "--price": FLOATS, "--coupon-frac": FLOATS,
                 "--seed": COUNTS, "--threads": COUNTS}
SELECT_FLAGS = {"--eps": FLOATS, "--bigN": FLOATS, "--k": COUNTS, "--eps3": FLOATS,
                "--plateau-pct": FLOATS, "--max-ra": COUNTS, "--l-override": COUNTS,
                "--fixed-size": COUNTS, "--eval-sims": COUNTS}
EDGE_FLAGS = {
    "run": {**NETWORK_FLAGS, **SELECT_FLAGS},
    "sweep": {**NETWORK_FLAGS, **SELECT_FLAGS},
    "evaluate": {**NETWORK_FLAGS, "--eval-sims": COUNTS},
    "oracle": NETWORK_FLAGS,
    "thresholds": {"--n": COUNTS, "--bigN": FLOATS, "--eps": FLOATS, "--r": FLOATS,
                   "--k": COUNTS, "--eps3": FLOATS, "--eps1": FLOATS, "--eps2": FLOATS},
    "ingest-check": {"--price": FLOATS, "--coupon-frac": FLOATS},
}
# flags every case of a command starts from; drawn flags replace them, and
# the sample counts stay small so that an accepted case ends in about a second
EDGE_BASE = {
    "run": {"--l-override": "20", "--max-ra": "500", "--eval-sims": "20"},
    "sweep": {"--l-override": "20", "--max-ra": "500", "--eval-sims": "20"},
    "evaluate": {"--seed-set": "1,2", "--eval-sims": "20"},
    "oracle": {"--seed-set": "1", "--optimum": None},
    "thresholds": {"--n": "10", "--r": "0.5"},
    "ingest-check": {},
}


@st.composite
def _edge_case(draw):
    command = draw(st.sampled_from(sorted(EDGE_FLAGS)))
    flags = dict(EDGE_BASE[command])
    if command in ("run", "sweep"):
        flags["--alg"] = draw(st.sampled_from(sorted(SELECTORS)))
    table = EDGE_FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(table)), max_size=3, unique=True)):
        flags[flag] = draw(st.sampled_from(table[flag]))
    return command, flags


def _strict_loads(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@given(case=_edge_case())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_edge_values_exit_cleanly(capsys, tmp_path, case):
    command, flags = case
    graph = tmp_path / "ten.txt"
    graph.write_text("".join(f"{v} {v % 10 + 1}\n" for v in range(1, 11)) + "1 6\n")
    intr = tmp_path / "ten-intr.txt"
    intr.write_text("0.9\n" * 10)
    argv = [command]
    if command != "thresholds":
        argv += ["--graph", str(graph)]
    if command == "ingest-check":
        argv += ["--intrinsics-file", str(intr)]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1), (argv, err)
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.startswith("error:"), (argv, err)
        return
    if command == "sweep":
        docs = [_strict_loads(line) for line in out.splitlines()]
        assert len(docs) == len(cli.SWEEP_PRICES)
    else:
        docs = [_strict_loads(out)]
    if command in ("run", "sweep", "evaluate"):
        for doc in docs:
            validate_report(doc)

import json

import pytest

from profitmax import validate_report
from profitmax.cli import main


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

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "ingest-check", "--graph",
                               str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error:" in err


class TestRun:
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
        (["--alg", "ra-t", "--eval-sims", "0"], "at least one simulation"),
    ])
    def test_zero_counts_fail_cleanly(self, capsys, graph_file, intr_file,
                                      extra, message):
        code, out, err = run_cli(
            capsys, "run", "--graph", graph_file, "--intrinsics-file",
            intr_file, *(["--eval-sims", "10"] + extra))
        assert code == 1
        assert out == ""
        assert message in err

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

    def test_unknown_node_fails(self, capsys, graph_file, intr_file):
        code, _, err = run_cli(
            capsys, "evaluate", "--graph", graph_file, "--intrinsics-file",
            intr_file, "--seed-set", "99", "--eval-sims", "50")
        assert code == 1
        assert "99" in err


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

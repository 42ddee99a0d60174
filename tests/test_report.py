import json

import pytest

from profitmax import (ReportError, RunReport, build_report,
                       estimate_profit_simulation, validate_report)


def sample_report(net):
    est = estimate_profit_simulation(net, [0], 50, 1)
    return build_report("spm", {"eps": 0.4}, net, [0], est, 12,
                        {"simulations": 400})


class TestRoundTrip:
    def test_json_round_trip(self, two_node_net):
        rep = sample_report(two_node_net)
        data = json.loads(rep.to_json())
        validate_report(data)
        assert RunReport(**data) == rep

    def test_missing_sample_kinds_default_to_zero(self, two_node_net):
        rep = sample_report(two_node_net)
        assert rep.sample_counts == {"simulations": 400, "realizations": 0,
                                     "ra_sets": 0}

    def test_seed_labels_sorted(self, two_node_net):
        est = estimate_profit_simulation(two_node_net, [1, 0], 50, 1)
        rep = build_report("spm", {}, two_node_net, [1, 0], est, 1,
                           {"simulations": 1})
        assert rep.seed_set == [1, 2]

    def test_json_is_sorted_and_indented(self, two_node_net):
        text = sample_report(two_node_net).to_json()
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert text.startswith("{\n  ")


class TestValidation:
    def test_valid_report_passes(self, two_node_net):
        validate_report(sample_report(two_node_net).to_dict())

    def test_seed_count_mismatch(self, two_node_net):
        data = sample_report(two_node_net).to_dict()
        data["seed_count"] = 2
        with pytest.raises(ReportError, match="seed_count"):
            validate_report(data)

    def test_unknown_field_strict_only(self, two_node_net):
        data = sample_report(two_node_net).to_dict()
        data["vibes"] = "good"
        with pytest.raises(ReportError, match="unknown"):
            validate_report(data, strict=True)
        validate_report(data, strict=False)

    def test_missing_field_always_fails(self, two_node_net):
        data = sample_report(two_node_net).to_dict()
        del data["wall_time_ms"]
        with pytest.raises(ReportError, match="missing"):
            validate_report(data, strict=False)

    def test_profit_consistency_enforced(self, two_node_net):
        data = sample_report(two_node_net).to_dict()
        data["estimated_profit"]["value"] += 0.5
        with pytest.raises(ReportError, match="inconsistent"):
            validate_report(data)

    def test_negative_sample_count_rejected(self, two_node_net):
        data = sample_report(two_node_net).to_dict()
        data["sample_counts"]["ra_sets"] = -1
        with pytest.raises(ReportError, match="ra_sets"):
            validate_report(data)

    def test_bool_seed_count_rejected(self, two_node_net):
        data = sample_report(two_node_net).to_dict()
        data["seed_set"] = [1]
        data["seed_count"] = True
        with pytest.raises(ReportError, match="integer"):
            validate_report(data)

    def test_non_object_rejected(self):
        with pytest.raises(ReportError):
            validate_report([1, 2, 3])


class TestNonFinite:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_to_json_rejects_non_finite(self, two_node_net, value):
        rep = sample_report(two_node_net)
        rep.parameters["plateau_pct"] = value
        with pytest.raises(ReportError, match="parameters.plateau_pct"):
            rep.to_json()

    @pytest.mark.parametrize("path", [("parameters", "eps"),
                                      ("estimated_profit", "mean_adopters"),
                                      ("network_summary", "price")])
    def test_validate_rejects_non_finite(self, two_node_net, path):
        data = sample_report(two_node_net).to_dict()
        data[path[0]][path[1]] = float("nan")
        with pytest.raises(ReportError, match="finite"):
            validate_report(data)

    def test_validate_rejects_non_finite_in_lists(self, two_node_net):
        data = sample_report(two_node_net).to_dict()
        data["parameters"]["sweep"] = [[1, 0.5], [2, float("inf")]]
        with pytest.raises(ReportError, match=r"sweep\.1\.1 must"):
            validate_report(data)

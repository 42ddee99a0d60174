"""Machine-readable run reports.

One report per algorithm run, serialized as a single JSON object.  The
schema is fixed: validation rejects unknown fields in strict mode and
numbers JSON cannot hold (nan, infinities), and checks that the reported
profit is consistent with the reported adopter mean and seed count.
"""

import json
import math
from dataclasses import asdict, dataclass


class ReportError(ValueError):
    pass


_PROFIT_KEYS = {"value", "mean_adopters", "estimator_kind", "sample_count"}
_SAMPLE_KEYS = {"simulations", "realizations", "ra_sets"}
_NETWORK_KEYS = {"n", "m", "price", "coupon", "discount_ratio", "model"}
_TOP_KEYS = {"algorithm", "parameters", "seed_set", "seed_count",
             "estimated_profit", "wall_time_ms", "sample_counts",
             "network_summary"}


@dataclass
class RunReport:
    algorithm: str
    parameters: dict
    seed_set: list
    seed_count: int
    estimated_profit: dict
    wall_time_ms: int
    sample_counts: dict
    network_summary: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        # json.dumps only reads the fields: to_dict's deep copy is not needed
        return strict_json(vars(self), "report", indent)


def _check_keys(data: dict, required: set, where: str, strict: bool):
    missing = required - set(data)
    if missing:
        raise ReportError(f"{where}: missing fields {sorted(missing)}")
    if strict:
        unknown = set(data) - required
        if unknown:
            raise ReportError(f"{where}: unknown fields {sorted(unknown)}")


def _check_finite(value, where: str):
    """Raise ReportError at the first nan or infinity inside value."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ReportError(f"{where} must be finite, got {value}")
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        _check_finite(item, f"{where}.{key}")


def strict_json(data, where: str, indent: int = 2) -> str:
    """data as JSON with sorted keys, or a ReportError at the first nan or
    infinity.  Every JSON document of the CLI is written here."""
    try:
        return json.dumps(data, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError:
        # json names no path: walk the document for the value it refused
        _check_finite(data, where)
        raise


def validate_report(data: dict, strict: bool = True):
    """Schema and consistency check; raises ReportError on any problem."""
    if not isinstance(data, dict):
        raise ReportError("report must be a JSON object")
    _check_finite(data, "report")
    _check_keys(data, _TOP_KEYS, "report", strict)
    if not isinstance(data["algorithm"], str):
        raise ReportError("algorithm must be a string")
    if not isinstance(data["parameters"], dict):
        raise ReportError("parameters must be an object")
    if not isinstance(data["seed_set"], list):
        raise ReportError("seed_set must be a list")
    if not isinstance(data["seed_count"], int) or isinstance(data["seed_count"], bool):
        raise ReportError("seed_count must be an integer")
    if data["seed_count"] != len(data["seed_set"]):
        raise ReportError("seed_count does not match seed_set length")
    if not isinstance(data["wall_time_ms"], int):
        raise ReportError("wall_time_ms must be an integer")
    _check_keys(data["estimated_profit"], _PROFIT_KEYS, "estimated_profit", strict)
    _check_keys(data["sample_counts"], _SAMPLE_KEYS, "sample_counts", strict)
    _check_keys(data["network_summary"], _NETWORK_KEYS, "network_summary", strict)
    for key in _SAMPLE_KEYS:
        count = data["sample_counts"][key]
        if not isinstance(count, int) or count < 0:
            raise ReportError(f"sample_counts.{key} must be a nonnegative integer")
    prof = data["estimated_profit"]
    summ = data["network_summary"]
    expected = summ["price"] * prof["mean_adopters"] - summ["coupon"] * data["seed_count"]
    if abs(prof["value"] - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ReportError(
            f"estimated profit {prof['value']} is inconsistent with "
            f"price * adopters - coupon * seeds = {expected}")


def build_report(algorithm: str, parameters: dict, net, members,
                 profit_estimate, wall_time_ms: int, sample_counts: dict) -> RunReport:
    """Assemble a report from a finished run."""
    return RunReport(
        algorithm=algorithm,
        parameters=dict(parameters),
        seed_set=net.labels_of(members),
        seed_count=len(set(members)),
        estimated_profit={
            "value": profit_estimate.mean_profit,
            "mean_adopters": profit_estimate.mean_adopters,
            "estimator_kind": profit_estimate.estimator_kind,
            "sample_count": profit_estimate.sample_count,
        },
        wall_time_ms=int(wall_time_ms),
        sample_counts={key: int(sample_counts.get(key, 0)) for key in _SAMPLE_KEYS},
        network_summary={
            "n": net.n, "m": net.m, "price": net.price, "coupon": net.coupon,
            "discount_ratio": net.discount_ratio, "model": net.params.model,
        },
    )

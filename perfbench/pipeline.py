"""One selection through the library, in the order `profitmax run` uses.

ingest_edge_list, generate_intrinsics, build_tc_network, the algorithm,
estimate_profit_simulation on the CLI's evaluation stream, build_report.
Phase boundaries are timed from outside the program.
"""

import json
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from profitmax import (DiffusionParams, build_report, build_tc_network,
                       estimate_profit_simulation, generate_intrinsics,
                       ingest_edge_list, ra_s, ra_t, rpm, spm, validate_report)
from profitmax.cli import main as cli_main

from workloads import EPS, WORKERS

# Same tag as the CLI: keeps evaluation draws apart from selection draws.
EVAL_STREAM_TAG = 0x45564153
# CLI defaults for the flags the benchmark does not set.
K, EPS3, PLATEAU_PCT = 5, 0.1, 2.0


@dataclass
class Outcome:
    """What a round keeps of one selection.  It holds no network, so
    rounds kept for their figures do not add to peak_rss_mib."""

    seed: int  # the program seed the selection ran with
    phases: dict  # setup, select, evaluate, report -> seconds
    nodes: int
    edges: int
    result: object
    report: object

    @property
    def profit(self) -> float:
        return self.report.estimated_profit["value"]


def build_network(sel, path, seed, tracer):
    with tracer.span("network.ingest"):
        g = ingest_edge_list(path)
    with tracer.span("network.intrinsics"):
        intr = generate_intrinsics(g, sel.price, sel.coupon, seed)
    with tracer.span("network.build"):
        return build_tc_network(g, DiffusionParams(sel.model, sel.ic_p),
                                sel.price, sel.coupon, intr)


def _select(sel, net, seed):
    if sel.alg == "spm":
        return spm(net, eps=EPS, l_override=sel.l_override, seed=seed,
                   workers=WORKERS)
    if sel.alg == "rpm":
        return rpm(net, eps=EPS, l_override=sel.l_override, seed=seed,
                   workers=WORKERS)
    if sel.alg == "ra-t":
        return ra_t(net, eps=EPS, max_ra=sel.max_ra, seed=seed, workers=WORKERS)
    if sel.alg == "ra-s":
        return ra_s(net, eps=EPS, k=K, eps3=EPS3, plateau_pct=PLATEAU_PCT,
                    seed=seed, workers=WORKERS)
    raise ValueError(f"unknown algorithm {sel.alg!r}")


def run_selection(sel, path, seed, tracer) -> Outcome:
    t0 = time.perf_counter()
    net = build_network(sel, path, seed, tracer)
    t1 = time.perf_counter()
    with tracer.span("algorithms.select"):
        result = _select(sel, net, seed)
    t2 = time.perf_counter()
    with tracer.span("diffusion.simulate"):
        est = estimate_profit_simulation(
            net, result.members, sel.eval_sims,
            np.random.SeedSequence([seed, EVAL_STREAM_TAG]), WORKERS)
    tracer.count("diffusion.sims", sel.eval_sims)
    t3 = time.perf_counter()
    with tracer.span("report.build"):
        counts = dict(result.sample_counts)
        counts["simulations"] = counts.get("simulations", 0) + sel.eval_sims
        parameters = {
            "graph": path, "undirected": False, "model": sel.model,
            "price": sel.price, "coupon_frac": sel.coupon_frac,
            "ic_p": sel.ic_p, "intrinsics_file": None, "rng_seed": seed,
            "threads": WORKERS, "alg": sel.alg, "eps": EPS, "big_n": None,
            "k": K, "eps3": EPS3, "plateau_pct": PLATEAU_PCT,
            "max_ra": sel.max_ra, "l_override": sel.l_override,
            "eval_sims": sel.eval_sims, "samples_used": result.l}
        report = build_report(sel.alg, parameters, net, result.members, est,
                              round((t3 - t1) * 1000.0), counts)
        report.to_json()
    t4 = time.perf_counter()
    phases = {"setup": t1 - t0, "select": t2 - t1, "evaluate": t3 - t2,
              "report": t4 - t3}
    return Outcome(seed, phases, net.n, net.m, result, report)


def check(outcome: Outcome, require_nonnegative: bool, tracer) -> list:
    """Reasons the selection is wrong; empty when it passes."""
    problems = []
    with tracer.span("report.validate"):
        try:
            validate_report(json.loads(outcome.report.to_json()))
        except ValueError as exc:
            problems.append(f"report rejected: {exc}")
    n = outcome.nodes
    if not all(isinstance(v, numbers.Integral) and 0 <= v < n
               for v in outcome.result.members):
        problems.append("seed set holds ids outside the pruned network")
    profit = outcome.profit
    if not math.isfinite(profit):
        problems.append(f"profit {profit} is not finite")
    elif require_nonnegative and profit < 0.0:
        problems.append(f"profit {profit} is negative")
    return problems


def cli_args(sel, path, seed, out) -> list:
    args = ["run", "--graph", path, "--model", sel.model, "--ic-p", repr(sel.ic_p),
            "--price", repr(sel.price), "--coupon-frac", repr(sel.coupon_frac),
            "--seed", str(seed), "--threads", str(WORKERS), "--alg", sel.alg,
            "--eps", repr(EPS), "--eval-sims", str(sel.eval_sims), "--out", out]
    if sel.max_ra is not None:
        args += ["--max-ra", str(sel.max_ra)]
    if sel.l_override is not None:
        args += ["--l-override", str(sel.l_override)]
    return args


def cli_parity(sel, path, outcome: Outcome, out, tracer) -> list:
    """Run `profitmax run` in-process; it must pick what the library did."""
    with tracer.span("cli.run"):
        code = cli_main(cli_args(sel, path, outcome.seed, out))
    if code != 0:
        return [f"profitmax run exited with {code}"]
    with open(out) as fh:
        cli_report = json.load(fh)
    problems = []
    for key in ("seed_set", "sample_counts"):
        mine = getattr(outcome.report, key)
        if cli_report[key] != mine:
            problems.append(f"cli {key} {cli_report[key]} != library {mine}")
    return problems

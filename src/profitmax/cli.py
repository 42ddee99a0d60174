"""Command-line interface.

Subcommands:

    ingest-check   parse a graph and report its shape
    run            select seeds with one algorithm and evaluate them
    evaluate       evaluate a given seed set by simulation
    oracle         exact profit / exhaustive optimum on tiny instances
    thresholds     print the sample-count thresholds for a parameter point
    sweep          run one algorithm across the price grid

Reports go to stdout (or --out) as JSON; everything diagnostic goes to
stderr.  Exit code 0 means a report was produced.
"""

import argparse
import csv
import inspect
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .algorithms import ALGORITHMS, MemoryBudgetError, rat_size
from .bounds import (confidence, delta0, delta1, delta1_star, delta2, delta2_star,
                     delta3, solve_ras_params)
from .diffusion import EVAL_SIMULATIONS, estimate_profit_simulation, sample_count
from .exact import OracleSizeError, best_seed_set, exact_pi, exact_profit, profit_table
from .network import (DiffusionParams, NetworkError, ParameterError, adoptable,
                      build_tc_network, generate_intrinsics, ingest_edge_list,
                      load_intrinsics, load_network_config)
from .report import ReportError, build_report, strict_json
from .selectors import SELECTORS

_EVAL_STREAM_TAG = 0x45564153  # keeps evaluation draws apart from selection draws
_COUPON_FRAC = 0.9  # --coupon-frac when neither it nor a config file sets one


def _add_network_args(p: argparse.ArgumentParser):
    p.add_argument("--graph", required=True, help="edge list file (SNAP format)")
    p.add_argument("--undirected", action="store_true",
                   help="treat each input edge as bidirectional")
    p.add_argument("--config", help="key-value network config file")
    p.add_argument("--model", choices=["ic-cp", "ic-wc", "lt"], default=None)
    p.add_argument("--ic-p", type=float, default=None,
                   help="edge probability for ic-cp (default 0.01)")
    p.add_argument("--price", type=float, default=None, help="product price in (0,1]")
    p.add_argument("--coupon-frac", type=float, default=None,
                   help=f"coupon as a fraction of the price (default {_COUPON_FRAC})")
    p.add_argument("--intrinsics-file", help="one intrinsic value per line")
    p.add_argument("--seed", type=int, default=None, help="rng seed (default 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="echoed in the report (default: available cores); "
                        "no result depends on it")


def _default(param):
    """The default of param in the signatures of the registered algorithms
    that take it.  One flag sets it for all of them, so they must agree."""
    signatures = (inspect.signature(fn).parameters for fn in ALGORITHMS.values())
    defaults = {sig[param].default for sig in signatures if param in sig}
    if len(defaults) != 1:
        raise ValueError(f"the algorithms disagree on the default {param}: {defaults}")
    return defaults.pop()


def _add_accuracy_args(p: argparse.ArgumentParser):
    """The flags run, sweep and thresholds share."""
    p.add_argument("--eps", type=float, default=_default("eps"),
                   help="accuracy (default %(default)s)")
    p.add_argument("--bigN", type=float, default=None,
                   help="confidence parameter N (default: node count)")
    p.add_argument("--k", type=int, default=_default("k"),
                   help="doubling rounds budget (ra-s, default %(default)s)")
    p.add_argument("--eps3", type=float, default=_default("eps3"),
                   help="stopping slack (ra-s, default %(default)s)")


def _add_alg_args(p: argparse.ArgumentParser):
    p.add_argument("--alg", choices=SELECTORS, required=True)
    _add_accuracy_args(p)
    p.add_argument("--plateau-pct", type=float, default=_default("plateau_pct"),
                   help="early return when the estimate drops less than this "
                        "percent (ra-s, default %(default)s)")
    p.add_argument("--max-ra", type=int, default=None, help="cap on RA sets")
    p.add_argument("--l-override", type=int, default=None,
                   help="fixed sample count for spm/rpm")
    p.add_argument("--fixed-size", type=int, default=None,
                   help="single seed size for maxinf instead of the sweep")


def _check_pricing(price, frac):
    """The ranges of --price and --coupon-frac, as every command checks them."""
    if not (0.0 < price <= 1.0):
        raise ParameterError(f"price must lie in (0, 1], got {price}")
    if not (0.0 <= frac < 1.0):
        raise ParameterError(f"coupon fraction must lie in [0, 1), got {frac}")


def _resolve(args, prices=None):
    """Merge config file values under explicit flags, then apply defaults.
    prices, when given, replaces the resolved price (sweep's grid)."""
    cfg = load_network_config(args.config) if args.config else {}
    model = args.model if args.model is not None else cfg.get("model", "ic-cp")
    price = args.price if args.price is not None else cfg.get("price", 0.5)
    frac = args.coupon_frac if args.coupon_frac is not None \
        else cfg.get("coupon-fraction", _COUPON_FRAC)
    ic_p = args.ic_p if args.ic_p is not None else cfg.get("ic-probability", 0.01)
    seed = args.seed if args.seed is not None else cfg.get("rng-seed", 0)
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    prices = [float(p) for p in prices or [price]]
    for p in prices:
        _check_pricing(p, frac)
    if seed < 0:
        source = "--seed" if args.seed is not None else "rng-seed"
        raise ParameterError(f"{source} must be a non-negative integer, got {seed}")
    return model, prices, float(frac), float(ic_p), int(seed), max(1, int(threads))


def _networks(args, prices=None):
    """Read the input files once and yield, at each price, the network,
    the parameters the report echoes, and the seed."""
    model, prices, frac, ic_p, seed, threads = _resolve(args, prices)
    g = ingest_edge_list(args.graph, undirected=args.undirected)
    intr = load_intrinsics(args.intrinsics_file, g.n) if args.intrinsics_file else None
    params = DiffusionParams(model=model, ic_probability=ic_p)
    for price in prices:
        coupon = frac * price
        net = build_tc_network(g, params, price, coupon, intr if intr is not None
                               else generate_intrinsics(g, price, coupon, seed))
        echo = {"graph": args.graph, "undirected": bool(args.undirected),
                "model": model, "price": price, "coupon_frac": frac,
                "ic_p": ic_p, "intrinsics_file": args.intrinsics_file,
                "rng_seed": seed, "threads": threads}
        yield net, echo, seed


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_seed_labels(text):
    if text is None or text.strip() in ("", "-"):
        return []
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"seed set must be a comma list of node ids: {text!r}")


def _ids_from_labels(net, labels):
    ids, seen = [], set()
    for lab in labels:
        try:
            v = net.graph.id_of(lab)
        except KeyError:
            raise ParameterError(
                f"node {lab} is not in the network (absent or pruned)")
        if v in seen:
            raise ParameterError(f"node {lab} appears more than once in the seed set")
        seen.add(v)
        ids.append(v)
    return ids


# the run/sweep flags whose names differ from the parameters they set
_FLAG_OF = {"big_n": "bigN", "eval_simulations": "eval_sims"}


def _report(args, algorithm, built, start, members, counts, parameters):
    """The step run, sweep and evaluate share: args.eval_sims forward runs
    of members, added to counts, and the report, timed from start, whose
    parameters are the echo of built = (net, echo, seed) plus parameters."""
    net, echo, seed = built
    eval_ss = np.random.SeedSequence([seed, _EVAL_STREAM_TAG])
    est = estimate_profit_simulation(net, members, args.eval_sims, eval_ss)
    wall_ms = round((time.perf_counter() - start) * 1000.0)
    counts = {**counts, "simulations": counts.get("simulations", 0) + args.eval_sims}
    return build_report(algorithm, {**echo, **parameters, "eval_sims": args.eval_sims},
                        net, members, est, wall_ms, counts)


def _run_once(args, built):
    """Run the --alg algorithm with each of its parameters that has a flag
    and the resolved seed, the rest at the algorithm's defaults, and
    report its seeds."""
    net, _, seed = built
    sample_count(args.eval_sims, "eval_sims")  # before selecting
    start = time.perf_counter()
    selector = SELECTORS[args.alg]
    params = {name: getattr(args, _FLAG_OF.get(name, name))
              for name in selector().get_params()
              if hasattr(args, _FLAG_OF.get(name, name))}
    result = selector(**{**params, "seed": seed}).fit(net).selection_
    return _report(args, args.alg, built, start, result.members, result.sample_counts,
                   {"alg": args.alg, "eps": args.eps, "big_n": args.bigN, "k": args.k,
                    "eps3": args.eps3, "plateau_pct": args.plateau_pct,
                    "max_ra": args.max_ra, "l_override": args.l_override,
                    "fixed_size": args.fixed_size, "samples_used": result.l})


def cmd_run(args) -> int:
    _emit(_run_once(args, next(_networks(args))).to_json(), args.out)
    return 0


def cmd_evaluate(args) -> int:
    sample_count(args.eval_sims, "eval_sims")
    built = next(_networks(args))
    ids = _ids_from_labels(built[0], _parse_seed_labels(args.seed_set))
    report = _report(args, "evaluate", built, time.perf_counter(), ids, {},
                     {"seed_set": args.seed_set})
    _emit(report.to_json(), args.out)
    return 0


def cmd_oracle(args) -> int:
    net = next(_networks(args))[0]
    out = {"network": {"n": net.n, "m": net.m, "price": net.price,
                       "coupon": net.coupon, "model": net.params.model}}
    if args.seed_set is not None:
        ids = _ids_from_labels(net, _parse_seed_labels(args.seed_set))
        out["exact"] = {"seed_set": net.labels_of(ids),
                        "adopters": exact_pi(net, ids),
                        "profit": exact_profit(net, ids)}
    if args.optimum:
        table = profit_table(net)
        members, value = best_seed_set(net, table)
        out["optimum"] = {"seed_set": net.labels_of(members), "profit": value}
    if "exact" not in out and "optimum" not in out:
        raise ParameterError("oracle needs --seed-set and/or --optimum")
    _emit(strict_json(out, "oracle"), args.out)
    return 0


def cmd_thresholds(args) -> int:
    n, eps, r, big_n = args.n, args.eps, args.r, confidence(args.n, args.bigN)
    out = {"inputs": {"n": n, "bigN": big_n, "eps": eps, "r": r,
                      "k": args.k, "eps3": args.eps3},
           "delta0": delta0(n, big_n, eps, r)}
    try:
        eps1, eps2, l = rat_size(n, big_n, eps, r)
        out["rat"] = {"eps1": eps1, "eps2": eps2,
                      "delta1": delta1(n, big_n, eps1, r),
                      "delta2": delta2(big_n, eps2, r), "l": l}
    except ParameterError as exc:
        out["rat"] = {"error": str(exc)}
    try:
        ras = asdict(solve_ras_params(n, big_n, eps, r, args.k, args.eps3))
        out["ras"] = {key: ras[key] for key in ras if key not in ("eps3", "k")}
    except ParameterError as exc:
        out["ras"] = {"error": str(exc)}
    if args.eps1 is not None or args.eps2 is not None:
        raw = {}
        if args.eps1 is not None:
            raw["delta1"] = delta1(n, big_n, args.eps1, r)
            raw["delta1_star"] = delta1_star(n, big_n, args.eps1, r)
            raw["delta3"] = delta3(big_n, args.eps1, r)
        if args.eps2 is not None:
            raw["delta2"] = delta2(big_n, args.eps2, r)
            raw["delta2_star"] = delta2_star(big_n, args.eps2, r)
        out["raw"] = raw
    _emit(strict_json(out, "thresholds"), args.out)
    return 0


def cmd_ingest_check(args) -> int:
    g = ingest_edge_list(args.graph, undirected=args.undirected)
    out = {"nodes": g.n, "edges": g.m,
           "max_out_degree": int(np.diff(g.out_indptr).max()),
           "max_in_degree": int(np.diff(g.in_indptr).max())}
    if args.price is not None and args.intrinsics_file:
        frac = args.coupon_frac if args.coupon_frac is not None else _COUPON_FRAC
        _check_pricing(args.price, frac)
        intr = load_intrinsics(args.intrinsics_file, g.n)
        retained = int(np.count_nonzero(adoptable(intr, args.price, frac * args.price)))
        out["pruned_nodes"] = g.n - retained
        out["retained_nodes"] = retained
    _emit(strict_json(out, "ingest-check"), args.out)
    return 0


SWEEP_PRICES = (0.2, 0.3, 0.4, 0.5, 0.6)


def cmd_sweep(args) -> int:
    lines = []
    rows = []
    for price, built in zip(SWEEP_PRICES, _networks(args, SWEEP_PRICES)):
        report = _run_once(args, built)
        lines.append(report.to_json(indent=None))
        rows.append({"price": price, "algorithm": report.algorithm,
                     "seed_count": report.seed_count,
                     "estimated_profit": report.estimated_profit["value"],
                     "mean_adopters": report.estimated_profit["mean_adopters"],
                     "wall_time_ms": report.wall_time_ms,
                     "simulations": report.sample_counts["simulations"],
                     "realizations": report.sample_counts["realizations"],
                     "ra_sets": report.sample_counts["ra_sets"]})
    _emit("\n".join(lines), args.out)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profitmax",
        description="Seed selection for coupon-driven profit maximization")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="parse and summarize a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--price", type=float, default=None)
    p.add_argument("--coupon-frac", type=float, default=None)
    p.add_argument("--intrinsics-file")
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("run", help="run one selection algorithm")
    _add_network_args(p)
    _add_alg_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="evaluate a given seed set")
    _add_network_args(p)
    p.add_argument("--seed-set", required=True,
                   help="comma-separated node ids; empty string for the empty set")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oracle", help="exact profit on a tiny instance")
    _add_network_args(p)
    p.add_argument("--seed-set", default=None)
    p.add_argument("--optimum", action="store_true",
                   help="exhaustive search for the best seed set")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("thresholds", help="print sample-count thresholds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    _add_accuracy_args(p)
    p.add_argument("--eps1", type=float, default=None,
                   help="also print raw thresholds at this eps1")
    p.add_argument("--eps2", type=float, default=None,
                   help="also print raw thresholds at this eps2")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("sweep", help="run one algorithm across the price grid")
    _add_network_args(p)
    _add_alg_args(p)
    p.add_argument("--csv", help="also write a CSV summary here")
    p.set_defaults(func=cmd_sweep)

    for name in ("run", "evaluate", "sweep"):
        sub.choices[name].add_argument(
            "--eval-sims", type=int, default=EVAL_SIMULATIONS,
            help="forward runs that evaluate the seeds (default %(default)s)")
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetworkError, ParameterError, OracleSizeError, MemoryBudgetError,
            ReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

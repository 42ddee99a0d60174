"""Benchmark of profitmax seed selection.

    python3 perfbench/run.py --workload rat-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from src/ there.
The workload's edge lists are generated from --seed into a scratch
directory inside the checkout before timing starts.  One round makes every
selection of the workload the way `profitmax run` would, with a --seed
derived from the workload seed, and checks each one.  A checked, untimed
warm-up round comes first; timed rounds then repeat until --seconds is
used up.  Timings are medians over the timed rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, then runs `profitmax run` in-process once per selection, and
prints the per-layer metrics.  The line before the result holds machine
info, parameters, per-round figures and the span table.  The last line is
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy

from spans import NullTracer, Tracer, instrument, span_table
from workloads import WORKERS, WORKLOADS, program_seed, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# extra set-ups timed before each timed round, so that setup_s is a median
# of many samples spread over the whole run, like the other timings
SETUP_REPS, SETUP_SECONDS = 2, 0.25
# an untraced run reports medians of at least this many rounds, even when
# a round is longer than --seconds
MIN_ROUNDS = 2
# rounds run and checked before timing starts, so that first-call costs
# (imports inside the program, allocator growth) stay out of the medians
WARMUP_ROUNDS = 1
LAYERS = ("network", "sampling", "diffusion", "greedy", "algorithms",
          "bounds", "report")
# Figures printed only on the line before the result, because some
# workloads lack them (the oracle-small ones) or they read 0 there
# (realization sampling runs only in rpm).
OTHER_UNITS = {"report_s": "s", "spm_select_s": "s", "rpm_select_s": "s",
               "opt_ratio": "ratio", "algorithms.realization_s": "s"}


def load_program():
    """Import profitmax from this checkout's src/, never from elsewhere."""
    package = SRC / "profitmax"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no profitmax sources at {package}")
    sys.path.insert(0, str(SRC))
    import profitmax
    if Path(profitmax.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: profitmax imported from {profitmax.__file__}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "profitmax").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_info(seed: int) -> dict:
    # os.uname, not platform.platform, which runs `uname -p` in a subprocess
    u = os.uname()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "os": f"{u.sysname} {u.release} {u.machine}", "commit": git_commit(),
            "source_sha256": source_digest(), "seed": seed}


def peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Round:
    """Every selection of a workload once, with its checks."""

    def __init__(self, workload, paths, seed, exact_tables):
        self.workload = workload
        self.paths = paths
        self.seed = seed
        self.exact_tables = exact_tables  # selection index -> profit table
        self.outcomes = []
        self.problems = []  # (selection index, reason)
        self.exact = []  # (profit of the chosen set, optimum)

    def run(self, tracer):
        from pipeline import check, run_selection

        large = self.workload.exact_max_nodes == 0
        for i, sel in enumerate(self.workload.selections):
            try:
                outcome = run_selection(sel, self.paths[sel.graph],
                                        program_seed(self.seed, i), tracer)
                for reason in check(outcome, large, tracer):
                    self.problems.append((i, reason))
                if outcome.nodes <= self.workload.exact_max_nodes:
                    self.score_exactly(i, outcome)
                self.outcomes.append((sel, outcome))
            except Exception as exc:  # an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                self.problems.append((i, f"raised {exc!r}"))
        return self

    def score_exactly(self, i, outcome):
        table = self.exact_tables.get(i)
        if table is None:
            self.problems.append((i, "no exact profit table for this network"))
            return
        mask = sum(1 << v for v in outcome.result.members)
        self.exact.append((float(table[mask]), float(table.max())))

    def phase(self, name, alg=None) -> float:
        return sum(o.phases[name] for sel, o in self.outcomes
                   if alg is None or sel.alg == alg)

    def figures(self) -> dict:
        out = {p + "_s": self.phase(p)
               for p in ("setup", "select", "evaluate", "report")}
        out["run_s"] = sum(out.values())
        out["profit"] = sum(o.profit for _, o in self.outcomes)
        if self.workload.exact_max_nodes:
            out["spm_select_s"] = self.phase("select", "spm")
            out["rpm_select_s"] = self.phase("select", "rpm")
            if self.exact:
                got, opt = zip(*self.exact)
                out["opt_ratio"] = sum(got) / sum(opt)
        return out


def exact_tables(workload, paths, seed) -> dict:
    """Exact profit table of each selection's network, where it is small
    enough, computed before timing starts."""
    from pipeline import build_network
    from profitmax import profit_table

    tables = {}
    if workload.exact_max_nodes:
        for i, sel in enumerate(workload.selections):
            net = build_network(sel, paths[sel.graph], program_seed(seed, i),
                                NullTracer())
            if net.n <= workload.exact_max_nodes:
                # small chunks keep the reference oracle's memory out of
                # peak_rss_mib
                tables[i] = profit_table(net, chunk=512)
    return tables


def time_setups(workload, paths, seed) -> list:
    from pipeline import build_network

    samples = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(samples) < SETUP_REPS or time.perf_counter() < deadline:
        start = time.perf_counter()
        for i, sel in enumerate(workload.selections):
            build_network(sel, paths[sel.graph], program_seed(seed, i), NullTracer())
        samples.append(time.perf_counter() - start)
    return samples


def repeat_for(seconds, op, min_calls=1) -> list:
    """Call op at least min_calls times, then until the next call would
    likely end after `seconds`."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(op(len(results)))
        durations.append(time.perf_counter() - t)
        if len(results) >= min_calls and (
                time.perf_counter() - start + statistics.median(durations) > seconds):
            return results


def medians(dicts) -> dict:
    keys = dict.fromkeys(k for d in dicts for k in d)
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def layer_metrics(tracer, rnd) -> dict:
    """Per-layer figures of one traced round."""
    table = span_table(tracer.spans)

    def tot(name):
        return table.get(name, {}).get("total_s", 0.0)

    c = tracer.counts
    results = [o.result for _, o in rnd.outcomes]
    ra_results = [r for r in results if r.sample_counts.get("ra_sets")]
    ras = [o.result for sel, o in rnd.outcomes if sel.alg == "ra-s"]
    ra_drawn = sum(r.sample_counts["ra_sets"] for r in ra_results)
    ra_gen_s = tot("sampling.extend")
    sim_s = tot("diffusion.simulate")
    m = {
        "network.ingest_s": tot("network.ingest"),
        "network.build_s": tot("network.intrinsics")
        + tot("network.build"),
        "network.nodes": sum(o.nodes for _, o in rnd.outcomes),
        "network.edges": sum(o.edges for _, o in rnd.outcomes),
        "sampling.ra_gen_s": ra_gen_s,
        "sampling.ra_sets": ra_drawn,
        "sampling.ra_members": c["sampling.ra_members"],
        "sampling.ra_us_per_set": 1e6 * ra_gen_s / ra_drawn if ra_drawn else 0.0,
        "sampling.collection_mib": c["sampling.collection_bytes"] / (1 << 20),
        "sampling.index_s": tot("sampling.index"),
        "sampling.snapshot_s": tot("sampling.snapshot"),
        "algorithms.node_order_s": tot("algorithms.node_order"),
        "algorithms.probes": c["algorithms.probes"],
        "algorithms.rounds": sum(r.iterations for r in ras),
        "algorithms.check_sims": sum(r.sample_counts["simulations"] for r in ras),
        "algorithms.realization_s": tot("diffusion.sample_realization"),
        "algorithms.realizations": c["algorithms.realizations"],
        "algorithms.ra_used_ratio":
            sum(r.l for r in ra_results) / ra_drawn if ra_drawn else 0.0,
        "greedy.double_greedy_s": tot("greedy.double_greedy"),
        "greedy.seeds": c["greedy.seeds"],
        "greedy.evaluations": c["greedy.evaluations"],
        "diffusion.sim_s": sim_s,
        "diffusion.sims": c["diffusion.sims"],
        "diffusion.sim_us_per_run":
            1e6 * sim_s / c["diffusion.sims"] if c["diffusion.sims"] else 0.0,
        "diffusion.replays": c["diffusion.replays"],
        "bounds.solve_s": tot("bounds.solve"),
        "report.build_s": tot("report.build"),
        "report.validate_s": tot("report.validate"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row["self_s"] for name, row in table.items()
                                   if name.split(".", 1)[0] == layer)
    return m


def warm_up(workload, paths, seed, tables) -> list:
    return [Round(workload, paths, seed, tables).run(NullTracer())
            for _ in range(WARMUP_ROUNDS)]


def measure(workload, paths, seed, seconds, detail):
    tables = exact_tables(workload, paths, seed)
    warm = warm_up(workload, paths, seed, tables)
    setups = []

    def timed_round(i):
        setups.extend(time_setups(workload, paths, seed))
        return Round(workload, paths, seed, tables).run(NullTracer())

    rounds = repeat_for(seconds, timed_round, MIN_ROUNDS)
    figures = [r.figures() for r in rounds]
    setups += [f["setup_s"] for f in figures]
    metrics = medians(figures)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mib"] = peak_rss_mib()
    detail["setup_samples_s"] = setups
    detail["rounds"] = figures
    return warm + rounds, metrics


def measure_traced(workload, paths, seed, seconds, scratch, detail):
    from pipeline import cli_parity

    tables = exact_tables(workload, paths, seed)
    warm = warm_up(workload, paths, seed, tables)
    untraced, traced, layer_rows = [], [], []

    def pair(i):
        untraced.append(Round(workload, paths, seed, tables).run(NullTracer()))
        tracer = Tracer()
        tracer.run = i
        with instrument(tracer):
            rnd = Round(workload, paths, seed, tables).run(tracer)
        traced.append(rnd)
        layer_rows.append((tracer, layer_metrics(tracer, rnd)))

    repeat_for(seconds, pair)
    metrics = medians([m for _, m in layer_rows])
    metrics["trace.overhead_s"] = (
        statistics.median(r.figures()["run_s"] for r in traced)
        - statistics.median(r.figures()["run_s"] for r in untraced))

    cli_tracer = Tracer()
    problems = []
    outcomes = traced[0].outcomes
    for i, (sel, outcome) in enumerate(outcomes):
        out = os.path.join(scratch, f"cli-{i}.json")
        try:
            for reason in cli_parity(sel, paths[sel.graph], outcome, out,
                                     cli_tracer):
                problems.append((i, reason))
        except Exception as exc:  # a parity run that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            problems.append((i, f"cli raised {exc!r}"))
    metrics["cli.run_s"] = sum(s.duration for s in cli_tracer.spans)
    detail["spans"] = span_table(layer_rows[0][0].spans)
    detail["per_layer_rounds"] = [m for _, m in layer_rows]
    detail["parity_problems"] = problems
    return (warm + untraced + traced, metrics, len(outcomes),
            len({i for i, _ in problems}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, a nonnegative integer")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    detail = {"workload": workload.name, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(args.seed),
              "why": workload.why, "workers": WORKERS,
              "graphs": {name: asdict(shape) for name, shape in workload.graphs},
              "selections": [asdict(s) for s in workload.selections]}

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        paths = write_inputs(workload, args.seed, scratch)
        if args.trace:
            rounds, metrics, extra_ops, extra_failed = measure_traced(
                workload, paths, args.seed, args.seconds, scratch, detail)
        else:
            rounds, metrics = measure(workload, paths, args.seed, args.seconds, detail)
            extra_ops = extra_failed = 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = extra_ops + sum(len(workload.selections) for _ in rounds)
    failed = extra_failed + sum(len({i for i, _ in r.problems}) for r in rounds)
    detail["problems"] = sorted({reason for r in rounds for _, reason in r.problems})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = declared["per_layer" if args.trace else "end_to_end"]
    detail["other_metrics"] = {k: {"value": v, "unit": OTHER_UNITS[k]}
                               for k, v in metrics.items()
                               if k not in {m["name"] for m in named}}
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in named},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

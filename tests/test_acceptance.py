"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints
one summary line (visible under pytest -s; under -v the test row itself is
the pass/fail line).  Statistical checks use fixed seeds so reruns are
bit-for-bit reproducible.
"""

import hashlib
import json
import math
import random
import time

import numpy as np
import pytest

from profitmax import (FunctionOracle, delta0, delta1, delta1_star, delta2,
                       delta2_star, delta3, double_greedy,
                       estimate_profit_simulation, exact_pi, exact_profit,
                       generate_collection,
                       generate_intrinsics, high_degree, ingest_edge_list,
                       pi_table, profit_table, ra_s, ra_t, realization_count,
                       rpm, sample_realization, replay_on_realization,
                       search_rat_params, simulate_once, solve_ras_params, spm,
                       DiffusionParams, build_tc_network)
from profitmax.exact import mask_of

from conftest import make_net, random_edge_text


def _line(num, msg):
    print(f"[criterion {num:02d}] PASS: {msg}")


def table_safe_random_net(rng, n_max, model):
    """Random network small enough for the exhaustive subset oracle."""
    while True:
        n = rng.randint(2, n_max)
        m_cap = min(14, 2 * n) if model.startswith("ic") else 2 * n
        m = rng.randint(1, max(1, min(m_cap, n * (n - 1))))
        price = rng.uniform(0.3, 0.9)
        coupon = rng.uniform(0.05, price * 0.9)
        intr = [rng.uniform(price - coupon, 1.0) for _ in range(n)]
        try:
            net = make_net(random_edge_text(rng, n, m), model=model,
                           ic_p=rng.uniform(0.1, 0.9), price=price,
                           coupon=coupon, intrinsics=intr)
        except ValueError:
            continue
        if realization_count(net) <= 1 << 16:
            return net


def test_c01_nonmonotonicity_witness_exact_values():
    # one certain edge v1 -> v2, P = 0.5, C = 0.25, both nodes priced in:
    # f({v1}) = 2P - C and f({v1, v2}) = 2P - 2C, so the second coupon
    # strictly hurts
    start = time.perf_counter()
    net = make_net("1 2\n", ic_p=1.0, price=0.5, coupon=0.25,
                   intrinsics=[0.9, 0.9])
    f1 = exact_profit(net, [0])
    f12 = exact_profit(net, [0, 1])
    assert abs(f1 - 0.75) <= 1e-12
    assert abs(f12 - 0.5) <= 1e-12
    assert time.perf_counter() - start < 1.0
    _line(1, f"f(v1)={f1}, f(v1,v2)={f12} at 1e-12")


def test_c02_reverse_sample_estimator_unbiased():
    # 2-node chain at p = 0.5: pi({v1}) = 1.5 exactly; the scaled coverage
    # indicator n*x must match within 3 standard errors over 2e5 RA sets
    start = time.perf_counter()
    net = make_net("1 2\n", ic_p=0.5, price=0.5, coupon=0.25,
                   intrinsics=[0.9, 0.9])
    assert abs(exact_pi(net, [0]) - 1.5) <= 1e-12
    l = 200_000
    coll = generate_collection(net, l, 20260822)
    covered = int(len(coll.sets_containing(0)))
    p_hat = covered / l
    mean_nx = net.n * p_hat
    se = net.n * math.sqrt(p_hat * (1.0 - p_hat) / l)
    assert abs(mean_nx - 1.5) <= 3.0 * se, (mean_nx, se)
    assert time.perf_counter() - start < 10.0
    _line(2, f"mean nx={mean_nx:.4f} vs pi=1.5, 3se={3*se:.4f}, l={l}")


def test_c03_adoption_count_submodular():
    # exact pi marginals on every (S1 subset S2, v) pair, 20 random nets
    start = time.perf_counter()
    rng = random.Random(33)
    worst = 0.0
    for i in range(20):
        model = "ic-cp" if i % 2 == 0 else "lt"
        net = table_safe_random_net(rng, 7, model)
        tab = pi_table(net)
        n = net.n
        for t_mask in range(1 << n):
            outside = [v for v in range(n) if not t_mask >> v & 1]
            for v in outside:
                bit = 1 << v
                gain_t = tab[t_mask | bit] - tab[t_mask]
                s_mask = t_mask
                while True:
                    gain_s = tab[s_mask | bit] - tab[s_mask]
                    worst = max(worst, gain_t - gain_s)
                    if s_mask == 0:
                        break
                    s_mask = (s_mask - 1) & t_mask
        assert worst <= 1e-9, f"submodularity violated by {worst}"
    assert time.perf_counter() - start < 120.0
    _line(3, f"20 nets, worst marginal violation {worst:.2e} <= 1e-9")


def test_c04_double_greedy_half_ratio():
    # exact-oracle double greedy across 50 nets x 200 coin seeds: the mean
    # must reach half the enumerated optimum up to 3 standard errors
    start = time.perf_counter()
    rng = random.Random(44)
    for i in range(50):
        model = "ic-cp" if i % 2 == 0 else "lt"
        net = table_safe_random_net(rng, 10, model)
        tab = profit_table(net)
        opt = float(tab.max())
        values = []
        for trial in range(200):
            oracle = FunctionOracle(lambda sets: [float(tab[mask_of(s)]) for s in sets],
                                    range(net.n))
            got = double_greedy(oracle, range(net.n),
                                random.Random(1000 * i + trial))
            values.append(float(tab[mask_of(got)]))
        mean = sum(values) / len(values)
        sem = np.std(values, ddof=1) / math.sqrt(len(values)) if len(set(values)) > 1 else 0.0
        assert mean >= 0.5 * opt - 3.0 * sem - 1e-12, \
            f"net {i}: mean {mean} < opt/2 {opt / 2} - 3se {3 * sem}"
    assert time.perf_counter() - start < 600.0
    _line(4, "50 nets x 200 trials all reach mean >= opt/2 - 3se")


def _coverage_instance(rng):
    """Coverage-minus-cost submodular function over <= 10 elements."""
    n = rng.randint(6, 10)
    cover = []
    for v in range(n):
        items = {v} | {u for u in range(n) if rng.random() < 0.3}
        cover.append(frozenset(items))
    cost = rng.uniform(0.1, 0.7)

    def h(s):
        if not s:
            return 0.0
        union = set()
        for v in s:
            union |= cover[v]
        return float(len(union)) - cost * len(s)

    opt = max(h({v for v in range(n) if m >> v & 1}) for m in range(1 << n))
    lstar = h(set(range(n)))
    return n, h, opt, lstar


def _adversarial_sign(s):
    digest = hashlib.md5(",".join(map(str, sorted(s))).encode()).digest()
    return 1.0 if digest[0] & 1 else -1.0


def test_c05_noise_tolerant_half_ratio():
    # bounded adversarial estimation error eps L*/n plus the 2 eps L*/n
    # marginal shift must retain a (1/2 - eps) ratio in the mean
    start = time.perf_counter()
    rng = random.Random(55)
    eps = 0.1
    for inst in range(5):
        n, h, opt, lstar = _coverage_instance(rng)
        assert lstar > 0 and opt >= lstar
        bound = eps * lstar / n

        def noisy(sets):
            return [h(s) + bound * _adversarial_sign(s) for s in sets]

        values = []
        for trial in range(1000):
            oracle = FunctionOracle(noisy, range(n), shift=2.0 * bound)
            got = double_greedy(oracle, range(n),
                                random.Random(7000 * inst + trial))
            values.append(h(got))
        mean = sum(values) / len(values)
        sem = np.std(values, ddof=1) / math.sqrt(len(values))
        assert mean >= (0.5 - eps) * opt - 3.0 * sem, \
            f"instance {inst}: mean {mean} < 0.4 opt {0.4 * opt} - 3se {3 * sem}"
    assert time.perf_counter() - start < 120.0
    _line(5, "5 instances x 1000 noisy trials keep mean >= 0.4 opt - 3se")


def test_c06_end_to_end_approximation():
    # all four algorithms at eps = 0.4, N = n, exact scoring of returned
    # sets on 20 nets x 10 trials: mean >= (1/2 - eps) opt, and the
    # per-trial sub-ratio frequency stays within the promised 2/N
    start = time.perf_counter()
    rng = random.Random(66)
    nets = []
    for i in range(20):
        model = "ic-cp" if i % 2 == 0 else "lt"
        net = table_safe_random_net(rng, 10, model)
        nets.append((net, profit_table(net)))

    algs = {
        "spm": lambda net, seed: spm(net, eps=0.4, l_override=10_000, seed=seed),
        "rpm": lambda net, seed: rpm(net, eps=0.4, l_override=10_000, seed=seed),
        "ra-t": lambda net, seed: ra_t(net, eps=0.4, seed=seed),
        "ra-s": lambda net, seed: ra_s(net, eps=0.4, seed=seed),
    }
    for name, run in algs.items():
        profits, opts, freq_caps, subs = [], [], [], 0
        for net_id, (net, tab) in enumerate(nets):
            opt = float(tab.max())
            for trial in range(10):
                res = run(net, 993 * net_id + trial)
                got = float(tab[mask_of(res.members)])
                profits.append(got)
                opts.append(opt)
                freq_caps.append(2.0 / net.n)
                if got < (0.5 - 0.4) * opt - 1e-9:
                    subs += 1
        mean_profit = sum(profits) / len(profits)
        mean_bar = 0.1 * sum(opts) / len(opts)
        assert len(profits) >= 200
        assert mean_profit >= mean_bar, (name, mean_profit, mean_bar)
        freq = subs / len(profits)
        cap = sum(freq_caps) / len(freq_caps)
        assert freq <= cap, (name, freq, cap)
        _line(6, f"{name}: mean {mean_profit:.3f} >= {mean_bar:.3f}, "
                 f"sub-ratio freq {freq:.3f} <= {cap:.3f}")
    assert time.perf_counter() - start < 1800.0


def test_c07_threshold_formulas_and_solvers():
    start = time.perf_counter()
    rel = 1e-12

    def close(a, b):
        assert abs(a - b) <= rel * max(abs(a), abs(b)), (a, b)

    # hand-evaluated pinned tuples, three per formula
    close(delta0(2, 2.0, 0.25, 0.5), 1829.9085566782555)
    close(delta0(10, 100.0, 0.4, 0.1), 1125646.4017879115)
    close(delta0(1, 2.0, 0.1, 1.0), 582.2436316703539)
    close(delta1(3, 10.0, 0.2, 0.5), 920.2255932815149)
    close(delta1(10, 50.0, 0.3, 0.25), 4000.0447525124036)
    close(delta1(1, 2.0, 0.45, 1.0), 16.772450295030776)
    close(delta2(100.0, 0.2, 0.1), 23025.850929940447)
    close(delta2(4.0, 0.5, 1.0), 11.090354888959125)
    close(delta2(1000.0, 0.9, 0.3), 189.51317637811073)
    close(delta1_star(3, 10.0, 0.2, 0.5), 905.6188378326019)
    close(delta1_star(10, 50.0, 0.3, 0.25), 3951.851442241169)
    close(delta1_star(1, 2.0, 0.45, 1.0), 15.745565583090114)
    close(delta2_star(100.0, 0.2, 0.1), 23025.850929940447)
    close(delta2_star(4.0, 0.5, 1.0), 11.090354888959125)
    close(delta2_star(1000.0, 0.9, 0.3), 189.51317637811073)
    close(delta3(math.e ** 4, 0.25, 1.0), 144.0)
    close(delta3(10.0, 0.3, 0.5), 220.02479777498658)
    close(delta3(100.0, 0.1, 0.2), 23256.10943923985)

    # solver residuals at two representative operating points
    for (k, eps3) in ((5, 0.1), (8, 0.3)):
        p = solve_ras_params(10, 10.0, 0.4, 0.1, k, eps3)
        scale = 2.0 ** k
        ratio = abs(p.delta1_star - scale * p.delta2_star) \
            / max(p.delta1_star, scale * p.delta2_star)
        budget = abs((1.0 - p.eps2) / (2.0 * (1.0 + eps3)) - p.eps1 - 0.1)
        assert ratio <= 1e-9 and budget <= 1e-9

    # grid search against a literal re-scan
    for (n, big_n, eps, r) in ((10, 10.0, 0.4, 0.1), (25, 50.0, 0.25, 0.6)):
        got = search_rat_params(n, big_n, eps, r)
        best = None
        i = 1
        while i * 0.01 < eps:
            e1 = i * 0.01
            e2 = 2.0 * (eps - e1)
            cost = max(delta1(n, big_n, e1, r), delta2(big_n, e2, r))
            if best is None or cost < best[0]:
                best = (cost, e1, e2)
            i += 1
        assert got == (best[1], best[2])
    assert time.perf_counter() - start < 1.0
    _line(7, "18 pinned thresholds at 1e-12, residuals <= 1e-9, grid exact")


def test_c08_estimator_agreement():
    # simulation mean, realization replay mean, and RA estimate all match
    # the exact profit of five seed sets within 3 standard errors at 1e5
    # samples on a fixed 8-node network
    start = time.perf_counter()
    rng = random.Random(88)
    net = make_net(random_edge_text(rng, 8, 12), ic_p=0.4, price=0.5,
                   coupon=0.3, intrinsics=[0.9] * 8)
    tab = profit_table(net)
    seed_sets = [[0], [0, 3], [1, 4, 6], [2, 5], list(range(8))]
    l = 100_000
    price, coupon = net.price, net.coupon

    # forward simulation, collecting per-run adopter counts for the SE
    sim_stats = {}
    srng = random.Random(881)
    for s in seed_sets:
        counts = [simulate_once(net, s, srng) for _ in range(l)]
        mean_a = sum(counts) / l
        sd = np.std(counts, ddof=1)
        sim_stats[tuple(s)] = (price * mean_a - coupon * len(s),
                               price * sd / math.sqrt(l))

    # one shared pool of realizations, replayed per seed set
    rrng = np.random.SeedSequence(882)
    replay_counts = {tuple(s): [] for s in seed_sets}
    for child in rrng.spawn(l):
        real = sample_realization(net, child)
        for s in seed_sets:
            replay_counts[tuple(s)].append(replay_on_realization(real, s))
    replay_stats = {}
    for s in seed_sets:
        counts = replay_counts[tuple(s)]
        mean_a = sum(counts) / l
        sd = np.std(counts, ddof=1)
        replay_stats[tuple(s)] = (price * mean_a - coupon * len(s),
                                  price * sd / math.sqrt(l))

    # reverse samples
    coll = generate_collection(net, l, 883)
    ra_stats = {}
    for s in seed_sets:
        member_sets = [set(coll.sets_containing(v).tolist()) for v in s]
        covered = len(set().union(*member_sets))
        p_hat = covered / l
        ra_stats[tuple(s)] = (
            price * net.n * p_hat - coupon * len(s),
            price * net.n * math.sqrt(p_hat * (1 - p_hat) / l))

    for s in seed_sets:
        exact = float(tab[mask_of(s)])
        for kind, stats in (("sim", sim_stats), ("replay", replay_stats),
                            ("ra", ra_stats)):
            est, se = stats[tuple(s)]
            assert abs(est - exact) <= 3.0 * se, \
                (kind, s, est, exact, 3 * se)
    assert time.perf_counter() - start < 300.0
    _line(8, "3 estimators x 5 seed sets within 3se of exact at l=1e5")


def test_c09_large_graph_smoke():
    # soft scalability gate: reverse-threshold on a synthetic sparse graph
    # near the published mid-size workload; must finish, return nonnegative
    # profit, and beat the degree heuristic
    start = time.perf_counter()
    n, m = 7000, 100_000
    rs = random.Random(4242)
    pairs = set()
    while len(pairs) < m:
        u = rs.randrange(1, n + 1)
        v = rs.randrange(1, n + 1)
        if u != v:
            pairs.add((u, v))
    text = "\n".join(f"{u} {v}" for u, v in pairs) + "\n"
    import io
    g = ingest_edge_list(io.StringIO(text))
    price, coupon = 0.5, 0.45
    intr = generate_intrinsics(g, price, coupon, 4242)
    net = build_tc_network(g, DiffusionParams("ic-cp", ic_probability=0.01),
                           price, coupon, intr)

    res = ra_t(net, eps=0.4, max_ra=5_000_000, seed=9, workers=4)
    eval_sims = 1000
    rat_profit = estimate_profit_simulation(
        net, res.members, eval_sims, np.random.SeedSequence([9, 1])).mean_profit

    hd = high_degree(net, trials=20, eval_simulations=300, seed=9)
    hd_profit = estimate_profit_simulation(
        net, hd.members, eval_sims, np.random.SeedSequence([9, 1])).mean_profit

    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"took {elapsed:.0f}s"
    assert rat_profit >= 0.0
    assert rat_profit >= hd_profit, (rat_profit, hd_profit)
    _line(9, f"ra-t {rat_profit:.1f} >= highdegree {hd_profit:.1f}, "
             f"|S|={len(res.members)}, {elapsed:.0f}s")


def test_c10_cli_determinism(tmp_path, capsys):
    # identical flags (seed and threads included) must reproduce seed sets
    # and sample counts bit for bit for every algorithm
    from profitmax.cli import main

    graph = tmp_path / "g.txt"
    rng = random.Random(10)
    graph.write_text(random_edge_text(rng, 12, 20))
    intr = tmp_path / "i.txt"
    intr.write_text("".join("0.9\n" for _ in range(12)))

    for alg, extra in (("spm", ["--l-override", "200"]),
                       ("rpm", ["--l-override", "200"]),
                       ("ra-t", []), ("ra-s", ["--k", "3"]),
                       ("maxinf", []), ("highdegree", [])):
        outputs = []
        for _ in range(2):
            code = main(["run", "--graph", str(graph), "--intrinsics-file",
                         str(intr), "--ic-p", "0.3", "--alg", alg,
                         "--eps", "0.4", "--eval-sims", "60", "--seed", "17",
                         "--threads", "2", *extra])
            assert code == 0
            outputs.append(json.loads(capsys.readouterr().out))
        a, b = outputs
        assert a["seed_set"] == b["seed_set"], alg
        assert a["sample_counts"] == b["sample_counts"], alg
    _line(10, "6 algorithms reproduce seed sets and sample counts exactly")

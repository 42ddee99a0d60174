import io
import random

import numpy as np
import pytest
from hypothesis import settings

from profitmax import (DiffusionParams, Graph, RACollection, build_tc_network,
                       ingest_edge_list)
from profitmax.sampling import sample_ra_block, sample_rr_block

# Property tests that set no example count of their own take hypothesis's
# default locally and 2000 examples under --hypothesis-profile=ci.
settings.register_profile("ci", max_examples=2000, deadline=None)


def make_graph(edge_text: str, undirected: bool = False):
    return ingest_edge_list(io.StringIO(edge_text), undirected=undirected)


def make_net(edge_text, model="ic-cp", ic_p=1.0, price=0.5, coupon=0.25,
             intrinsics=None, undirected=False):
    g = make_graph(edge_text, undirected)
    if intrinsics is None:
        intrinsics = [0.9] * g.n
    params = DiffusionParams(model=model, ic_probability=ic_p)
    return build_tc_network(g, params, price, coupon, intrinsics)


@pytest.fixture
def two_node_net():
    """One edge v1 -> v2, certain activation, everyone can afford the price.

    Exact profits: f({v1}) = 0.75, f({v1, v2}) = 0.5, f({v2}) = 0.25.
    Adding the second seed lowers profit, so this is the canonical
    non-monotonicity witness.
    """
    return make_net("1 2\n", ic_p=1.0, price=0.5, coupon=0.25)


@pytest.fixture
def lt_fork_net():
    """a -> c and b -> c under the threshold model: pi({a}) = 1.5."""
    return make_net("1 3\n2 3\n", model="lt")


def random_edge_text(rng: random.Random, n: int, m: int) -> str:
    """m distinct directed non-loop edges over nodes 1..n."""
    pairs = set()
    while len(pairs) < m:
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        if u != v:
            pairs.add((u, v))
    lines = [f"{u} {v}" for u, v in sorted(pairs)]
    # keep isolated nodes present via self-descriptive comment lines
    lines.append(f"# n={n}")
    for v in range(1, n + 1):
        if not any(v in p for p in pairs):
            lines.append(f"{v} {1 if v != 1 else 2}")
    return "\n".join(lines) + "\n"


def random_small_net(rng: random.Random, n_max: int = 7, model=None):
    n = rng.randint(2, n_max)
    m = rng.randint(1, min(n * (n - 1), 2 * n))
    model = model or rng.choice(["ic-cp", "lt"])
    price = rng.uniform(0.2, 0.9)
    coupon = rng.uniform(0.0, price * 0.9)
    intr = [rng.uniform(price - coupon, 1.0) for _ in range(n)]
    return make_net(random_edge_text(rng, n, m), model=model,
                    ic_p=rng.uniform(0.1, 0.9), price=price, coupon=coupon,
                    intrinsics=intr)


def ra_block(net, count, seed):
    """sample_ra_block's count sets drawn from seed, its blocks together,
    as (single, sizes, members): single counts the one-member sets per
    node, sizes and members describe the others in the order they were
    drawn."""
    singles, sizes, members = zip(*sample_ra_block(net, count, seed))
    return sum(singles), np.concatenate(sizes), np.concatenate(members)


def rr_passes(net, count, seed):
    """sample_rr_block's passes over count realizations drawn from
    default_rng(seed), each as (single, sizes, members, weights)."""
    return list(sample_rr_block(net, count, np.random.default_rng(seed)))


def stored_layout(n: int, sizes, members):
    """(offsets, members, weights) of sets given whole as sizes and members
    (each set's nodes in turn), in the layout CollectionBuilder.snapshot
    stores: the sets of two or more members in their order, each of
    weight one, then one set {v} per node v that has any, ascending,
    weighted by their number."""
    one = sizes == 1
    single = np.bincount(members[(np.cumsum(sizes) - sizes)[one]], minlength=n)
    nodes = np.flatnonzero(single)
    kept = np.concatenate((sizes[~one], np.ones(nodes.size, dtype=sizes.dtype)))
    members = np.concatenate((members[np.repeat(~one, sizes)], nodes)).astype(np.int32)
    weights = np.concatenate((np.ones(kept.size - nodes.size, np.int64), single[nodes]))
    return np.concatenate(([0], np.cumsum(kept))), members, weights


def collection_of(n, sets):
    """An RACollection of the given node lists, stored as the samplers'
    sets are (stored_layout)."""
    sizes = np.array([len(s) for s in sets], dtype=np.int64)
    members = np.concatenate([np.asarray(s, dtype=np.int32) for s in sets])
    return RACollection(n, *stored_layout(n, sizes, members))


def rat_large_net():
    """A network shaped like the benchmark's rat-large graph: 7000 nodes and
    100k random edges under ic-cp at p = 0.01, price 0.5 and coupon 0.45,
    built from arrays rather than parsed.  Most of its RA sets hold their
    root alone."""
    rng = np.random.default_rng(7)
    n, m = 7000, 100_000
    graph = Graph(n, rng.integers(0, n, m), rng.integers(0, n, m))
    return build_tc_network(graph, DiffusionParams(model="ic-cp", ic_probability=0.01),
                            0.5, 0.45, rng.uniform(0.05, 1.0, n))

"""Seeded inputs and fixed parameters of the benchmark workloads.

A workload is a list of graphs, each described by its shape, and a list of
selections.  One selection is one `profitmax run` invocation: a graph file
plus the flags it would be given.  The benchmark hands the program only the
generated edge-list files and these parameters.
"""

import random
from dataclasses import dataclass
from typing import Optional

# Fixed worker count.  The program splits its random streams by worker
# count, so a host-derived value would make answers depend on the machine.
WORKERS = 2
EPS = 0.4


@dataclass(frozen=True)
class GraphShape:
    nodes: int
    edges: int
    # "c09": m distinct random directed pairs over 1..n.
    # "cover": an out-edge for every node first, so that ingest keeps all n.
    style: str = "c09"


@dataclass(frozen=True)
class Selection:
    graph: str
    model: str
    alg: str
    eval_sims: int
    price: float = 0.5
    coupon_frac: float = 0.9
    ic_p: float = 0.01
    max_ra: Optional[int] = None
    l_override: Optional[int] = None

    @property
    def coupon(self) -> float:
        return self.coupon_frac * self.price


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graphs: tuple  # ((graph name, GraphShape), ...)
    selections: tuple
    # selections on graphs this small are scored by the exact oracle
    exact_max_nodes: int = 0


def program_seed(seed: int, index: int) -> int:
    """The `profitmax run --seed` of selection `index` of a workload.

    Each selection gets its own, so the intrinsics drawn for different
    networks of one workload are independent.
    """
    return 1000 * seed + index


def edge_pairs(rng: random.Random, shape: GraphShape) -> list:
    """Distinct directed non-loop pairs over nodes 1..n, sorted."""
    n, m = shape.nodes, shape.edges
    if not (0 < m <= n * (n - 1)):
        raise ValueError(f"cannot place {m} distinct edges on {n} nodes")
    pairs = set()
    if shape.style == "cover":
        if m < n:
            raise ValueError("a cover graph needs at least one edge per node")
        for u in range(1, n + 1):
            v = rng.randrange(1, n)
            pairs.add((u, v + (v >= u)))
    elif shape.style != "c09":
        raise ValueError(f"unknown graph style {shape.style!r}")
    while len(pairs) < m:
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        if u != v:
            pairs.add((u, v))
    return sorted(pairs)


def edge_list_text(workload: str, graph: str, shape: GraphShape, seed: int) -> str:
    """The edge list of one graph of a workload, as SNAP-style text.

    A string seed makes random.Random hash it with SHA-512, so the text
    depends only on its arguments.
    """
    rng = random.Random(f"{workload}/{graph}/{seed}")
    return "".join(f"{u} {v}\n" for u, v in edge_pairs(rng, shape))


def write_inputs(workload: Workload, seed: int, directory) -> dict:
    """Write every graph of the workload under directory; name -> path."""
    paths = {}
    for name, shape in workload.graphs:
        path = f"{directory}/{workload.name}-{name}.txt"
        with open(path, "w") as fh:
            fh.write(edge_list_text(workload.name, name, shape, seed))
        paths[name] = path
    return paths


C09 = GraphShape(7000, 100_000)

_RAT = Selection("c09", "ic-cp", "ra-t", eval_sims=250, max_ra=600_000)
RAT_LARGE = Workload(
    name="rat-large",
    why=f"c09 graph n=7000 m=100k ic-cp p=0.01 r=0.1; ra-t eps={EPS} "
        f"max_ra={_RAT.max_ra}, {_RAT.eval_sims} eval sims, workers={WORKERS}: "
        "RA generation dominates selection, forward simulation only evaluates",
    graphs=(("c09", C09),),
    selections=(_RAT,),
)

_SMALL_IC = dict(coupon_frac=0.5, ic_p=0.3)
# spm and rpm sample counts per net size, chosen so that spm and rpm take
# comparable shares of a round
_TINY_L = dict(spm=500, rpm=2000)
_MID_L = dict(spm=40, rpm=100)


def _oracle_small():
    graphs, selections = [], []
    for i, model in enumerate(("ic-cp", "lt") * 6):
        # 10 nodes and at most 14 edges keep ic-cp at <= 2^14 live-edge
        # realizations, inside the exact oracle's limit
        name = f"tiny{i}"
        graphs.append((name, GraphShape(10, 14 if model == "ic-cp" else 20,
                                        "cover")))
        for alg in ("spm", "rpm", "ra-t", "ra-s"):
            selections.append(Selection(name, model, alg, eval_sims=1000,
                                        l_override=_TINY_L.get(alg),
                                        **_SMALL_IC))
    for i, model in enumerate(("ic-cp", "lt") * 3):
        name = f"mid{i}"
        graphs.append((name, GraphShape(60, 120, "cover")))
        for alg in ("spm", "rpm"):
            selections.append(Selection(name, model, alg, eval_sims=1000,
                                        l_override=_MID_L[alg], **_SMALL_IC))
    return Workload(
        name="oracle-small",
        why="twelve 10-node ic-cp/lt nets, all four algorithms scored exactly; "
            "six 60-node nets, spm and rpm; "
            f"spm l={_TINY_L['spm']}/{_MID_L['spm']}, "
            f"rpm l={_TINY_L['rpm']}/{_MID_L['rpm']}: "
            "function oracle, tiny cascades, replay, ra-s check rounds",
        graphs=tuple(graphs), selections=tuple(selections), exact_max_nodes=10)


ORACLE_SMALL = _oracle_small()

WORKLOADS = {w.name: w for w in (RAT_LARGE, ORACLE_SMALL)}

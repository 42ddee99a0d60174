"""Graph ingestion and coupon network construction.

A coupon network couples a directed graph with a product price P, a coupon
value C and per-node intrinsic values I_v.  Nodes that cannot adopt even
with a coupon (P > I_v + C) are removed up front, so every retained node is
a feasible seed.  A retained node can adopt organically (without holding a
coupon) only when I_v >= P.
"""

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

MODELS = ("ic-cp", "ic-wc", "lt")


class NetworkError(ValueError):
    pass


class ParseError(NetworkError):
    pass


class ParameterError(ValueError):
    """A numeric argument is outside its admissible range."""


class Graph:
    """Immutable directed graph over dense node ids 0..n-1.

    labels[i] is the original id of node i as it appeared in the input;
    for programmatically built graphs labels default to the ids themselves.
    """

    __slots__ = ("n", "m", "out_adj", "in_adj", "labels", "_label_to_id")

    def __init__(self, n: int, edges: Iterable[tuple], labels: Optional[list] = None):
        if n < 1:
            raise NetworkError("graph must contain at least one node")
        out_adj = [[] for _ in range(n)]
        in_adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise NetworkError(f"edge ({u},{v}) out of range for n={n}")
            if (u, v) in seen:
                continue
            seen.add((u, v))
            out_adj[u].append(v)
            in_adj[v].append(u)
        self.n = n
        self.m = len(seen)
        self.out_adj = tuple(tuple(sorted(a)) for a in out_adj)
        self.in_adj = tuple(tuple(sorted(a)) for a in in_adj)
        if labels is None:
            labels = list(range(n))
        if len(labels) != n:
            raise NetworkError("labels length must equal n")
        self.labels = tuple(labels)
        self._label_to_id = {lab: i for i, lab in enumerate(self.labels)}

    def id_of(self, label):
        return self._label_to_id[label]

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def ingest_edge_list(source, undirected: bool = False) -> Graph:
    """Parse a plain text edge list into a Graph.

    source: a file path or an iterable of lines (an open file works).
    Lines starting with '#' and blank lines are ignored.  Every other line
    must hold exactly two whitespace separated integer ids.  Ids are
    renumbered densely in order of first appearance.  With undirected=True
    each input pair u v yields both directed edges.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            return ingest_edge_list(fh, undirected=undirected)
    labels = []
    label_to_id = {}
    edges = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node id in {line!r}") from None
        for lab in (a, b):
            if lab not in label_to_id:
                label_to_id[lab] = len(labels)
                labels.append(lab)
        u, v = label_to_id[a], label_to_id[b]
        edges.append((u, v))
        if undirected:
            edges.append((v, u))
    if not labels:
        raise ParseError("no edges found: empty graph")
    return Graph(len(labels), edges, labels)


@dataclass(frozen=True)
class DiffusionParams:
    """Diffusion model designation.

    model: "ic-cp" (independent cascade, constant probability),
    "ic-wc" (independent cascade, probability 1/in-degree) or
    "lt" (linear threshold, weight 1/in-degree).
    ic_probability is only used by ic-cp.
    """

    model: str = "ic-cp"
    ic_probability: float = 0.01

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.model == "ic-cp" and not (0.0 < self.ic_probability <= 1.0):
            raise ParameterError("ic probability must lie in (0, 1]")


class InCSR(NamedTuple):
    """In-edge arrays of a TCNetwork in compressed sparse row form.

    The in-neighbors of v are indices[indptr[v]:indptr[v + 1]], ascending;
    prob_in and eligible are the network's per-node tuples as arrays.
    """

    indptr: np.ndarray  # int64, n + 1
    indices: np.ndarray  # int32, m
    prob_in: np.ndarray  # float64, n
    eligible: np.ndarray  # bool, n


class OutCSR(NamedTuple):
    """Out-edge arrays of a TCNetwork: the out-neighbors of u are
    indices[indptr[u]:indptr[u + 1]], ascending."""

    indptr: np.ndarray  # int64, n + 1
    indices: np.ndarray  # int32, m


def _csr(adj, n: int, m: int):
    """(indptr, indices) of adjacency tuples adj with m entries in all."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.int32, count=m)
    return indptr, indices


class TCNetwork:
    """A pruned coupon network ready for seed selection.

    Construction happens through build_tc_network; this class assumes its
    inputs already satisfy the pruning predicate P <= I_v + C for every
    node.  prob_in[v] is the edge probability (IC) or edge weight (LT)
    shared by all edges entering v; it is derived from the pruned graph so
    LT weights always sum to at most 1 per node.
    """

    __slots__ = ("graph", "params", "price", "coupon", "intrinsic",
                 "discount_ratio", "eligible", "prob_in", "pruned_labels",
                 "_in_csr", "_out_csr")

    def __init__(self, graph: Graph, params: DiffusionParams, price: float,
                 coupon: float, intrinsic, pruned_labels=()):
        self.graph = graph
        self.params = params
        self.price = float(price)
        self.coupon = float(coupon)
        self.intrinsic = tuple(float(x) for x in intrinsic)
        self.discount_ratio = (self.price - self.coupon) / self.price
        self.eligible = tuple(iv >= self.price for iv in self.intrinsic)
        self.pruned_labels = tuple(pruned_labels)
        if params.model == "ic-cp":
            self.prob_in = tuple(params.ic_probability for _ in range(graph.n))
        else:
            # both weighted cascade and linear threshold use 1/in-degree
            self.prob_in = tuple(
                0.0 if graph.in_degree(v) == 0 else 1.0 / graph.in_degree(v)
                for v in range(graph.n)
            )
        self._in_csr = None
        self._out_csr = None

    def in_csr(self) -> InCSR:
        """The in-edge arrays the sampling kernels run on, built on first
        use and kept for the network's lifetime."""
        if self._in_csr is None:
            self._in_csr = InCSR(*_csr(self.graph.in_adj, self.n, self.m),
                                 np.array(self.prob_in, dtype=np.float64),
                                 np.array(self.eligible, dtype=bool))
        return self._in_csr

    def out_csr(self) -> OutCSR:
        """The out-edge arrays forward simulation runs on, built on first
        use and kept for the network's lifetime."""
        if self._out_csr is None:
            self._out_csr = OutCSR(*_csr(self.graph.out_adj, self.n, self.m))
        return self._out_csr

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def adopter_eligible(self, v: int) -> bool:
        return self.eligible[v]

    def label_of(self, v: int):
        return self.graph.labels[v]

    def labels_of(self, nodes) -> list:
        return sorted(self.graph.labels[v] for v in nodes)

    def full_profit(self) -> float:
        """Profit of seeding every node: (P - C) * n."""
        return (self.price - self.coupon) * self.n

    def __repr__(self):
        return (f"TCNetwork(n={self.n}, m={self.m}, model={self.params.model}, "
                f"P={self.price}, C={self.coupon})")


def build_tc_network(g: Graph, params: DiffusionParams, price: float,
                     coupon: float, intrinsics) -> TCNetwork:
    """Attach pricing to a graph and drop nodes that can never adopt.

    A node with price > intrinsic + coupon would decline even a couponed
    offer, so it is removed together with its incident edges before any
    sampling or optimization sees the network.  Remaining ids are dense
    again; original labels are kept for reporting.
    """
    if not (0.0 < price <= 1.0):
        raise ParameterError("price must lie in (0, 1]")
    if not (0.0 <= coupon < price):
        raise ParameterError("coupon must lie in [0, price)")
    intrinsics = list(intrinsics)
    if len(intrinsics) != g.n:
        raise NetworkError(
            f"intrinsics length {len(intrinsics)} does not match node count {g.n}")
    keep = [v for v in range(g.n) if intrinsics[v] + coupon >= price]
    if not keep:
        raise NetworkError("empty feasible network: every node was pruned")
    pruned = [g.labels[v] for v in range(g.n) if intrinsics[v] + coupon < price]
    if len(keep) == g.n:
        sub, kept_intr = g, intrinsics
    else:
        remap = {old: new for new, old in enumerate(keep)}
        edges = [(remap[u], remap[v])
                 for u in keep for v in g.out_adj[u] if v in remap]
        sub = Graph(len(keep), edges, [g.labels[v] for v in keep])
        kept_intr = [intrinsics[v] for v in keep]
    return TCNetwork(sub, params, price, coupon, kept_intr, pruned)


def generate_intrinsics(g: Graph, price: float, coupon: float, rng_seed: int) -> list:
    """Draw one intrinsic value per node, uniform on [P - C, 1].

    Every draw lands at or above P - C, so the subsequent pruning pass
    keeps all nodes.  Deterministic for a fixed rng_seed.
    """
    if not (0.0 <= coupon < price <= 1.0):
        raise ParameterError("need 0 <= coupon < price <= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    return [float(x) for x in rng.uniform(price - coupon, 1.0, size=g.n)]


def load_intrinsics(path, n: int) -> list:
    """Read one decimal per line; line i holds the value for node i."""
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ParseError(f"line {lineno}: not a decimal: {line!r}") from None
    if len(values) != n:
        raise NetworkError(
            f"intrinsics file holds {len(values)} values but the graph has {n} nodes")
    return values


CONFIG_KEYS = ("model", "price", "coupon-fraction", "ic-probability", "rng-seed")


def load_network_config(path) -> dict:
    """Parse a key-value configuration file.

    Recognized keys: model, price, coupon-fraction, ic-probability and
    rng-seed.  One "key = value" pair per line, '#' starts a comment.
    coupon-fraction expresses the coupon as a fraction of the price.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            else:
                key, _, val = line.partition(" ")
            key, val = key.strip(), val.strip()
            if key not in CONFIG_KEYS:
                raise ParseError(f"line {lineno}: unknown config key {key!r}")
            if not val:
                raise ParseError(f"line {lineno}: missing value for {key!r}")
            if key == "model":
                if val not in MODELS:
                    raise ParseError(f"line {lineno}: unknown model {val!r}")
                out[key] = val
            elif key == "rng-seed":
                try:
                    out[key] = int(val)
                except ValueError:
                    raise ParseError(f"line {lineno}: rng-seed must be an integer") from None
            else:
                try:
                    out[key] = float(val)
                except ValueError:
                    raise ParseError(f"line {lineno}: {key} must be a number") from None
    return out

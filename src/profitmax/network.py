"""Graph ingestion and coupon network construction.

A coupon network couples a directed graph with a product price P, a coupon
value C and per-node intrinsic values I_v.  Nodes that cannot adopt even
with a coupon (P > I_v + C) are removed up front, so every retained node is
a feasible seed.  A retained node can adopt organically (without holding a
coupon) only when I_v >= P.

A Graph is its compressed sparse row (CSR) arrays, one pair per direction:
the out-neighbors of u are out_indices[out_indptr[u]:out_indptr[u + 1]]
and the in-neighbors of v are in_indices[in_indptr[v]:in_indptr[v + 1]],
both ascending.  The sampling and simulation kernels read these arrays
directly.
"""

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

MODELS = ("ic-cp", "ic-wc", "lt")


class NetworkError(ValueError):
    pass


class ParseError(NetworkError):
    pass


class ParameterError(ValueError):
    """A numeric argument is outside its admissible range."""


class Graph:
    """Immutable directed graph over dense node ids 0..n-1 in CSR form.

    Built from parallel arrays of edge sources and targets: self-loops are
    dropped, then the edges are sorted by (source, target) and repeats
    kept once, so m counts distinct edges.  out_indptr and in_indptr are
    int64 arrays of n + 1 offsets, out_indices and in_indices int32 arrays
    of m node ids; each node's neighbors are ascending in both directions.

    labels[i] is the original id of node i as it appeared in the input;
    for programmatically built graphs labels default to the ids themselves.
    """

    __slots__ = ("n", "m", "out_indptr", "out_indices", "in_indptr",
                 "in_indices", "labels", "_label_to_id")

    def __init__(self, n: int, sources, targets, labels: Optional[list] = None):
        if n < 1:
            raise NetworkError("graph must contain at least one node")
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise NetworkError("sources and targets must be equal-length 1-d sequences")
        proper = src != dst
        src, dst = src[proper], dst[proper]
        # viewed as unsigned, a negative id exceeds n too, so one maximum
        # per side checks both ends of the range
        if src.size and max(src.view(np.uint64).max(), dst.view(np.uint64).max()) >= n:
            bad = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))[0]
            raise NetworkError(f"edge ({src[bad]},{dst[bad]}) out of range for n={n}")
        keys = src * n + dst
        keys.sort()
        if keys.size > 1:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        src, dst = keys // n, keys % n
        bounds = np.arange(n + 1)
        self.n = n
        self.m = keys.size
        self.out_indptr = np.searchsorted(keys, bounds * n)
        self.out_indices = dst.astype(np.int32)
        # a stable sort by target keeps each node's in-neighbors ascending
        order = np.argsort(dst, kind="stable")
        self.in_indptr = np.searchsorted(dst[order], bounds)
        self.in_indices = src[order].astype(np.int32)
        if labels is None:
            labels = range(n)
        self.labels = tuple(labels)
        if len(self.labels) != n:
            raise NetworkError("labels length must equal n")
        self._label_to_id = {lab: i for i, lab in enumerate(self.labels)}

    def id_of(self, label):
        return self._label_to_id[label]

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
    label_to_id = {}  # insertion-ordered, so its keys list the labels by id
    ids = []  # u0, v0, u1, v1, ...
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
        ids.append(label_to_id.setdefault(a, len(label_to_id)))
        ids.append(label_to_id.setdefault(b, len(label_to_id)))
    if not label_to_id:
        raise ParseError("no edges found: empty graph")
    pairs = np.fromiter(ids, dtype=np.int64, count=len(ids)).reshape(-1, 2)
    if undirected:
        pairs = np.concatenate((pairs, pairs[:, ::-1]))
    return Graph(len(label_to_id), pairs[:, 0], pairs[:, 1], list(label_to_id))


@dataclass(frozen=True)
class DiffusionParams:
    """Diffusion model designation.

    model: "ic-cp" (independent cascade, constant probability),
    "ic-wc" (independent cascade, probability 1/in-degree) or
    "lt" (linear threshold, weight 1/in-degree).
    ic_probability is only used by ic-cp, but must lie in (0, 1] under
    every model.
    """

    model: str = "ic-cp"
    ic_probability: float = 0.01

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"unknown model {self.model!r}; choose from {MODELS}")
        if not (0.0 < self.ic_probability <= 1.0):
            raise ParameterError(f"ic probability must lie in (0, 1], got {self.ic_probability}")


class Pickers(NamedTuple):
    """The nodes that draw a parent when a cascade or a reverse traversal
    reaches them: the eligible ones with in-neighbors.  in_deg holds every
    node's in-degree and mask marks the pickers among all n nodes; nodes
    lists them ascending, and first and deg give where each one's
    in-edges start in the in-edge CSR and how many it has."""

    in_deg: np.ndarray
    mask: np.ndarray
    nodes: np.ndarray
    first: np.ndarray
    deg: np.ndarray


class TCNetwork:
    """A pruned coupon network ready for seed selection.

    Construction happens through build_tc_network; this class assumes its
    inputs already satisfy the pruning predicate P <= I_v + C for every
    node.  intrinsic, eligible (I_v >= P) and prob_in are float64, bool and
    float64 arrays of n entries.  prob_in[v] is the edge probability (IC)
    or edge weight (LT) shared by all edges entering v; it is derived from
    the pruned graph so LT weights always sum to at most 1 per node.
    """

    __slots__ = ("graph", "params", "price", "coupon", "intrinsic",
                 "discount_ratio", "eligible", "prob_in", "pruned_labels",
                 "_pickers")

    def __init__(self, graph: Graph, params: DiffusionParams, price: float,
                 coupon: float, intrinsic, pruned_labels=()):
        self.graph = graph
        self.params = params
        self.price = float(price)
        self.coupon = float(coupon)
        self.intrinsic = np.asarray(intrinsic, dtype=np.float64)
        self.discount_ratio = (self.price - self.coupon) / self.price
        self.eligible = self.intrinsic >= self.price
        self.pruned_labels = tuple(pruned_labels)
        self._pickers = None
        if params.model == "ic-cp":
            self.prob_in = np.full(graph.n, params.ic_probability)
        else:
            # both weighted cascade and linear threshold use 1/in-degree
            deg = np.diff(graph.in_indptr)
            self.prob_in = np.zeros(graph.n)
            np.divide(1.0, deg, out=self.prob_in, where=deg > 0)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def pickers(self) -> Pickers:
        """The network's Pickers, computed on first use and shared by
        every later kernel call."""
        if self._pickers is None:
            in_deg = np.diff(self.graph.in_indptr)
            mask = self.eligible & (in_deg > 0)
            nodes = np.flatnonzero(mask)
            self._pickers = Pickers(in_deg, mask, nodes, self.graph.in_indptr[nodes],
                                    in_deg[nodes])
        return self._pickers

    def labels_of(self, nodes) -> list:
        return sorted(self.graph.labels[v] for v in nodes)

    def full_profit(self) -> float:
        """Profit of seeding every node: (P - C) * n."""
        return (self.price - self.coupon) * self.n

    def __repr__(self):
        return (f"TCNetwork(n={self.n}, m={self.m}, model={self.params.model}, "
                f"P={self.price}, C={self.coupon})")


def adoptable(intrinsics, price: float, coupon: float) -> np.ndarray:
    """Mask of the nodes build_tc_network keeps: I_v + C >= P."""
    return np.asarray(intrinsics, dtype=np.float64) + coupon >= price


def build_tc_network(g: Graph, params: DiffusionParams, price: float,
                     coupon: float, intrinsics) -> TCNetwork:
    """Attach pricing to a graph and drop nodes that can never adopt.

    A node with price > intrinsic + coupon would decline even a couponed
    offer, so it is removed together with its incident edges before any
    sampling or optimization sees the network.  Remaining ids are dense
    again, in their old order; original labels are kept for reporting.
    """
    if not (0.0 < price <= 1.0):
        raise ParameterError("price must lie in (0, 1]")
    if not (0.0 <= coupon < price):
        raise ParameterError("coupon must lie in [0, price)")
    intrinsics = np.asarray(intrinsics, dtype=np.float64)
    if intrinsics.shape != (g.n,):
        raise NetworkError(
            f"intrinsics length {intrinsics.size} does not match node count {g.n}")
    keep = adoptable(intrinsics, price, coupon)
    kept = int(np.count_nonzero(keep))
    if not kept:
        raise NetworkError("empty feasible network: every node was pruned")
    if kept == g.n:
        return TCNetwork(g, params, price, coupon, intrinsics)
    labels = np.array(g.labels, dtype=object)
    remap = np.cumsum(keep) - 1  # the new id of every kept node
    sources = np.repeat(np.arange(g.n), np.diff(g.out_indptr))
    live = keep[sources] & keep[g.out_indices]
    sub = Graph(kept, remap[sources[live]], remap[g.out_indices[live]],
                labels[keep].tolist())
    return TCNetwork(sub, params, price, coupon, intrinsics[keep],
                     labels[~keep].tolist())


def generate_intrinsics(g: Graph, price: float, coupon: float, rng_seed: int) -> list:
    """Draw one intrinsic value per node, uniform on [P - C, 1].

    Every draw lands at or above P - C, so the subsequent pruning pass
    keeps all nodes.  Deterministic for a fixed rng_seed.
    """
    if not (0.0 <= coupon < price <= 1.0):
        raise ParameterError("need 0 <= coupon < price <= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    return rng.uniform(price - coupon, 1.0, size=g.n).tolist()


def load_intrinsics(path, n: int) -> list:
    """Read one decimal per line; line i holds the value for node i."""
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ParseError(f"line {lineno}: not a decimal: {line!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: not a finite decimal: {line!r}")
            values.append(value)
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

"""Double greedy maximization for nonnegative submodular set functions.

The driver walks the node order once, keeping a growing set X and a
shrinking set Y.  For each node it asks an oracle for the two marginals

    a = h(X + v) - h(X)        b = h(Y - v) - h(Y)

clamps both at zero and admits v with probability a' / (a' + b'),
admitting outright when both clamp to zero (Buchbinder, Feldman, Naor &
Schwartz, FOCS 2012).  Estimated oracles add a fixed shift of
2 eps L* / n to each marginal, which compensates estimation error up to
eps L* / n per evaluation.

Two oracle flavors live here: a generic one that evaluates sets with an
arbitrary set-function evaluator, X + v and Y - v of a node in one call
(X and Y too at the first node), and carries h(X) and h(Y) from node to
node; and an incremental one over a collection of node sets that answers
marginals from per-set coverage counters (ra-t and ra-s over RA sets,
rpm over its realizations' reverse-reachable sets).  A stored set stands
for as many drawn sets as its weight, so the oracle sums weights
wherever it counts sets: integer sums, the same as counting every copy.

Sets couple the nodes: v's marginals read only the counters of v's sets,
and deciding v writes only those.  So a run of consecutive nodes in the
order that share no set can be decided at once, with the same result as
one at a time: the concurrency-control scheme of Pan, Jegelka, Gonzalez,
Bradley & Jordan, "Parallel Double Greedy Submodular Maximization" (NIPS
2014).
The coins are drawn in order, and only for nodes whose clamped marginals
do not both vanish, so the batched pass is bit-identical to the
sequential one.  Planning the runs costs a sort of the entries, so it is
skipped where the runs are expected to be short, as on the dense
reverse-reachable sets of small networks.
"""

import numpy as np

from .sampling import INDEX_CHUNK, RACollection

# Batches of fewer nodes than this take one scalar step per node: a step
# costs a handful of numpy calls, the vectorised body a few dozen.
SCALAR_BATCH = 4


def _admit(a: float, b: float, rand) -> bool:
    """The double-greedy decision on marginals a and b: admit with
    probability a' / (a' + b') of the clamped marginals, outright when
    both vanish, in which case no coin is drawn."""
    a_pos = a if a > 0.0 else 0.0
    b_pos = b if b > 0.0 else 0.0
    total = a_pos + b_pos
    return total == 0.0 or rand() < a_pos / total


class FunctionOracle:
    """Marginals via direct evaluation of a set function.

    evaluate(sets) takes a list of frozensets and returns their values in
    order.  The oracle carries its values of X and Y from node to node:
    the first gains evaluates [X + v, X, Y - v, Y] in one call, every later
    one only [X + v, Y - v], and apply keeps the value of the side that
    changed.  So a full double-greedy pass inspects 2 n + 2 sets, and with
    a deterministic evaluator it picks what evaluating all four sets at
    every node picks.  When the evaluator is a sampler, every set it is
    asked for gets a fresh estimate, and each one is reused as h(X) or
    h(Y) until that side changes.  shift is added to every marginal.
    """

    def __init__(self, evaluate, universe, shift: float = 0.0):
        self.evaluate = evaluate
        self.x = set()
        self.y = set(universe)
        self.shift = shift
        self.inspections = 0
        self.values = None  # (h(X), h(Y)), once evaluated
        self._asked = None  # (v, h(X + v), h(Y - v)) of the last gains

    def gains(self, v):
        """(h(X + v) - h(X), h(Y - v) - h(Y)), each plus shift."""
        add, drop = frozenset(self.x | {v}), frozenset(self.y - {v})
        if self.values is None:
            xv, x, yv, y = self.evaluate([add, frozenset(self.x), drop,
                                          frozenset(self.y)])
            self.values = x, y
            self.inspections += 4
        else:
            xv, yv = self.evaluate([add, drop])
            x, y = self.values
            self.inspections += 2
        self._asked = v, xv, yv
        return xv - x + self.shift, yv - y + self.shift

    def apply(self, v, included: bool):
        """Decide v.  The changed side takes the value gains(v) evaluated
        for it; without one, both values are evaluated afresh next."""
        if included:
            self.x.add(v)
        else:
            self.y.discard(v)
        asked, self._asked = self._asked, None
        if asked is None or asked[0] != v:
            self.values = None
        elif included:
            self.values = asked[1], self.values[1]
        else:
            self.values = self.values[0], asked[2]


def _latest_conflicts(coll: RACollection) -> np.ndarray:
    """For each node v, the largest node below v that shares a set with
    it, or -1.

    Sorts each set's members and pairs neighbours, whole sets of about
    INDEX_CHUNK entries at a time, so the scratch is bounded by the chunk
    and the largest set.
    """
    n = coll.n
    conflict = np.full(n, -1, dtype=np.int64)
    first = 0
    while first < coll.offsets.size - 1:  # the stored sets
        lo = coll.offsets[first]
        last = max(first + 1, int(np.searchsorted(coll.offsets, lo + INDEX_CHUNK,
                                                  side="right")) - 1)
        bounds = coll.offsets[first:last + 1] - lo
        base = np.repeat(np.arange(last - first, dtype=np.int64) * n,
                         np.diff(bounds))
        keys = base + coll.members[lo:lo + bounds[-1]]
        keys.sort(kind="stable")  # keeps each set's slots; finds sorted runs
        keys -= base
        prev = np.empty_like(keys)
        prev[1:] = keys[:-1]
        prev[bounds[:-1][bounds[:-1] < keys.size]] = -1  # each set's first
        np.maximum.at(conflict, keys, prev)
        first = last
    return conflict


class CoverageOracle:
    """Incremental marginals of a coverage profit estimator.

    F(S) = P * n * (sets meeting S) / |sets| - C * |S| over a collection
    of node sets: RA sets for ra-t and ra-s, and for rpm the n
    reverse-reachable sets of each of l realizations, where it equals the
    realizations' mean adopter count times P, less C * |S|.

    count_x and count_y hold, for each stored set of the collection, how
    many of its members are in X and in Y.  Adding v to X newly covers
    the sets containing v with zero X-members so far; removing v from Y
    uncovers the sets where v is the last Y-member.  A set counts with
    its weight, read in place from the collection, so |sets|, both
    marginals and F are weighted integer sums.  shift is added to
    every marginal; F itself is evaluated exactly given the collection.
    x holds X; Y is kept only through count_y, since the pass ends with
    X = Y.

    greedy_pass runs the double-greedy pass over this oracle; batched says
    whether it plans conflict-free batches or steps through the nodes one
    at a time.
    """

    def __init__(self, coll: RACollection, price: float, coupon: float,
                 shift: float = 0.0):
        self.coupon = coupon
        self.shift = shift
        self.unit = price * coll.n / len(coll)
        self.coll = coll
        self.weights = coll.weights
        sizes = coll.sizes()
        self.count_x = np.zeros(sizes.size, dtype=np.int32)
        self.count_y = sizes.astype(np.int32)
        # Whether the mean batch of plan() should reach SCALAR_BATCH nodes.
        # With c node pairs sharing a set, spread over the n^2 / 2 pairs, a
        # run of b nodes holds about b^2 c / n^2 of them, and runs end about
        # where that reaches one half: after n / sqrt(2 c) nodes.
        shared = float(np.dot(sizes, sizes)) - coll.members.size  # 2 c
        self.batched = coll.n ** 2 >= SCALAR_BATCH ** 2 * shared
        self.x = set()

    def _sets_of(self, v):
        offsets, sets = self.coll.index()
        return sets[offsets[v]:offsets[v + 1]]

    def gains(self, v):
        sets = self._sets_of(v)
        return self._gains(v, sets, self.weights[sets])

    def apply(self, v, included: bool):
        self._apply(v, self._sets_of(v), included)

    def _gains(self, v, sets, weights):
        """(a, b) of node v, whose sets are sets, of those weights."""
        newly = int(np.dot(weights, self.count_x[sets] == 0))
        lost = int(np.dot(weights, self.count_y[sets] == 1))
        return (self.unit * newly - self.coupon + self.shift,
                -self.unit * lost + self.coupon + self.shift)

    def _apply(self, v, sets, included: bool):
        if included:
            self.x.add(v)
            self.count_x[sets] += 1  # sets has no duplicates: one entry per set
        else:
            self.count_y[sets] -= 1

    def current_value(self) -> float:
        """F of the growing side, from the counters."""
        covered = int(np.dot(self.weights, self.count_x > 0))
        return self.unit * covered - self.coupon * len(self.x)

    def _permutation(self, order) -> np.ndarray:
        """order as an int64 array.  Raises ValueError unless it is a
        permutation of 0..n-1: a repeated node would be applied twice."""
        n = self.coll.n
        order = np.asarray(order, dtype=np.int64).reshape(-1)
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order must be a permutation of 0..{n - 1}")
        return order

    def plan(self, order):
        """Split order into runs of consecutive nodes that share no set.

        Returns (order, cuts, offsets, sets).  order is an int64 array.
        cuts are the points 0 = cuts[0] < ... < cuts[-1] = n of the greedy
        split: each batch order[cuts[i]:cuts[i+1]] is conflict-free, and
        the node after it shares a set with one of its nodes.  The sets of
        the node at position p are sets[offsets[p]:offsets[p+1]],
        ascending.  Raises ValueError unless order is a permutation of
        0..n-1.
        """
        order = self._permutation(order)
        position = np.empty(order.size, dtype=np.int32)
        position[order] = np.arange(order.size, dtype=np.int32)
        # the sets with positions for members: its index lists the sets
        # of each position
        by_position = RACollection(order.size, self.coll.offsets,
                                   position[self.coll.members], self.coll.weights)
        # the batch from s ends at the first later position whose latest
        # earlier conflicting position is s or after
        cuts = [0]
        for p, c in enumerate(_latest_conflicts(by_position).tolist()):
            if c >= cuts[-1]:
                cuts.append(p)
        cuts.append(order.size)
        return (order, cuts) + by_position.index()

    def greedy_pass(self, order, rng) -> frozenset:
        """double_greedy over this oracle, one batch of plan(order) at a
        time: a batch's marginals are counted over the concatenation of
        its nodes' sets, its coins drawn in order, and its decisions
        applied in two fancy-index updates.  Where batches are expected
        to be short, the plan is skipped and every node takes a scalar
        step over the collection's node index, as short batches do."""
        if self.batched:
            order, cuts, offsets, sets = self.plan(order)
            starts, ends = offsets[:-1], offsets[1:]
        else:
            order = self._permutation(order)
            cuts = range(order.size + 1)
            offsets, sets = self.coll.index()
            starts, ends = offsets[order], offsets[order + 1]
        # each entry's weight, as floats that bincount takes unconverted:
        # integer sums stay exact below 2^53
        weights = self.weights.astype(np.float64)[sets]
        starts, ends = starts.tolist(), ends.tolist()
        nodes = order.tolist()
        rand = rng.random
        unit, coupon, shift = self.unit, self.coupon, self.shift
        for s, e in zip(cuts[:-1], cuts[1:]):
            if e - s < SCALAR_BATCH:
                for p in range(s, e):
                    v, lo, hi = nodes[p], starts[p], ends[p]
                    at = sets[lo:hi]
                    self._apply(v, at, _admit(*self._gains(v, at, weights[lo:hi]),
                                              rand))
                continue
            # a batch of the plan: its positions' sets are contiguous
            lo, hi = starts[s], ends[e - 1]
            batch = sets[lo:hi]
            owner = np.repeat(np.arange(e - s), np.diff(offsets[s:e + 1]))
            newly = np.bincount(owner, weights[lo:hi] * (self.count_x[batch] == 0),
                                minlength=e - s)
            lost = np.bincount(owner, weights[lo:hi] * (self.count_y[batch] == 1),
                               minlength=e - s)
            a = unit * newly - coupon + shift
            b = -unit * lost + coupon + shift
            a_pos = np.where(a > 0.0, a, 0.0)
            b_pos = np.where(b > 0.0, b, 0.0)
            total = a_pos + b_pos
            included = total == 0.0
            draw = np.flatnonzero(~included)
            if draw.size:
                coins = np.array([rand() for _ in range(draw.size)])
                included[draw] = coins < a_pos[draw] / total[draw]
            taken = included[owner]
            self.count_x[batch[taken]] += 1
            self.count_y[batch[~taken]] -= 1
            self.x.update(order[s:e][included].tolist())
        return frozenset(self.x)


def double_greedy(oracle, order, rng) -> frozenset:
    """One pass over `order`; returns the grown set X.

    order must be a permutation of the ground set.  rng supplies the
    inclusion coin flips (random.Random interface).  gains(v) returns
    both marginals of node v at once.  An oracle that has its own
    greedy_pass, found by attribute so that proxies forwarding attributes
    reach it too, runs the pass itself.
    """
    greedy_pass = getattr(oracle, "greedy_pass", None)
    if greedy_pass is not None:
        return greedy_pass(order, rng)
    rand = rng.random
    for v in order:
        oracle.apply(v, _admit(*oracle.gains(v), rand))
    return frozenset(oracle.x)

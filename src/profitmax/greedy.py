"""Double greedy maximization for nonnegative submodular set functions.

The driver walks the node order once, keeping a growing set X and a
shrinking set Y.  For each node it asks an oracle for the two marginals

    a = h(X + v) - h(X)        b = h(Y - v) - h(Y)

clamps both at zero and admits v with probability a' / (a' + b'),
admitting outright when both clamp to zero (Buchbinder, Feldman, Naor &
Schwartz, FOCS 2012).  Every node of the order takes one uniform coin,
in order, whether or not its decision needs it, so a node's coin never
depends on earlier decisions.  Estimated oracles add a fixed shift of
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
and deciding v writes only those.  The batched pass uses this
optimistically, in the concurrency-control scheme of Pan, Jegelka,
Gonzalez, Bradley & Jordan, "Parallel Double Greedy Submodular
Maximization" (NIPS 2014): it decides a window of consecutive nodes from
the counters at the window's start, each with its own coin, and then
checks the window.  Only an entry whose set has an earlier member in the
window can read a stale counter.  The check recounts those entries from
the earlier members' decisions and accepts every node up to and
including the first whose decision changes, which takes its recounted
decision.  By induction over the window, each accepted node is decided
from the counters the sequential pass gives it, so the pass leaves
exactly the sequential pass's members, counters and F.  Where runs of
nodes sharing no set are expected to be short, as on the dense
reverse-reachable sets of small networks, every node takes a scalar step
instead.
"""

import numpy as np

from .sampling import RACollection, _stable_order

# The smallest window of the batched pass, and the mean run of nodes
# sharing no set below which the pass takes one scalar step per node: a
# step costs a handful of numpy calls, a window a few dozen.
SCALAR_BATCH = 4


def _admit(a: float, b: float, coin: float) -> bool:
    """The double-greedy decision on marginals a and b with a uniform coin
    in [0, 1): admit when coin < a' / (a' + b') of the clamped marginals,
    and outright, whatever the coin, when both vanish."""
    a_pos = a if a > 0.0 else 0.0
    b_pos = b if b > 0.0 else 0.0
    total = a_pos + b_pos
    return total == 0.0 or coin < a_pos / total


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
    whether it decides checked windows of nodes or steps through the nodes
    one at a time.
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
        # Whether the mean run of consecutive nodes sharing no set should
        # reach SCALAR_BATCH nodes.  With c node pairs sharing a set, spread
        # over the n^2 / 2 pairs, a run of b nodes holds about b^2 c / n^2
        # of them, and runs end about where that reaches one half: after
        # n / sqrt(2 c) nodes.
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

    def by_position(self, order):
        """(order, offsets, sets): order as an int64 array, and the stored
        sets of the node at position p as sets[offsets[p]:offsets[p+1]],
        ascending.  Raises ValueError unless order is a permutation of
        0..n-1."""
        order = self._permutation(order)
        position = np.empty(order.size, dtype=np.int32)
        position[order] = np.arange(order.size, dtype=np.int32)
        # the sets with positions for members: its index lists the sets
        # of each position
        return (order,) + RACollection(order.size, self.coll.offsets,
                                       position[self.coll.members],
                                       self.coll.weights).index()

    def greedy_pass(self, order, rng) -> frozenset:
        """double_greedy over this oracle.  Where runs of nodes sharing no
        set are expected to be short, every node takes a scalar step over
        the collection's node index.  Otherwise the pass draws the coins of
        all the nodes up front and goes window by window over the sets by
        position (Pan et al., NIPS 2014): _window decides a window from the
        counters at its start, recounts the entries whose set an earlier
        window node holds, and accepts the nodes through the first whose
        decision changes.  The nodes before that one read the counters the
        sequential pass gives them, so its recount is exact too; by
        induction the pass leaves the sequential pass's members and
        counters.  A window twice as long follows one accepted whole, and
        one as long as the accepted part follows a cut, never shorter than
        SCALAR_BATCH."""
        rand = rng.random
        if not self.batched:
            order = self._permutation(order)
            offsets, sets = self.coll.index()
            # each entry's weight, as floats: integer sums stay exact
            # below 2^53
            weights = self.weights.astype(np.float64)[sets]
            for v, lo, hi in zip(order.tolist(), offsets[order].tolist(),
                                 offsets[order + 1].tolist()):
                at = sets[lo:hi]
                self._apply(v, at, _admit(*self._gains(v, at, weights[lo:hi]), rand()))
            return frozenset(self.x)
        order, offsets, sets = self.by_position(order)
        weights = self.weights.astype(np.float64).take(sets)
        bounds = offsets.tolist()
        coins = np.array([rand() for _ in range(order.size)])
        start, size = 0, SCALAR_BATCH
        while start < order.size:
            end = min(start + size, order.size)
            lo, hi = bounds[start], bounds[end]
            lens = np.diff(offsets[start:end + 1])
            accepted, admitted = self._window(sets[lo:hi], weights[lo:hi], lens,
                                              coins[start:end])
            # apply the accepted nodes: one window may hold a set many
            # times, so the counters take ufunc.at, with an int32 operand
            # that needs no cast
            kept = sets[lo:bounds[start + accepted]]
            taken = np.repeat(admitted[:accepted], lens[:accepted])
            np.add.at(self.count_x, kept[taken], np.int32(1))
            np.subtract.at(self.count_y, kept[~taken], np.int32(1))
            self.x.update(order[start:start + accepted][admitted[:accepted]].tolist())
            size = 2 * size if start + accepted == end else max(SCALAR_BATCH, accepted)
            start += accepted
        return frozenset(self.x)

    def _decide(self, newly, lost, coin):
        """_admit's decisions of nodes whose sets counted newly and lost,
        with those coins."""
        a = self.unit * newly - self.coupon + self.shift
        b = -self.unit * lost + self.coupon + self.shift
        a_pos = np.where(a > 0.0, a, 0.0)
        total = a_pos + np.where(b > 0.0, b, 0.0)
        vanish = total == 0.0
        return vanish | (coin < a_pos / np.where(vanish, 1.0, total))

    def _window(self, sets, weights, lens, coin):
        """Decide a window of consecutive nodes from the counters at its
        start, and check the decisions.  Node i of the window holds lens[i]
        of the entries sets, of those weights, and decides with coin[i].
        Returns (accepted, admitted): admitted[:accepted] are the
        sequential pass's decisions of the window's first accepted nodes."""
        m = lens.size
        owner = np.repeat(np.arange(m), lens)
        in_x, in_y = self.count_x.take(sets), self.count_y.take(sets)
        newly = np.bincount(owner, weights * (in_x == 0), minlength=m)
        lost = np.bincount(owner, weights * (in_y == 1), minlength=m)
        admitted = self._decide(newly, lost, coin)
        # The entries by set, each set's in pass order: an entry equal to
        # the one before it is a later member of a set an earlier window
        # node holds, and reads a counter that node may have changed.
        by_set = _stable_order(sets, self.count_x.size)
        grouped = sets.take(by_set)
        pairs = np.flatnonzero(grouped[1:] == grouped[:-1])
        if not pairs.size:
            return m, admitted
        later = by_set.take(pairs + 1)
        before = admitted.take(owner.take(by_set.take(pairs))).astype(np.int64)
        # consecutive pairs chain one set's members: for each later entry,
        # how many earlier members of its set the window admitted
        # (covered) and rejected (left)
        first = np.ones(pairs.size, dtype=bool)
        np.not_equal(pairs[1:], pairs[:-1] + 1, out=first[1:])
        head = np.maximum.accumulate(np.where(first, np.arange(pairs.size), 0))
        run = np.cumsum(before)
        covered = run - (run - before).take(head)
        left = np.arange(1, pairs.size + 1) - head - covered
        # what the later entries add to newly and lost at the counters the
        # sequential pass reads, less what they added at the window's start
        w, x0, y0 = weights.take(later), in_x.take(later), in_y.take(later)
        node = owner.take(later)
        d_newly = np.bincount(node, w * (x0 + covered == 0) - w * (x0 == 0), minlength=m)
        d_lost = np.bincount(node, w * (y0 - left == 1) - w * (y0 == 1), minlength=m)
        touched = np.flatnonzero((d_newly != 0.0) | (d_lost != 0.0))
        recounted = self._decide(newly[touched] + d_newly[touched],
                                 lost[touched] + d_lost[touched], coin[touched])
        changed = np.flatnonzero(recounted != admitted[touched])
        if not changed.size:
            return m, admitted
        # the first node whose decision changes: every node before it was
        # decided as in the sequential pass, so its recount is exact
        j = changed[0]
        admitted[touched[j]] = recounted[j]
        return int(touched[j]) + 1, admitted


def double_greedy(oracle, order, rng) -> frozenset:
    """One pass over `order`; returns the grown set X.

    order must be a permutation of the ground set.  rng supplies the
    inclusion coins (random.Random interface): rng.random() is called
    once per node, in order, whether or not the node's decision needs
    its coin.  gains(v) returns both marginals of node v at once.  An
    oracle that has its own greedy_pass, found by attribute so that
    proxies forwarding attributes reach it too, runs the pass itself.
    """
    greedy_pass = getattr(oracle, "greedy_pass", None)
    if greedy_pass is not None:
        return greedy_pass(order, rng)
    rand = rng.random
    for v in order:
        oracle.apply(v, _admit(*oracle.gains(v), rand()))
    return frozenset(oracle.x)

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
and only through what the members before v decided.  At v's turn newly
counts v's sets with no member admitted before v, and lost those where v
is the last member and every member before it was rejected; both only
fall as members before v are admitted.  The coverage oracle's pass uses
this in the concurrency control by bounds of Pan, Jegelka, Gonzalez,
Bradley & Jordan, "Parallel Double Greedy Submodular Maximization" (NIPS
2014).  It draws every coin up front and decides the nodes in rounds: a
node whose earlier co-members are not all decided yet has counts between
those it would read if all of them were admitted and if all were
rejected, and when its coin falls on one side of both bounds' admission
thresholds, its decision is the sequential pass's, whatever theirs.  The
first open node of the order always has exact bounds, so every round
decides a node; once a round decides fewer than half of the open nodes,
or few remain, the rest take scalar steps in order.  The pass leaves
exactly the sequential pass's members, counters and F.
"""

import numpy as np

from .sampling import INDEX_CHUNK, RACollection

# How far a coin must clear a bound's admission threshold for the bound
# to decide its node (see CoverageOracle._bound_decisions).
MARGIN = 2.0 ** -40
# Open nodes at or below which the pass decides the rest one at a time: a
# round costs about as many numpy calls as this many scalar steps.
STEP_NODES = 16


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

    gains and apply answer and decide one node at a time; greedy_pass runs
    the whole double-greedy pass over this oracle, by bounds, and leaves
    the counters, x and F where the node-by-node pass leaves them.
    """

    def __init__(self, coll: RACollection, price: float, coupon: float,
                 shift: float = 0.0):
        self.coupon = coupon
        self.shift = shift
        self.unit = price * coll.n / len(coll)
        self.coll = coll
        self.weights = coll.weights
        self.count_x = np.zeros(coll.offsets.size - 1, dtype=np.int32)
        self.count_y = coll.sizes().astype(np.int32)
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
        return self._marginals(newly, lost)

    def _marginals(self, newly, lost):
        """(a, b) of nodes whose sets counted newly and lost."""
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

    def _positions(self, order) -> np.ndarray:
        """Each node's position in order, as int32.  Raises ValueError
        unless order is a permutation of 0..n-1: a repeated node would be
        decided twice."""
        n = self.coll.n
        order = np.asarray(order, dtype=np.int64).reshape(-1)
        position = np.full(n, -1, dtype=np.int32)
        if order.size == n and n and 0 <= order.min() and order.max() < n:
            position[order] = np.arange(n, dtype=np.int32)
        if order.size != n or (position < 0).any():
            raise ValueError(f"order must be a permutation of 0..{n - 1}")
        return position

    def _chunks(self, sid):
        """(sets, members) of the collection's entries, INDEX_CHUNK at a
        time: members[j] is a member of stored set sets[j]; sid holds the
        set of every entry."""
        members = self.coll.members
        for lo in range(0, members.size, INDEX_CHUNK):
            yield sid[lo:lo + INDEX_CHUNK], members[lo:lo + INDEX_CHUNK]

    def greedy_pass(self, order, rng) -> frozenset:
        """double_greedy over this oracle, from its initial counters.

        Draws the coins of all the nodes up front, one per node in order,
        decides the nodes by bounds (_by_bounds), and then counts each
        set's admitted members into both counters, since the pass ends
        with X = Y.  Its scratch is a few arrays per node and per stored
        set, one int32 per entry, INDEX_CHUNK entries' worth of chunk
        scratch, and two int32 per entry of the sets still working after
        round 1, more for the entries of the nodes left to scalar steps.
        Raises ValueError unless order is a permutation of 0..n-1, or if a
        stored set has no member."""
        position = self._positions(order)
        offsets = self.coll.offsets
        if (offsets[1:] == offsets[:-1]).any():
            raise ValueError("every stored set must have a member")
        # one coin per node, in order, drawn through a C-level iterator
        coins = np.fromiter(iter(rng.random, 2.0), np.float64, position.size)
        # each entry's stored set, counted up in place from the set starts
        sid = np.zeros(self.coll.members.size, dtype=np.int32)
        sid[offsets[1:-1]] = 1
        np.cumsum(sid, out=sid)
        admitted = self._by_bounds(position, sid, coins)[position]
        self.count_x.fill(0)
        taken = admitted.astype(np.int32)
        for sets, members in self._chunks(sid):
            np.add.at(self.count_x, sets, taken[members])
        self.count_y[:] = self.count_x
        self.x.update(np.flatnonzero(admitted).tolist())
        return frozenset(self.x)

    def _ratio(self, newly, lost):
        """_admit's threshold of nodes whose sets counted newly and lost:
        a' / (a' + b') of the clamped marginals, and 1 where both vanish."""
        a, b = self._marginals(newly, lost)
        a = np.maximum(a, 0.0)
        total = a + np.maximum(b, 0.0)
        return np.divide(a, total, out=np.ones_like(total), where=total != 0.0)

    def _bound_decisions(self, newly_lo, lost_lo, newly_hi, lost_hi, coin):
        """(admitted, decided) of nodes whose exact counts lie between the
        lo and the hi counts, each with its coin: admitted says which
        nodes the bounds admit, decided which ones they decide.

        _admit's threshold is non-decreasing in newly and in lost (a
        threshold of 1 where both marginals vanish fits that order), so
        a coin below the lo counts' threshold admits, and one at or above
        the hi counts' threshold rejects, whatever the exact counts.  As
        computed, a and b are monotone in the counts too, each operation
        rounding monotonically, but the threshold rounds twice more and
        can come out reversed between adjacent counts.  It is then off by
        a few ulps, and no threshold exceeds 1, so the bounds decide only
        a coin that clears their threshold by MARGIN.  A node whose lo
        and hi counts are equal is decided as _admit decides it."""
        exact = (newly_lo == newly_hi) & (lost_lo == lost_hi)
        margin = np.where(exact, 0.0, MARGIN)
        admitted = coin < self._ratio(newly_lo, lost_lo) - margin
        return admitted, admitted | (coin >= self._ratio(newly_hi, lost_hi) + margin)

    def _by_bounds(self, position, sid, coins):
        """The pass's decisions, admitted or not, of the nodes by position:
        position holds each node's position, sid the stored set of every
        entry of the collection, and coins each position's coin.

        Each round bounds the counts of every open node: the lo counts
        take its undecided earlier co-members as admitted, the hi counts
        as rejected.  In terms of a set's lowest admitted and lowest open
        member, the set counts towards the newly bounds of the open
        members before its lowest admitted one, lo only for the lowest
        open one, and towards the lost bounds of its highest member while
        that one is open and no member is admitted, lo only while it is
        the only open one.  _bound_decisions then decides what it can.
        The first open node has exact bounds, so a round decides at least
        one node.  Worst case: every round but the last decides at least
        half of the open nodes, so there are at most log2(n) + 1 rounds;
        once one decides fewer, or at most STEP_NODES nodes stay open,
        those take one scalar step each (_steps).  A chain of nodes each
        hanging on the one before costs a round or two and a step per
        node."""
        n = coins.size
        offsets, weights = self.coll.offsets, self.weights
        every = np.arange(n, dtype=np.int32)
        # round 1: every node is open and none admitted.  Each set's
        # lowest and highest member position live in the counters'
        # buffers, which the pass ends by recounting
        low, high = self.count_x, self.count_y
        low.fill(n)
        high.fill(-1)
        covered = np.zeros(n, dtype=np.int64)
        for sets, members in self._chunks(sid):
            at = position[members]
            np.minimum.at(low, sets, at)
            np.maximum.at(high, sets, at)
            np.add.at(covered, at, weights[sets])
        alone = low == high
        bounds = (self._sums(low, weights, n), self._sums(high[alone], weights[alone], n),
                  covered, self._sums(high, weights, n))
        admitted = np.zeros(n, dtype=bool)
        is_open = np.ones(n + 1, dtype=bool)  # and is_open[n], for no member, False
        is_open[n] = False
        open_pos, slot = every, np.empty(n, dtype=np.int64)
        wpos = wsid = None  # the working sets' entries, once round 1 is done

        def lowest(values):
            """Each working set's least values[p] over its members'
            positions p; n for every other set."""
            out = np.full(weights.size, n, dtype=np.int32)
            if wpos is None:
                for sets, members in self._chunks(sid):
                    np.minimum.at(out, sets, values[position[members]])
            else:
                np.minimum.at(out, wsid, values[wpos])
            return out

        while True:
            got, done = self._bound_decisions(*bounds, coins[open_pos])
            admitted[open_pos[got]] = True
            is_open[open_pos[done]] = False
            if done.all():
                return admitted
            # the working sets: those whose lowest member not rejected is
            # open; in every other set, an admitted member precedes each
            # open one, so the set counts towards none of their bounds
            first = lowest(np.where(admitted | is_open[:n], every, n))
            keep = is_open[first]
            sets = np.flatnonzero(keep)
            if wpos is None:
                wpos, wsid = self._entries_of(keep, sets, position, sid)
            else:
                entries = keep[wsid]
                wpos, wsid = wpos[entries], wsid[entries]
            open_pos = open_pos[~done]
            if 2 * open_pos.size > done.size or open_pos.size <= STEP_NODES:
                self._steps(open_pos, wpos, wsid, admitted, high, coins)
                return admitted
            low_adm = lowest(np.where(admitted, every, n))
            a, o, h, w = low_adm[sets], first[sets], high[sets], weights[sets]
            top = (a == n) & is_open[h]
            alone = top & (o == h)
            k = open_pos.size
            slot[open_pos] = np.arange(k)
            newly_hi = np.zeros(k, dtype=np.int64)
            for lo in range(0, wpos.size, INDEX_CHUNK):
                at, sets_at = wpos[lo:lo + INDEX_CHUNK], wsid[lo:lo + INDEX_CHUNK]
                hit = (at < low_adm[sets_at]) & is_open[at]
                np.add.at(newly_hi, slot[at[hit]], weights[sets_at[hit]])
            bounds = (self._sums(slot[o], w, k), self._sums(slot[h[alone]], w[alone], k),
                      newly_hi, self._sums(slot[h[top]], w[top], k))

    def _entries_of(self, keep, sets, position, sid):
        """(positions, sets), as int32, of every entry of the stored sets
        that keep marks, which are sets, gathered INDEX_CHUNK entries at a
        time."""
        offsets = self.coll.offsets
        size = int((offsets[sets + 1] - offsets[sets]).sum())
        at, of = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
        end = 0
        for chunk, members in self._chunks(sid):
            mine = keep[chunk]
            start, end = end, end + int(np.count_nonzero(mine))
            at[start:end] = position[members[mine]]
            of[start:end] = chunk[mine]
        return at, of

    @staticmethod
    def _sums(at, weights, size):
        """The weights summed by at, into size int64 bins."""
        out = np.zeros(size, dtype=np.int64)
        np.add.at(out, at, weights)
        return out

    def _steps(self, left, wpos, wsid, admitted, high, coins):
        """Decide the open nodes at positions left, ascending, one at a
        time, and mark the admitted ones in admitted.  wpos and wsid hold
        the position and the set of every entry of the sets that can count
        towards their marginals, and high each set's highest position.

        When a node's turn comes, every node before it is decided, so one
        of its sets counts towards newly when no member before it is
        admitted, and towards lost when, besides, it is the set's highest
        member: each set's lowest admitted position answers both."""
        n = coins.size
        low_adm = np.full(high.size, n, dtype=np.int32)
        np.minimum.at(low_adm, wsid, np.where(admitted, np.arange(n), n)[wpos])
        mine = np.zeros(n, dtype=bool)
        mine[left] = True
        entries = np.flatnonzero(mine[wpos])
        entries = entries[np.argsort(wpos[entries], kind="stable")]
        epos, esid = wpos[entries], wsid[entries]
        newly = self.weights[esid].astype(np.float64)
        lost = newly * (high[esid] == epos)
        ends = np.searchsorted(epos, left, "right").tolist()
        for p, lo, hi, coin in zip(left.tolist(), [0] + ends[:-1], ends,
                                   coins[left].tolist()):
            sets = esid[lo:hi]
            free = low_adm[sets] > p
            if _admit(*self._marginals(float(np.dot(newly[lo:hi], free)),
                                       float(np.dot(lost[lo:hi], free))), coin):
                low_adm[sets[free]] = p
                admitted[p] = True


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

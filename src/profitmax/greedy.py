"""Double greedy maximization for nonnegative submodular set functions.

The driver walks the node order once, keeping a growing set X and a
shrinking set Y.  For each node it asks an oracle for the two marginals

    a = h(X + v) - h(X)        b = h(Y - v) - h(Y)

clamps both at zero and admits v with probability a' / (a' + b'),
admitting outright when both clamp to zero.  Estimated oracles add a fixed
shift of 2 eps L* / n to each marginal, which compensates estimation error
up to eps L* / n per evaluation.

Two oracle flavors live here: a generic one that calls an arbitrary
set-function evaluator four times per node (spm), and an incremental one
over a collection of node sets that answers marginals from per-set
coverage counters in time proportional to the node's index size (ra-t and
ra-s over RA sets, rpm over its realizations' reverse-reachable sets).
"""

import numpy as np

from .sampling import RACollection


class FunctionOracle:
    """Marginals via direct evaluation of a set function.

    evaluate(S) must accept a frozenset.  Each marginal costs two
    evaluations, so a full double-greedy pass inspects 4 n sets; when the
    evaluator is a sampler it draws fresh samples per inspection by
    design.  shift is added to every marginal.
    """

    def __init__(self, evaluate, universe, shift: float = 0.0):
        self.evaluate = evaluate
        self.x = set()
        self.y = set(universe)
        self.shift = shift
        self.inspections = 0

    def _value(self, s) -> float:
        self.inspections += 1
        return self.evaluate(frozenset(s))

    def gain_add(self, v) -> float:
        return self._value(self.x | {v}) - self._value(self.x) + self.shift

    def gain_remove(self, v) -> float:
        return self._value(self.y - {v}) - self._value(self.y) + self.shift

    def apply(self, v, included: bool):
        if included:
            self.x.add(v)
        else:
            self.y.discard(v)


class CoverageOracle:
    """Incremental marginals of a coverage profit estimator.

    F(S) = P * n * (sets meeting S) / |sets| - C * |S| over a collection
    of node sets: RA sets for ra-t and ra-s, and for rpm the n
    reverse-reachable sets of each of l realizations, where it equals the
    realizations' mean adopter count times P, less C * |S|.

    Maintains, for every set j, how many of its members are in X and in
    Y.  Adding v to X newly covers exactly the sets containing v with zero
    X-members so far; removing v from Y uncovers exactly those where v is
    the last Y-member.  shift is added to every marginal; F itself is
    evaluated exactly given the collection.
    """

    def __init__(self, coll: RACollection, price: float, coupon: float,
                 shift: float = 0.0):
        self.coll = coll
        self.price = price
        self.coupon = coupon
        self.shift = shift
        self.unit = price * coll.n / len(coll)
        self.count_x = np.zeros(len(coll), dtype=np.int32)
        self.count_y = coll.sizes().astype(np.int32)
        self.x = set()
        self.y = set(range(coll.n))

    def gain_add(self, v) -> float:
        idx = self.coll.sets_containing(v)
        newly = int(np.count_nonzero(self.count_x[idx] == 0))
        return self.unit * newly - self.coupon + self.shift

    def gain_remove(self, v) -> float:
        idx = self.coll.sets_containing(v)
        lost = int(np.count_nonzero(self.count_y[idx] == 1))
        return -self.unit * lost + self.coupon + self.shift

    def apply(self, v, included: bool):
        idx = self.coll.sets_containing(v)
        if included:
            self.x.add(v)
            self.count_x[idx] += 1  # idx has no duplicates: one entry per set
        else:
            self.y.discard(v)
            self.count_y[idx] -= 1

    def current_value(self) -> float:
        """F of the growing side, from the counters."""
        covered = int(np.count_nonzero(self.count_x))
        return self.unit * covered - self.coupon * len(self.x)


def double_greedy(oracle, order, rng) -> frozenset:
    """One pass over `order`; returns the grown set X.

    order must be a permutation of the ground set.  rng supplies the
    inclusion coin flips (random.Random interface).
    """
    rand = rng.random
    for v in order:
        a = oracle.gain_add(v)
        b = oracle.gain_remove(v)
        a_pos = a if a > 0.0 else 0.0
        b_pos = b if b > 0.0 else 0.0
        total = a_pos + b_pos
        included = total == 0.0 or rand() < a_pos / total
        oracle.apply(v, included)
    return frozenset(oracle.x)

"""Sample-count thresholds and accuracy-parameter solvers.

All thresholds are returned as real numbers; callers take the ceiling when
they need an actual sample count.  Arguments follow one convention
throughout: n is the (pruned) node count, big_n the confidence parameter N
(failure probability scales like 1/N), r the normalized discount ratio
(P - C) / P, and the eps arguments are the accuracy knobs of the
respective estimator.
"""

import math
import sys
from dataclasses import dataclass

from .network import ParameterError


# Checks read `if not <condition>` so that nan fails them, and format their
# message only when they refuse: the solvers run them dozens of times a call.


def _check_n(n):
    if not n >= 1:
        raise ParameterError(f"node count must be >= 1, got {n}")
    if not n <= sys.float_info.max:
        raise ParameterError(
            f"node count must be at most {sys.float_info.max:g}, got {n}")


def confidence(n, big_n=None) -> float:
    """The confidence parameter N: big_n, or by default the node count
    raised to 2 so that ln N > 0.  _check range-checks it."""
    if big_n is None:
        _check_n(n)
    return float(max(n, 2) if big_n is None else big_n)


def _check(n, big_n, r, eps_name, eps, top=0.5):
    _check_n(n)
    if not 1.0 < big_n < math.inf:
        raise ParameterError(
            f"confidence parameter N must be finite and exceed 1, got {big_n}")
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"discount ratio must lie in (0, 1], got {r}")
    if not 0.0 < eps < top:
        raise ParameterError(f"{eps_name} must lie in (0, {top:g}), got {eps}")


def _threshold(name: str, num: float, den: float, eps_name: str, eps, r) -> float:
    """num / den, where num grows with the node count and den is (eps r)^2
    up to a constant factor; refused unless a finite positive number,
    which a huge node count, or tiny eps or r, prevent."""
    if not num < math.inf:
        raise ParameterError(f"threshold {name} is not a finite positive number "
                             "at this node count; the node count is too large")
    value = num / den if den > 0.0 else math.inf
    if not 0.0 < value < math.inf:
        raise ParameterError(f"threshold {name} is not a finite positive number at "
                             f"{eps_name}={eps}, r={r}; {eps_name} or r is too small")
    return value


def delta0(n, big_n, eps, r) -> float:
    """Simulations per oracle call for the forward-sampling algorithms."""
    _check(n, big_n, r, "eps", eps)
    return _threshold("delta0", (math.log(8) + math.log(n) + math.log(big_n))
                      * (2.0 * n * n + eps * r * n), eps * eps * r * r, "eps", eps, r)


def delta1(n, big_n, eps1, r) -> float:
    """Reverse samples needed to bound the error of every subset at once."""
    _check(n, big_n, r, "eps1", eps1)
    return _threshold("delta1", (math.log(big_n) + n * math.log(2)) * (2.0 + eps1 * r),
                      eps1 * eps1 * r * r, "eps1", eps1, r)


def delta2(big_n, eps2, r) -> float:
    """Reverse samples needed to bound the error at one fixed subset."""
    _check(1, big_n, r, "eps2", eps2, top=1.0)
    return _threshold("delta2", 2.0 * math.log(big_n), eps2 * eps2 * r * r,
                      "eps2", eps2, r)


def delta1_star(n, big_n, eps1, r) -> float:
    """Martingale counterpart of delta1, used on the doubling schedule."""
    _check(n, big_n, r, "eps1", eps1)
    return _threshold("delta1_star", (math.log(big_n) + n * math.log(2))
                      * (6.0 + 2.0 * eps1 * r), 3.0 * eps1 * eps1 * r * r,
                      "eps1", eps1, r)


def delta2_star(big_n, eps2, r) -> float:
    """Martingale counterpart of delta2; same closed form."""
    return delta2(big_n, eps2, r)


def delta3(big_n, eps1, r) -> float:
    """Forward simulations for the stopping-rule profit check."""
    _check(1, big_n, r, "eps1", eps1)
    return _threshold("delta3", (2.0 + eps1 * r) * math.log(big_n),
                      eps1 * eps1 * r * r, "eps1", eps1, r)


@dataclass(frozen=True)
class Thresholds:
    """All six thresholds evaluated at one parameter point (unrounded)."""

    n: int
    big_n: float
    r: float
    eps: float
    eps1: float
    eps2: float
    delta0: float
    delta1: float
    delta2: float
    delta1_star: float
    delta2_star: float
    delta3: float


def thresholds_at(n, big_n, eps, r, eps1, eps2) -> Thresholds:
    return Thresholds(
        n=n, big_n=big_n, r=r, eps=eps, eps1=eps1, eps2=eps2,
        delta0=delta0(n, big_n, eps, r),
        delta1=delta1(n, big_n, eps1, r),
        delta2=delta2(big_n, eps2, r),
        delta1_star=delta1_star(n, big_n, eps1, r),
        delta2_star=delta2_star(big_n, eps2, r),
        delta3=delta3(big_n, eps1, r),
    )


def search_rat_params(n, big_n, eps, r, step: float = 0.01):
    """Split eps between the two reverse-sampling error terms.

    Scans eps1 over the grid {step, 2 step, ...} subject to eps1 < eps and
    eps2 = 2 (eps - eps1) > 0, and keeps the point minimizing
    max(delta1, delta2).  Ties go to the smaller eps1.  Returns
    (eps1, eps2).
    """
    _check(n, big_n, r, "eps", eps)
    if not step > 0.0:
        raise ParameterError("search step must be positive")
    best = None
    i = 1
    while True:
        eps1 = i * step
        if eps1 >= eps:
            break
        eps2 = 2.0 * (eps - eps1)
        cost = max(delta1(n, big_n, eps1, r), delta2(big_n, eps2, r))
        if best is None or cost < best[0]:
            best = (cost, eps1, eps2)
        i += 1
    if best is None:
        raise ParameterError(
            f"no feasible grid point: step {step} does not fit below eps {eps}")
    return best[1], best[2]


@dataclass(frozen=True)
class RASParams:
    """Solved parameter set for the doubling-schedule algorithm."""

    eps1: float
    eps2: float
    eps3: float
    k: int
    delta1_star: float
    delta2_star: float
    delta3: float
    l_start: int  # RA sets of the first round, ceil(delta2_star)
    l_simulations: int  # forward runs of each stopping check, ceil(delta3)


def solve_ras_params(n, big_n, eps, r, k: int, eps3: float) -> RASParams:
    """Solve the coupled accuracy equations for the doubling schedule.

    Unknowns eps1, eps2 > 0 must satisfy

        (1 - eps2) / (2 (1 + eps3)) - eps1 = 1/2 - eps
        delta1_star(eps1) = 2^k * delta2_star(eps2)

    The first equation gives eps2 as a decreasing affine function of eps1,
    so the mismatch g(eps1) = delta1_star - 2^k delta2_star is strictly
    decreasing, goes to +inf as eps1 -> 0 and to -inf at the eps2 > 0
    boundary.  Bisection therefore finds the unique root.
    """
    _check(n, big_n, r, "eps", eps)
    if not k >= 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    if not k < sys.float_info.max_exp:
        raise ParameterError(f"k must be below {sys.float_info.max_exp} so that "
                             f"2^k is a finite float, got {k}")
    if not eps3 > 0.0:
        raise ParameterError(f"eps3 must be positive, got {eps3}")

    def eps2_of(eps1):
        return 1.0 - 2.0 * (1.0 + eps3) * (0.5 - eps + eps1)

    eps1_max = 1.0 / (2.0 * (1.0 + eps3)) - (0.5 - eps)
    if eps1_max <= 0.0:
        raise ParameterError(
            f"no positive solution exists for eps={eps}, eps3={eps3}: "
            "the accuracy budget is exhausted; decrease eps3 or pick another k")
    scale = float(2 ** k)

    def mismatch(eps1):
        return delta1_star(n, big_n, eps1, r) - scale * delta2_star(big_n, eps2_of(eps1), r)

    lo = eps1_max * 1e-12
    hi = eps1_max * (1.0 - 1e-12)
    if mismatch(lo) < 0.0 or mismatch(hi) > 0.0:
        raise ParameterError(
            f"no root bracketed for k={k}, eps3={eps3}; try a different k or eps3")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mismatch(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * eps1_max:
            break
    eps1 = 0.5 * (lo + hi)
    eps2 = eps2_of(eps1)
    d1s = delta1_star(n, big_n, eps1, r)
    d2s = delta2_star(big_n, eps2, r)
    residual_ratio = abs(d1s - scale * d2s) / max(d1s, scale * d2s)
    residual_budget = abs((1.0 - eps2) / (2.0 * (1.0 + eps3)) - eps1 - (0.5 - eps))
    if residual_ratio > 1e-9 or residual_budget > 1e-9:
        raise ParameterError(
            f"solver failed to converge for k={k}, eps3={eps3}; "
            "try a different k or eps3")
    d3 = delta3(big_n, eps1, r)
    return RASParams(eps1=eps1, eps2=eps2, eps3=eps3, k=k,
                     delta1_star=d1s, delta2_star=d2s, delta3=d3,
                     l_start=math.ceil(d2s), l_simulations=math.ceil(d3))

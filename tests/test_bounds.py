import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitmax import (ParameterError, delta0, delta1, delta1_star, delta2,
                       delta2_star, delta3, search_rat_params,
                       solve_ras_params, thresholds_at)
from profitmax.bounds import confidence

# Frozen reference values, computed independently by hand:
#   delta2 = 2 ln N / (eps2 r)^2 at N=100, eps2=0.2, r=0.1
#   delta3 = (2 + eps1 r) ln N / (eps1 r)^2 at N=e^4, eps1=0.25, r=1
#   delta0 = ln(8 n N) (2 n^2 + eps r n) / (eps r)^2 at n=2, N=2, eps=0.25, r=0.5
#   delta1 = (ln N + n ln 2)(2 + eps1 r) / (eps1 r)^2 at n=3, N=10, eps1=0.2, r=0.5
#   delta1* = (ln N + n ln 2)(6 + 2 eps1 r) / (3 (eps1 r)^2), same point
D2_REF = 23025.850929940447
D3_REF = 144.0
D0_REF = 1829.9085566782555
D1_REF = 920.2255932815149
D1S_REF = 905.6188378326019

REL = 1e-12


def relclose(a, b):
    return abs(a - b) <= REL * max(abs(a), abs(b))


class TestFrozenValues:
    def test_delta2(self):
        assert relclose(delta2(100.0, 0.2, 0.1), D2_REF)

    def test_delta3(self):
        assert relclose(delta3(math.e ** 4, 0.25, 1.0), D3_REF)

    def test_delta0(self):
        assert relclose(delta0(2, 2.0, 0.25, 0.5), D0_REF)

    def test_delta1(self):
        assert relclose(delta1(3, 10.0, 0.2, 0.5), D1_REF)

    def test_delta1_star(self):
        assert relclose(delta1_star(3, 10.0, 0.2, 0.5), D1S_REF)

    def test_delta2_star_equals_delta2(self):
        assert delta2_star(4.0, 0.5, 1.0) == delta2(4.0, 0.5, 1.0)
        assert relclose(delta2(4.0, 0.5, 1.0), 16.0 * math.log(2.0))

    def test_bundle(self):
        t = thresholds_at(3, 10.0, 0.25, 0.5, 0.2, 0.1)
        assert relclose(t.delta1, D1_REF)
        assert relclose(t.delta1_star, D1S_REF)
        assert t.eps1 == 0.2 and t.eps2 == 0.1


class TestValidation:
    @pytest.mark.parametrize("bad", [
        lambda: delta0(0, 10, 0.2, 0.5),
        lambda: delta0(5, 1.0, 0.2, 0.5),
        lambda: delta0(5, 10, 0.6, 0.5),
        lambda: delta0(5, 10, 0.2, 0.0),
        lambda: delta0(5, 10, 0.2, 1.5),
        lambda: delta1(5, 10, 0.5, 0.5),
        lambda: delta2(10, 1.0, 0.5),
        lambda: delta3(10, 0.0, 0.5),
    ])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ParameterError):
            bad()


class TestProperties:
    @given(n=st.integers(2, 200), big_n=st.floats(1.5, 1e6),
           eps1=st.floats(0.01, 0.49), r=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_martingale_bound_never_larger(self, n, big_n, eps1, r):
        # (6 + 2x)/3 <= 2 + x for x >= 0, so delta1* <= delta1 pointwise
        assert delta1_star(n, big_n, eps1, r) <= delta1(n, big_n, eps1, r) * (1 + 1e-12)

    @given(big_n=st.floats(1.5, 1e6), r=st.floats(0.01, 1.0),
           lo=st.floats(0.05, 0.4), hi=st.floats(0.45, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_delta2_decreasing_in_eps2(self, big_n, r, lo, hi):
        assert delta2(big_n, hi, r) < delta2(big_n, lo, r)

    @given(n=st.integers(1, 100), big_n=st.floats(2.0, 1e4),
           eps=st.floats(0.05, 0.45), r=st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_grid_search_beats_nothing(self, n, big_n, eps, r):
        eps1, eps2 = search_rat_params(n, big_n, eps, r)
        assert 0 < eps1 < eps
        assert eps2 == pytest.approx(2.0 * (eps - eps1))


class TestGridSearch:
    def test_matches_brute_rescan(self):
        n, big_n, eps, r, step = 12, 50.0, 0.3, 0.4, 0.01
        eps1, eps2 = search_rat_params(n, big_n, eps, r, step=step)
        best, best_e1 = None, None
        i = 1
        while i * step < eps:
            e1 = i * step
            e2 = 2.0 * (eps - e1)
            cost = max(delta1(n, big_n, e1, r), delta2(big_n, e2, r))
            if best is None or cost < best:
                best, best_e1 = cost, e1
            i += 1
        assert eps1 == best_e1
        assert max(delta1(n, big_n, eps1, r), delta2(big_n, eps2, r)) == best

    def test_budget_identity(self):
        eps = 0.4
        eps1, eps2 = search_rat_params(8, 8.0, eps, 0.25)
        assert eps1 + 0.5 * eps2 == pytest.approx(eps, abs=1e-12)


class TestRASSolver:
    @pytest.mark.parametrize("k,eps3,eps", [(5, 0.1, 0.4), (8, 0.3, 0.45),
                                            (3, 0.05, 0.2), (1, 0.01, 0.3)])
    def test_residuals(self, k, eps3, eps):
        n, big_n, r = 10, 10.0, 0.1
        p = solve_ras_params(n, big_n, eps, r, k, eps3)
        scale = 2.0 ** k
        ratio_res = abs(p.delta1_star - scale * p.delta2_star) \
            / max(p.delta1_star, scale * p.delta2_star)
        budget_res = abs((1.0 - p.eps2) / (2.0 * (1.0 + eps3)) - p.eps1
                         - (0.5 - eps))
        assert ratio_res <= 1e-9
        assert budget_res <= 1e-9
        assert 0 < p.eps1 < 0.5
        assert 0 < p.eps2 < 1

    def test_infeasible_budget_raises(self):
        # eps1_max = 1/(2(1+eps3)) - (1/2 - eps) <= 0 here
        with pytest.raises(ParameterError, match="decrease eps3"):
            solve_ras_params(10, 10.0, 0.05, 0.5, 5, 0.2)

    def test_solution_consistent_with_manual_bisection(self):
        # independent re-derivation of the same root
        n, big_n, eps, r, k, eps3 = 6, 20.0, 0.4, 0.3, 4, 0.1
        p = solve_ras_params(n, big_n, eps, r, k, eps3)

        def g(e1):
            e2 = 1.0 - 2.0 * (1.0 + eps3) * (0.5 - eps + e1)
            d1s = (math.log(big_n) + n * math.log(2)) * (6 + 2 * e1 * r) \
                / (3 * e1 * e1 * r * r)
            d2s = 2.0 * math.log(big_n) / (e2 * e2 * r * r)
            return d1s - 2.0 ** k * d2s

        lo, hi = 1e-9, 1.0 / (2.0 * (1.0 + eps3)) - 0.5 + eps - 1e-9
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert p.eps1 == pytest.approx(0.5 * (lo + hi), rel=1e-6)


class TestOverflowingInputs:
    @pytest.mark.parametrize("call", [
        lambda big_n: delta0(10, big_n, 0.4, 0.1),
        lambda big_n: delta1(10, big_n, 0.2, 0.1),
        lambda big_n: delta2(big_n, 0.2, 0.1),
        lambda big_n: delta3(big_n, 0.2, 0.1),
        lambda big_n: search_rat_params(10, big_n, 0.4, 0.1),
        lambda big_n: solve_ras_params(10, big_n, 0.4, 0.1, 5, 0.1),
    ], ids=["delta0", "delta1", "delta2", "delta3", "rat", "ras"])
    def test_infinite_big_n_rejected(self, call):
        # an infinite N makes every threshold infinite, and its ceiling
        # is no sample count
        with pytest.raises(ParameterError, match="finite"):
            call(math.inf)

    @pytest.mark.parametrize("k", [1024, 5000])
    def test_k_beyond_float_range_rejected(self, k):
        with pytest.raises(ParameterError, match="k must be below 1024"):
            solve_ras_params(10, 10.0, 0.4, 0.1, k, 0.1)

    def test_largest_k_fails_as_a_parameter_error(self):
        # 2^1023 is a float; the solver then finds no bracket
        with pytest.raises(ParameterError, match="no root bracketed"):
            solve_ras_params(10, 10.0, 0.4, 0.1, 1023, 0.1)


class TestConfidence:
    def test_default_is_the_node_count_at_least_two(self):
        assert confidence(1) == 2.0
        assert confidence(7) == 7.0
        assert confidence(7, 3) == 3.0
        assert isinstance(confidence(7), float)


class TestNodeCountBeyondFloats:
    # a node count no float holds is refused, not an OverflowError
    HUGE = 10 ** 400

    @pytest.mark.parametrize("call", [
        lambda n: confidence(n),
        lambda n: delta0(n, 5.0, 0.4, 0.5),
        lambda n: delta1(n, 5.0, 0.2, 0.5),
        lambda n: delta1_star(n, 5.0, 0.2, 0.5),
        lambda n: search_rat_params(n, 5.0, 0.4, 0.5),
        lambda n: solve_ras_params(n, 5.0, 0.4, 0.5, 5, 0.1),
    ], ids=["confidence", "delta0", "delta1", "delta1_star", "rat", "ras"])
    def test_refused(self, call):
        with pytest.raises(ParameterError, match="^node count must be at most "):
            call(self.HUGE)

    def test_largest_float_still_checked_as_a_threshold(self):
        n = int(sys.float_info.max)
        assert confidence(n) == sys.float_info.max
        with pytest.raises(ParameterError, match="threshold delta0 is not a finite"):
            delta0(n, 5.0, 0.4, 0.5)


class TestNodeCountOverflowingThresholds:
    # a node count that a float holds can still overflow a threshold's
    # numerator: the refusal names the node count, not eps or r
    @pytest.mark.parametrize("call,n", [
        (lambda n: delta0(n, 5.0, 0.4, 0.5), 10 ** 160),
        (lambda n: delta1(n, 5.0, 0.2, 0.5), int(sys.float_info.max)),
        (lambda n: delta1_star(n, 5.0, 0.2, 0.5), int(sys.float_info.max)),
    ], ids=["delta0", "delta1", "delta1_star"])
    def test_refusal_names_the_node_count(self, call, n):
        with pytest.raises(ParameterError, match="the node count is too large$"):
            call(n)


class TestNonFiniteThresholds:
    # (eps r)^2 underflows to zero at 1e-300, and its quotient overflows
    # at 1e-155: either way the threshold is no sample count
    @pytest.mark.parametrize("tiny", [1e-300, 1e-155])
    @pytest.mark.parametrize("call,name,param", [
        (lambda t: delta0(10, 10.0, t, 0.5), "delta0", "eps"),
        (lambda t: delta1(10, 10.0, t, 0.5), "delta1", "eps1"),
        (lambda t: delta2(10.0, t, 0.5), "delta2", "eps2"),
        (lambda t: delta1_star(10, 10.0, t, 0.5), "delta1_star", "eps1"),
        (lambda t: delta3(10.0, t, 0.5), "delta3", "eps1"),
    ], ids=["delta0", "delta1", "delta2", "delta1_star", "delta3"])
    def test_tiny_eps_rejected(self, call, name, param, tiny):
        with pytest.raises(ParameterError, match=f"threshold {name} is not a finite "
                           f"positive number at {param}={tiny}"):
            call(tiny)

    @pytest.mark.parametrize("call", [
        lambda r: delta0(10, 10.0, 0.4, r),
        lambda r: delta1(10, 10.0, 0.2, r),
        lambda r: delta2(10.0, 0.2, r),
        lambda r: delta1_star(10, 10.0, 0.2, r),
        lambda r: delta3(10.0, 0.2, r),
    ])
    def test_tiny_r_rejected(self, call):
        with pytest.raises(ParameterError, match="r=1e-300"):
            call(1e-300)

    def test_same_range_message_everywhere(self):
        messages = set()
        for call in (lambda: delta0(10, 10.0, 0.6, 0.5),
                     lambda: search_rat_params(10, 10.0, 0.6, 0.5),
                     lambda: solve_ras_params(10, 10.0, 0.6, 0.5, 5, 0.1)):
            with pytest.raises(ParameterError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"eps must lie in (0, 0.5), got 0.6"}

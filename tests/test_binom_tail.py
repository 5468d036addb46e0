"""Binomial tail kernel against exact integer and rational oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from scipy.special import betainc

from scencert import binom_tail
from scencert.binom_tail import (
    _BETAINC_FLOOR,
    binom_cdf,
    log_binom_cdf,
    log_binom_tails,
    log_sum_exp,
)

from scencert.classic_bounds import clopper_pearson
from scencert.posterior_bounds import CertificateProblem, CoefficientVector, bound_table

from helpers import exact_binom_cdf


class TestLogComb:
    def test_relative_error_grid(self):
        # The package's one rule for ln C(n, k) takes lgamma differences;
        # the worst seen up to n = 10^6 is 1.05e-11.
        rng = np.random.default_rng(2)
        for n in (10, 100, 1000, 10_000, 100_000):
            ks = np.unique(np.r_[rng.integers(0, n + 1, size=40), 1, 2, n // 2, n - 1])
            got = binom_tail._log_comb(n, ks)
            exact = np.array([math.log(math.comb(n, int(k))) for k in ks])
            assert np.all(np.abs(got - exact) <= 2e-11 * np.abs(exact))

    def test_ends_are_zero_and_past_n_is_finite(self):
        n = np.array([0, 1, 7, 1000, 100_000])
        assert np.all(binom_tail._log_comb(n, 0) == 0.0)
        assert np.all(binom_tail._log_comb(n, n) == 0.0)
        assert np.all(np.isfinite(binom_tail._log_comb(n, n + np.array([1, 5, 50, 7, 3]))))


class TestLogSumExp:
    def test_empty_and_all_neg_inf(self):
        assert log_sum_exp([]) == -math.inf
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_matches_direct(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 40)) * 10
            assert log_sum_exp(v) == pytest.approx(
                math.log(np.exp(v).sum()), rel=1e-13
            )

    def test_extreme_shift(self):
        # overflow-free: terms around 1e4 in log space
        v = np.array([10_000.0, 10_000.0 + math.log(2.0)])
        assert log_sum_exp(v) == pytest.approx(10_000.0 + math.log(3.0), rel=1e-14)


def _log_exact(m: int, l: int, x: float) -> float:
    # Scaled by 2^s into [1/2, 2] first, so that tails below the double
    # range keep every digit.
    exact = exact_binom_cdf(m, l, x)
    s = exact.denominator.bit_length() - exact.numerator.bit_length()
    return math.log(float(exact * 2**s)) - s * math.log(2.0)


def _assert_log_close(got, want):
    # Relative in the log, and never looser than 1e-12 in absolute terms
    # (a relative error of 1e-12 in the tail) for tails near one.
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def _tails(m, l, x):
    x = np.asarray(x, dtype=float)
    return log_binom_tails(m, l, np.log(x), np.log1p(-x))


class TestLogBinomTails:
    def test_scalar_m_against_exact(self):
        rng = np.random.default_rng(6)
        for m in (1, 7, 60, 200):
            l = rng.integers(0, m, size=10)
            x = rng.random(10) * 0.98 + 0.01
            got = _tails(m, l, x)
            for gi, li, xi in zip(got, l, x):
                _assert_log_close(gi, _log_exact(m, int(li), float(xi)))

    def test_per_element_m_against_exact(self):
        rng = np.random.default_rng(7)
        m = rng.integers(1, 200, size=40)
        l = np.array([int(rng.integers(0, mi)) for mi in m])
        x = rng.random(40) * 0.98 + 0.01
        got = _tails(m, l, x)
        for gi, mi, li, xi in zip(got, m, l, x):
            _assert_log_close(gi, _log_exact(int(mi), int(li), float(xi)))

    def test_full_mass_is_exactly_zero(self):
        assert np.array_equal(_tails(5, [5, 5], [0.3, 0.9]), [0.0, 0.0])
        per_element = _tails(np.array([0, 3, 40]), [0, 3, 40], [0.5, 0.2, 0.7])
        assert np.array_equal(per_element, [0.0] * 3)
        assert float(_tails(0, 0, 0.5)) == 0.0

    @pytest.mark.parametrize(
        "m, l, x",
        [
            (300, 20, 0.5),  # 4e-60
            (1000, 38, 0.527),  # 4e-255, SciPy 1.17.1's betainc: 5.4e-255
            (1000, 20, 0.526),  # 2e-282
            (600, 5, 0.6),  # 8e-227
            (400, 0, 1.0 - 10**-0.625),  # 1e-250
            # Upper indices in the hundreds.
            (2000, 300, 0.309),  # 8e-61
            (2000, 200, 0.321),  # 4e-121
            (2000, 400, 0.528),  # 3e-200, just above the floor
            (5000, 700, 0.297),  # 4e-150
            # An upper index in the thousands at m = 20000.
            (20000, 3000, 0.25),  # 5e-261
        ],
    )
    def test_deep_tails_against_exact(self, m, l, x):
        want = _log_exact(m, l, x)
        assert want < math.log(1e-50)
        _assert_log_close(float(_tails(m, l, x)), want)

    def test_underflow_falls_back_to_log_space(self):
        # B_2000(1/2; 0) = 2^-2000 underflows the incomplete beta.
        assert betainc(2000.0, 1.0, 0.5) < _BETAINC_FLOOR
        got = float(_tails(2000, 0, 0.5))
        assert math.isfinite(got)
        want = 2000 * math.log(0.5)
        assert abs(got - want) <= 1e-12 * abs(want)
        # B_1000(0.6; 40) is about 7e-320: a subnormal incomplete beta
        # value, below the floor, is recomputed too.
        assert 0.0 < betainc(960.0, 41.0, 0.4) < _BETAINC_FLOOR
        _assert_log_close(float(_tails(1000, 40, 0.6)), _log_exact(1000, 40, 0.6))

    @pytest.mark.parametrize("per_element_m", [False, True])
    def test_mixed_row_equals_element_calls(self, per_element_m):
        l = np.array([0, 40, 5, 1000, 300, 2000, 0])
        x = np.array([0.5, 0.6, 0.01, 0.5, 0.3, 0.4, 0.999])
        m = np.array([2000, 1000, 50, 2000, 2000, 2000, 3]) if per_element_m else 2000
        mm = np.broadcast_to(m, l.shape)
        low = betainc(mm - l, l + 1, 1.0 - x) < _BETAINC_FLOOR
        assert low.any() and not low.all()
        row = _tails(m, l, x)
        single = [float(_tails(int(mi), int(li), float(xi))) for mi, li, xi in zip(mm, l, x)]
        assert np.array_equal(row, single)
        assert np.all(np.isfinite(row)) and np.all(row <= 0.0)


class TestLogSpaceSumMemory:
    def test_clopper_pearson_row_stays_small(self):
        # Its deep tails once built 3,501 x 3,501 term arrays (77 MB traced).
        tracemalloc.start()
        try:
            clopper_pearson(5000, np.arange(5001), 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_slices_do_not_change_a_bit(self, monkeypatch):
        l = np.arange(3001)
        problem = CertificateProblem(30, 1000, 4, 1e-6)  # reaches the log-space sum
        coeffs = CoefficientVector.uniform(problem)
        bounds, grid = clopper_pearson(3000, l, 1e-6), bound_table(problem, coeffs).t
        widest = []
        summed = binom_tail._log_tails_by_sum

        def spy(m, l, log_x, log_1mx):
            widest.append(l.size * (int(l.max()) + 1))
            return summed(m, l, log_x, log_1mx)

        monkeypatch.setattr(binom_tail, "_log_tails_by_sum", spy)
        monkeypatch.setattr(binom_tail, "_BATCH_ELEMENTS", 64)
        assert np.array_equal(clopper_pearson(3000, l, 1e-6), bounds)
        assert np.array_equal(bound_table(problem, coeffs).t, grid)
        assert max(widest) > 64


class TestBinomCdf:
    def test_direct_summation_example(self):
        # (1 + 3) / 8
        assert binom_cdf(3, 1, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_full_sum_is_one(self):
        for n, t in [(1, 0.3), (17, 0.999), (400, 1e-9)]:
            assert binom_cdf(n, n, t) == 1.0

    def test_t_zero_is_one(self):
        for m in (0, 3, 9):
            assert binom_cdf(10, m, 0.0) == 1.0

    def test_t_one_is_zero(self):
        assert binom_cdf(10, 3, 1.0) == 0.0

    def test_paper_anchor_value(self):
        # the prior bound worked example: the tail at its published root
        value = binom_cdf(500, 17, 0.0889)
        assert 0.9e-6 < value < 1.1e-6

    def test_negative_m_convention(self):
        assert binom_cdf(12, -1, 0.4) == 0.0
        assert log_binom_cdf(12, -1, 0.4) == -math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_cdf(5, 6, 0.5)
        with pytest.raises(ValueError):
            binom_cdf(5, 2, 1.5)
        with pytest.raises(ValueError):
            binom_cdf(0, 0, 0.5)
        # One bad element fails an array call.
        with pytest.raises(ValueError):
            log_binom_cdf(5, np.array([2, 6]), 0.5)
        with pytest.raises(ValueError):
            log_binom_cdf(5, 2, np.array([0.5, -0.1]))

    def test_exact_rational_oracle(self):
        # log-space evaluation vs exact big-integer rational summation
        rng = np.random.default_rng(2)
        for _ in range(120):
            n = int(rng.integers(1, 51))
            m = int(rng.integers(0, n))
            t = float(rng.random())
            exact = float(exact_binom_cdf(n, m, t))
            assert binom_cdf(n, m, t) == pytest.approx(exact, abs=1e-10)

    def test_large_n_no_overflow(self):
        value = binom_cdf(100_000, 50_000, 0.5)
        assert 0.49 < value < 0.51

    def test_log_cdf_arrays_match_exact_oracle(self):
        # Every edge case (m < 0, m == n, t = 0, t = 1) sits beside
        # ordinary elements in one broadcast call.
        n = np.array([[12], [40]])
        m = np.array([-1, 0, 5, 11, 12])
        t = np.array([0.0, 0.3, 1.0, 0.999])[:, None, None]
        out = log_binom_cdf(n, m, t)
        assert out.shape == (4, 2, 5)
        for i, j, c in np.ndindex(out.shape):
            exact = exact_binom_cdf(int(n[j, 0]), int(m[c]), float(t[i, 0, 0]))
            expected = math.log(exact) if exact > 0 else -math.inf
            assert out[i, j, c] == pytest.approx(expected, rel=1e-10), (i, j, c)
        assert isinstance(log_binom_cdf(12, 5, 0.3), float)


class TestMonotonicity:
    # Strictness is only assertable where the tail is resolvable in
    # doubles; outside the band the values saturate at 1 (or underflow)
    # and only the slack form of the inequality is meaningful.
    _BAND = (1e-12, 1.0 - 1e-9)

    def test_strictly_decreasing_in_t(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 250:
            n = int(rng.integers(2, 120))
            m = int(rng.integers(0, n))  # m < n
            t1, t2 = np.sort(rng.random(2) * 0.98 + 0.01)
            if t2 - t1 < 1e-6:
                continue
            b1, b2 = binom_cdf(n, m, t1), binom_cdf(n, m, t2)
            assert b2 < b1 + 2e-10
            if self._BAND[0] < b1 < self._BAND[1]:
                assert b1 > b2
                checked += 1

    def test_strictly_decreasing_in_n(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 250:
            n = int(rng.integers(1, 150))
            m = int(rng.integers(0, n + 1))
            t = float(rng.random() * 0.98 + 0.01)
            b_n = binom_cdf(n, m, t)
            b_next = binom_cdf(n + 1, m, t)
            assert b_next < b_n + 2e-10
            if self._BAND[0] < b_next and b_n < self._BAND[1]:
                assert b_next < b_n
                checked += 1

    def test_one_step_recurrence(self):
        # B_{n+1}(t; m) = (1-t) B_n(t; m) + t B_n(t; m-1)
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 200))
            m = int(rng.integers(0, n + 1))
            t = float(rng.random())
            lhs = binom_cdf(n + 1, m, t)
            rhs = (1 - t) * binom_cdf(n, m, t) + t * binom_cdf(n, m - 1, t)
            assert lhs == pytest.approx(rhs, abs=1e-10)

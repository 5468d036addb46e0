"""Fundamental lower limits against exact rational oracles."""

import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from scencert import binom_tail, lower_limits, serialize
from scencert.classic_bounds import apriori_epsilon, bisect
from scencert.lower_limits import (
    attaining_table,
    lower_limit,
    lower_limit_table,
    z_coefficients,
)
from scencert.binom_tail import log_sum_exp
from scencert.posterior_bounds import CertificateProblem, CoefficientVector, bound_table

from helpers import exact_lower_lhs, exact_z

TOL = 1e-10


class TestZCoefficients:
    def test_exact_rational_values(self):
        for n, m, k in [(100, 5, 8), (40, 10, 1), (25, 7, 12), (9, 3, 2)]:
            got = z_coefficients(n, m, k)
            exact = exact_z(n, m, k)
            for j in range(m + 1):
                assert got[j] == pytest.approx(float(exact[j]), rel=1e-12)

    def test_all_positive(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            m = int(rng.integers(0, 40))
            k = int(rng.integers(1, n + 1))
            assert np.all(z_coefficients(n, m, k) > 0.0)

    def test_first_weight_product_form(self):
        # z_0 = prod_{i<k} (n - i) / (n + m - i)
        for n, m, k in [(100, 5, 8), (30, 12, 3)]:
            expected = 1.0
            for i in range(k):
                expected *= (n - i) / (n + m - i)
            assert z_coefficients(n, m, k)[0] == pytest.approx(expected, rel=1e-12)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            z_coefficients(10, 5, 0)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError, match="1 <= k <= n"):
            z_coefficients(3, 2, 4)


def test_mixture_summed_by_parts_is_exact():
    # sum_{j<=l} z_j B_{n+m}(eps; k+j-1) = sum_{i<k+l} pmf_i(eps) W_i with
    # W_i = sum_{j=max(0,i-k+1)}^{l} z_j, in exact rational arithmetic
    eps = Fraction(3, 17)
    for n, m, k, l in [(12, 5, 1, 0), (12, 5, 3, 5), (20, 8, 6, 3), (9, 9, 9, 7)]:
        z = exact_z(n, m, k)
        by_parts = sum(
            comb(n + m, i) * eps**i * (1 - eps) ** (n + m - i)
            * sum(z[max(0, i - k + 1) : l + 1])
            for i in range(k + l)
        )
        assert by_parts == exact_lower_lhs(n, m, k, l, eps)


class TestLowerLimit:
    def test_zero_support_is_zero(self):
        p = CertificateProblem(60, 10, 7, 1e-6)
        for l in range(p.m + 1):
            value = lower_limit(0, l, p)
            assert value.eps == 0.0
            assert not value.degenerate

    def test_no_validation_matches_prior_bound(self):
        # with m = 0, the defining equation collapses to the prior one
        p = CertificateProblem(100, 0, 8, 1e-6)
        for k in (1, 4, 8):
            got = lower_limit(k, 0, p).eps
            assert got == pytest.approx(apriori_epsilon(100, k, 1e-6), abs=2 * TOL)

    def test_exact_rational_bracket_at_root(self):
        # the root is certified by exact arithmetic a grid-step on each side
        beta = 1e-6
        for n, m, k, l in [(30, 8, 3, 5), (25, 10, 1, 2), (20, 5, 6, 5)]:
            p = CertificateProblem(n, m, max(k, 1), beta)
            eps = lower_limit(k, l, p).eps
            below = exact_lower_lhs(n, m, k, l, eps - 1e-6)
            above = exact_lower_lhs(n, m, k, l, eps + 1e-6)
            assert below > Fraction(beta)
            assert above < Fraction(beta)

    def test_dense_grid_scan_cross_check(self):
        beta = 1e-5
        n, m, k, l = 22, 6, 4, 3
        p = CertificateProblem(n, m, 5, beta)
        eps = lower_limit(k, l, p).eps
        z = np.array([float(v) for v in exact_z(n, m, k)])[: l + 1]
        grid = np.linspace(0.0, 1.0, 1_000_001)[1:-1]
        lhs = np.zeros_like(grid)
        for j in range(l + 1):
            # plain linear-domain binomial tail, small enough not to overflow
            tail = np.zeros_like(grid)
            for i in range(k + j):
                tail += comb(n + m, i) * grid**i * (1 - grid) ** (n + m - i)
            lhs += z[j] * tail
        signs = np.sign(lhs - beta)
        flips = np.nonzero(np.diff(signs) < 0)[0]
        assert flips.size == 1
        scanned = 0.5 * (grid[flips[0]] + grid[flips[0] + 1])
        assert abs(eps - scanned) <= 1.5e-6

    def test_monotone_in_l(self):
        p = CertificateProblem(50, 12, 6, 1e-6)
        for k in range(1, p.zeta + 1):
            values = [lower_limit(k, l, p).eps for l in range(p.m + 1)]
            assert all(b >= a - 2 * TOL for a, b in zip(values, values[1:]))

    def test_degenerate_regime_flagged(self):
        # total weight below the confidence level: no root exists
        p = CertificateProblem(10, 10, 1, 0.999999)
        value = lower_limit(1, 0, p)
        assert value.eps == 0.0
        assert value.degenerate

    def test_underflowed_weights_drop_out(self):
        # At m = 4000 the last z_j underflow to 0.  Cell (1, 0) reads
        # z_0 (1 - eps)^(n+m) = beta with z_0 = n / (n + m) = 1/21.
        p = CertificateProblem(200, 4000, 10, 1e-6)
        exact = -np.expm1(np.log(21 * p.beta) / 4200)
        eps = lower_limit(1, 0, p).eps
        assert exact - TOL <= eps <= exact

    def test_residual_at_root(self):
        p = CertificateProblem(60, 8, 5, 1e-6)
        for k in (1, 3, 5):
            for l in (0, 4, 8):
                eps = lower_limit(k, l, p).eps
                lhs = float(exact_lower_lhs(60, 8, k, l, eps))
                assert lhs == pytest.approx(p.beta, rel=1e-5)


class TestLowerLimitRow:
    # Each row k >= 1 starts with 3 to 5 cells without a root, then turns live.
    P = CertificateProblem(10, 10, 3, 0.9)

    @staticmethod
    def scalar_calls(k, ls, p):
        values = [lower_limit(k, int(l), p) for l in ls]
        return (np.array([v.eps for v in values]),
                np.array([v.degenerate for v in values]))

    def test_row_equals_scalar_calls(self):
        p = self.P
        ls = np.arange(p.m + 1)
        for k in range(p.zeta + 1):
            eps, degenerate = lower_limit(k, ls, p)
            want_eps, want_degenerate = self.scalar_calls(k, ls, p)
            assert np.array_equal(eps, want_eps)
            assert np.array_equal(degenerate, want_degenerate)
            if k >= 1:
                assert 3 <= degenerate.sum() <= 5 and not degenerate[-1]
        assert np.all(lower_limit(0, ls, p).eps == 0.0)

    def test_unsorted_cells(self):
        p = self.P
        ls = np.array([7, 0, 10, 3, 3, 5, 1])
        for k in (1, 3):
            eps, degenerate = lower_limit(k, ls, p)
            want_eps, want_degenerate = self.scalar_calls(k, ls, p)
            assert np.array_equal(eps, want_eps)
            assert np.array_equal(degenerate, want_degenerate)

    def test_scalar_call_returns_float_and_bool(self):
        for k, l in [(0, 2), (1, 0), (2, 6)]:
            value = lower_limit(k, l, self.P)
            assert type(value.eps) is float
            assert type(value.degenerate) is bool

    def test_rejects_cells_out_of_range(self):
        with pytest.raises(ValueError):
            lower_limit(1, np.array([0, 11]), self.P)
        with pytest.raises(ValueError):
            lower_limit(1, np.array([-1, 2]), self.P)
        with pytest.raises(ValueError):
            lower_limit(np.array([1, 4]), np.array([0, 2]), self.P)

    def test_sliced_rows_equal_unsliced(self, monkeypatch):
        p = CertificateProblem(30, 12, 4, 1e-3)
        whole = lower_limit_table(p, TOL)
        batch = 40
        monkeypatch.setattr(binom_tail, "_BATCH_ELEMENTS", batch)
        runs = []

        def bisect_spy(value, size, tol):
            runs.append([])

            def value_spy(x, cells):
                runs[-1].append([cells])
                return value(x, cells)

            return bisect(value_spy, size, tol)

        def log_sum_exp_spy(log_terms):
            # cell (k, l) has k + l pmf terms; the padding beyond is -inf
            runs[-1][-1] += [np.isfinite(log_terms).sum(axis=1), log_terms.shape[1]]
            return log_sum_exp(log_terms)

        monkeypatch.setattr(lower_limits, "bisect", bisect_spy)
        monkeypatch.setattr(lower_limits, "log_sum_exp", log_sum_exp_spy)
        sliced = lower_limit_table(p, TOL)
        assert np.array_equal(sliced.eps_lower, whole.eps_lower)
        assert np.array_equal(sliced.degenerate, whole.degenerate)
        # The grid's live cells, in order of k + l, are cut into runs with
        # one solve each: a run is as wide as its largest k + l and holds
        # no more terms than the batch allows, unless it is one cell.
        # Each call evaluates a subset of its run's cells, at that width.
        assert len(runs) > 1
        k, l = np.indices(whole.eps_lower.shape)
        live = (k >= 1) & ~whole.degenerate
        seen, shrank = [], False
        for calls in runs:
            cells, terms, width = calls[0]
            shrank |= calls[-1][0].size < cells.size
            assert np.array_equal(cells, np.arange(terms.size))
            for call_cells, call_terms, call_width in calls:
                assert np.isin(call_cells, cells).all()
                assert np.array_equal(call_terms, terms[call_cells])
                assert call_width == width
            assert width == terms[-1]
            assert terms.size * width <= batch or terms.size == 1
            seen.extend(terms)
        assert np.array_equal(seen, np.sort((k + l)[live]))
        assert shrank


class TestLowerLimitTable:
    def test_layout_and_row_zero(self):
        p = CertificateProblem(40, 6, 4, 1e-6)
        table = lower_limit_table(p)
        assert table.eps_lower.shape == (5, 7)
        assert np.all(table.eps_lower[0] == 0.0)
        assert not table.degenerate.any()

    @pytest.mark.parametrize("problem", [CertificateProblem(10, 10, 3, 0.9),
                                         CertificateProblem(60, 30, 8, 1e-6)])
    def test_rows_equal_row_calls(self, problem):
        # runs span the whole grid, yet each row matches its own one-k call
        table = lower_limit_table(problem, TOL)
        for k in range(problem.zeta + 1):
            eps, degenerate = lower_limit(k, np.arange(problem.m + 1), problem, TOL)
            assert np.array_equal(table.eps_lower[k], eps)
            assert np.array_equal(table.degenerate[k], degenerate)

    def test_dominated_by_any_bound_table(self):
        p = CertificateProblem(100, 5, 8, 1e-6)
        a = CoefficientVector.uniform(p)
        upper = bound_table(p, a, TOL)
        lower = lower_limit_table(p, TOL)
        assert np.all(upper.eps >= lower.eps_lower - 2 * TOL)

    def test_csv_and_json(self):
        p = CertificateProblem(20, 3, 2, 1e-6)
        table = lower_limit_table(p)
        lines = serialize.lower_table_csv(table).strip().split("\n")
        assert lines[0] == "k,l,eps_lower"
        assert len(lines) == 1 + 3 * 4
        doc = json.loads(serialize.lower_table_json(table))
        assert doc["problem"]["n"] == 20
        assert len(doc["grid"]) == 12
        again = lower_limit_table(p)
        assert serialize.lower_table_csv(table) == serialize.lower_table_csv(again)


class TestAttainingTable:
    def test_structure(self):
        p = CertificateProblem(40, 6, 4, 1e-6)
        k, l = 3, 2
        grid = attaining_table(k, l, p)
        target = lower_limit(k, l, p).eps
        assert grid.shape == (5, 7)
        assert np.all(grid[k, : l + 1] == target)
        assert np.all(grid[k, l + 1 :] == 1.0)
        mask = np.ones(5, dtype=bool)
        mask[k] = False
        assert np.all(grid[mask] == 1.0)

    def test_zero_support_row(self):
        p = CertificateProblem(40, 6, 4, 1e-6)
        grid = attaining_table(0, 3, p)
        assert np.all(grid[0, :4] == 0.0)
        assert np.all(grid[0, 4:] == 1.0)

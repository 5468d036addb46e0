"""Coefficient refinement: LP construction, dominance, convergence."""

import dataclasses
import json
import math
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.special import gammaln

from scencert import binom_tail, posterior_bounds
from scencert.binom_tail import _log_comb
from scencert.classic_bounds import bisect
from scencert.lower_limits import lower_limit_table
from scencert.posterior_bounds import BoundTable, CertificateProblem, CoefficientVector
from scencert.posterior_bounds import bound_table
from scencert.posterior_bounds import _SignEvaluator
from scencert.cli import main
import scencert.refinement as refinement
from scencert.refinement import (
    build_refinement_lp,
    dominance_check,
    refine,
)
from scencert.serialize import coefficients_json, parse_coefficients, trace_json
from scencert.simplex import lp_solve

from helpers import exact_binom_cdf, exact_certificate_sign

TOL = 1e-10


def fig_config():
    p = CertificateProblem(100, 5, 8, 1e-6)
    return p, CoefficientVector.uniform(p)


class TestBuildRefinementLp:
    def test_dimensions(self):
        p = CertificateProblem(10, 1, 2, 1e-6)
        a = CoefficientVector.uniform(p)
        lp = build_refinement_lp(bound_table(p, a, TOL))
        assert lp.c.shape == (11,)
        # one row per cell, then the mass floor and the total mass
        assert lp.a.shape == (6 + 2, 11)
        assert lp.lower.shape == lp.upper.shape == (6 + 2,)
        assert np.all(lp.a[-1] == 1.0) and lp.lower[-1] == lp.upper[-1] == 1.0

    def test_rows_scaled_to_unit_max(self):
        p, a = fig_config()
        lp = build_refinement_lp(bound_table(p, a, TOL))
        cell_rows = lp.a[:-2]  # the last two rows are the mass floor and total
        assert np.abs(cell_rows).max(axis=1) == pytest.approx(
            np.ones(cell_rows.shape[0]), rel=1e-12
        )

    def test_baseline_is_feasible_and_not_better_than_optimum(self):
        p, a = fig_config()
        lp = build_refinement_lp(bound_table(p, a, TOL))
        ax = lp.a @ a.values
        assert np.all(ax[:-1] >= lp.lower[:-1] - 1e-9) and np.all(lp.upper[:-1] == np.inf)
        assert ax[-1] == pytest.approx(lp.lower[-1], abs=1e-12) and lp.upper[-1] == lp.lower[-1]
        x = lp_solve(lp)
        assert lp.c @ x >= float(lp.c @ a.values) - 1e-9

    def test_row_values_match_exact_equation(self):
        # Row / rhs is beta C(j,k) t^(j-n) / (C(n,k) B_m(1-t; l)) at the
        # stored root, whatever scale the row was given.
        p = CertificateProblem(12, 2, 3, 1e-6)
        table = bound_table(p, CoefficientVector.uniform(p), TOL)
        lp = build_refinement_lp(table)
        beta = Fraction(p.beta)
        cells = [(k, l) for k in range(p.zeta + 1) for l in range(p.m + 1)]
        assert lp.a.shape[0] == len(cells) + 2
        for (k, l), row, rhs in zip(cells, lp.a, lp.lower):
            t = Fraction(float(table.t[k, l]))
            tail = comb(p.n, k) * exact_binom_cdf(p.m, l, 1 - t)
            expected = [float(beta * comb(j, k) * t ** (j - p.n) / tail)
                        for j in range(k, p.n + 1)]
            np.testing.assert_allclose(row[k:] / rhs, expected, rtol=1e-12)
            assert np.all(row[:k] == 0.0)

    def test_root_stored_as_zero_gets_no_row(self):
        p = CertificateProblem(3, 0, 2, 1e-14)
        table = bound_table(p, CoefficientVector.uniform(p), TOL)
        assert np.count_nonzero(table.t == 0.0) == 1
        lp = build_refinement_lp(table)
        assert lp.a.shape[0] - 2 == table.t.size - 1  # the two mass rows are last
        p = CertificateProblem(2, 0, 1, 1e-300)
        table = bound_table(p, CoefficientVector.uniform(p), TOL)
        with pytest.raises(ValueError, match="every root is 0"):
            build_refinement_lp(table)

    def test_non_finite_row_names_its_first_cell(self, monkeypatch):
        p, a = fig_config()
        table = bound_table(p, a, TOL)
        log_sides = _SignEvaluator.log_sides

        def broken(ev, t, k, l):
            terms, tail = log_sides(ev, t, k, l)
            tail[(k == 4) & np.isin(l, [2, 3])] = np.nan
            return terms, tail

        monkeypatch.setattr(_SignEvaluator, "log_sides", broken)
        # Every root is positive, so cell (4, 2) has row 4 * (m + 1) + 2.
        assert np.all(table.t > 0.0)
        with pytest.raises(ValueError, match=r"^row 26 admits no value: bounds \[nan, inf\]"):
            build_refinement_lp(table)

    @pytest.mark.parametrize("n, m, zeta", [(1000, 1, 999), (2000, 3, 300)])
    def test_objective_past_the_float_range_is_rescaled(self, n, m, zeta):
        # The largest objective term C(j, k) t^(j-n) is near exp(706) at the
        # first size and exp(858) at the second, at or past the float range;
        # the objective, taken from the scaled rows, still peaks at 1.
        p = CertificateProblem(n, m, zeta, 1e-6)
        table = bound_table(p, CoefficientVector.uniform(p), TOL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lp = build_refinement_lp(table)
        assert np.all(np.isfinite(lp.c)) and lp.c.max() == 1.0
        # The same sums over the cells, taken in log space.
        k, l = np.nonzero(table.t > 0.0)
        t, j = table.t[k, l][:, None], np.arange(p.n + 1)
        log_terms = gammaln(j + 1) - gammaln(k[:, None] + 1) - gammaln(
            np.maximum(j - k[:, None], 0) + 1) + (j - p.n) * np.log(t)
        log_c = np.logaddexp.reduce(np.where(j >= k[:, None], log_terms, -np.inf), axis=0)
        np.testing.assert_allclose(lp.c, np.exp(log_c - log_c.max()), rtol=1e-9, atol=1e-300)

    def test_rejects_a_vector_built_for_another_n(self):
        # A hand-built table for n = 100 holding weights for n = 50.
        p, a = fig_config()
        table = BoundTable(p, CoefficientVector.uniform(CertificateProblem(50, 5, 8, 1e-6)),
                           TOL, bound_table(p, a, TOL).t)
        with pytest.raises(ValueError, match="built for n=50, problem has n=100"):
            build_refinement_lp(table)
        with pytest.raises(ValueError, match="built for n=50, problem has n=100"):
            dominance_check(table.coefficients, bound_table(p, a, TOL))

    def test_rejects_bad_tau(self):
        p, a = fig_config()
        table = bound_table(p, a, TOL)
        for tau in (0.0, 2.0):
            with pytest.raises(ValueError, match="tau"):
                build_refinement_lp(table, tau=tau)
            with pytest.raises(ValueError, match="tau"):
                refine(p, a, tau=tau)

    def test_rows_wider_than_a_batch(self):
        # n + 1 = 65,537 entries per row exceed _BATCH_ELEMENTS = 2^16, so
        # each batch holds one cell.
        p = CertificateProblem(65536, 0, 1, 1e-6)
        table = bound_table(p, CoefficientVector.uniform(p), TOL)
        lp = build_refinement_lp(table)
        assert lp.a.shape == (4, 65537)
        np.testing.assert_allclose(lp.a[:2].max(axis=1), 1.0, rtol=1e-12)
        assert np.all(lp.a[1, :1] == 0.0) and np.all(np.isfinite(lp.lower))

    def test_refine_runs_past_n_5000(self, capsys):
        argv = ["refine", "--n", "5001", "--m", "0", "--zeta", "2", "--beta", "1e-6"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("converged after ")

    def test_lp_beyond_32_bit_indices_is_refused_before_any_root(self, monkeypatch, capsys):
        # Lowering the limit stands in for (5000, 22600, 18), whose LP would
        # have 429,421 x 5,001 entries.  The count includes the one cell
        # whose root is 0 here, although it would get no row.
        p = CertificateProblem(3, 0, 2, 1e-14)
        a = CoefficientVector.uniform(p)
        table = bound_table(p, a, TOL)
        entries = ((p.zeta + 1) * (p.m + 1) + 2) * (p.n + 1)
        assert build_refinement_lp(table).a.size == entries - (p.n + 1)
        monkeypatch.setattr(refinement, "_MAX_HIGHS_INDEX", entries)
        assert refine(p, a).termination == "converged"
        monkeypatch.setattr(refinement, "_MAX_HIGHS_INDEX", entries - 1)
        with pytest.raises(ValueError, match="32-bit"):
            build_refinement_lp(table)

        def no_roots(*args, **kwargs):
            raise AssertionError("a root was solved before the refusal")

        monkeypatch.setattr(refinement, "bound_table", no_roots)
        with pytest.raises(ValueError, match="32-bit"):
            refine(p, a)
        assert main(["refine", "--n", "3", "--m", "0", "--zeta", "2", "--beta", "1e-14"]) == 3
        assert "32-bit" in capsys.readouterr().err


class TestDominance:
    def test_baseline_dominates_its_own_table(self):
        p, a = fig_config()
        table = bound_table(p, a, TOL)
        cells, aggregate = dominance_check(a, table)
        assert aggregate
        assert cells.shape == (9, 6)
        assert cells.all()

    def test_refined_dominates_initial_table(self):
        p, a = fig_config()
        trace = refine(p, a)
        initial = trace.iterations[0].table
        _, aggregate = dominance_check(trace.final.coefficients, initial)
        assert aggregate

    def test_root_stored_as_zero_holds(self):
        # At (k=2, l=0) the root lies below tol, so the table stores t = 0.
        p = CertificateProblem(3, 0, 2, 1e-14)
        a = CoefficientVector.uniform(p)
        table = bound_table(p, a, TOL)
        assert table.t[2, 0] == 0.0
        cells, aggregate = dominance_check(a, table)
        assert aggregate
        assert cells.all()


class TestDerivedFields:
    def test_eps_and_coefficients_are_read_from_the_table(self):
        # A table stores its roots alone, and an iterate its table alone,
        # so no record holds an eps or weights that disagree with them.
        p, a = fig_config()
        trace = refine(p, a, TOL)
        table = trace.iterations[0].table
        assert [f.name for f in dataclasses.fields(BoundTable)] == [
            "problem", "coefficients", "tol", "t"]
        with pytest.raises(TypeError):
            BoundTable(p, a, TOL, table.t, table.eps)
        assert table.eps.tobytes() == (1.0 - table.t).tobytes()
        with pytest.raises(AttributeError):
            table.eps = np.zeros_like(table.t)
        for it in trace.iterations:
            assert it.coefficients is it.table.coefficients


class TestRefine:
    def test_converges_with_monotone_iterates(self):
        p, a = fig_config()
        trace = refine(p, a)
        assert trace.termination == "converged"
        assert len(trace.iterations) - 1 <= 50
        for earlier, later in zip(trace.iterations, trace.iterations[1:]):
            assert np.all(later.table.t >= earlier.table.t - 2 * TOL)
            assert later.max_t_increase is not None
        initial = trace.iterations[0].table
        final = trace.final.table
        assert np.all(final.eps <= initial.eps + 2 * TOL)
        assert np.any(initial.eps - final.eps > 1e-6)

    def test_rejects_max_iter_below_one(self):
        p, a = fig_config()
        with pytest.raises(ValueError, match="max_iter >= 1"):
            refine(p, a, max_iter=0)

    def test_fixed_point_is_stationary(self):
        p, a = fig_config()
        trace = refine(p, a)
        again = refine(p, trace.final.coefficients, max_iter=1)
        assert again.iterations[-1].max_t_increase is not None
        assert again.iterations[-1].max_t_increase < 1e-9

    def test_final_respects_lower_limits(self):
        p, a = fig_config()
        trace = refine(p, a)
        lower = lower_limit_table(p, TOL)
        assert np.all(trace.final.table.eps >= lower.eps_lower - 2 * TOL)

    def test_intermediate_coefficients_stay_valid(self):
        p, a = fig_config()
        trace = refine(p, a)
        for it in trace.iterations:
            values = it.coefficients.values
            assert np.all(values >= 0.0)
            assert values.sum() == pytest.approx(1.0, abs=1e-9)
            assert values[p.zeta : p.n].sum() > 0.0

    def test_invalid_candidate_ends_in_lp_failure(self, monkeypatch):
        # The second solve returns weights with no mass on zeta..n-1.
        p, a = fig_config()
        first_step = refine(p, a, max_iter=1).final.table
        calls = []

        def second_solve_invalid(lp):
            calls.append(None)
            if len(calls) == 1:
                return lp_solve(lp)
            x = np.zeros(p.n + 1)
            x[: p.zeta] = 1.0 / p.zeta
            return x

        monkeypatch.setattr(refinement, "lp_solve", second_solve_invalid)
        trace = refine(p, a)
        assert trace.termination == "lp_failure"
        assert len(trace.iterations) == 2
        np.testing.assert_array_equal(trace.final.table.t, first_step.t)

    def test_candidate_lowering_a_root_ends_in_lp_failure(self, monkeypatch):
        # All mass on index 50 is a valid vector whose every root is lower
        # than the uniform vector's.
        p, a = fig_config()
        x = np.zeros(p.n + 1)
        x[50] = 1.0
        monkeypatch.setattr(refinement, "lp_solve", lambda lp: x)
        trace = refine(p, a)
        assert trace.termination == "lp_failure"
        assert len(trace.iterations) == 1
        np.testing.assert_array_equal(trace.final.table.t, bound_table(p, a, TOL).t)

    def test_trace_json_is_an_iteration_array(self):
        p = CertificateProblem(30, 2, 3, 1e-6)
        a = CoefficientVector.uniform(p)
        trace = refine(p, a)
        doc = json.loads(trace_json(trace))
        assert isinstance(doc, list)
        assert doc[0]["iter"] == 0
        assert doc[0]["max_t_increase"] is None
        assert len(doc[0]["coefficients"]) == 31
        assert len(doc[0]["eps_grid"]) == 4
        assert doc[1]["max_t_increase"] > 0.0

    def test_coefficient_file_round_trip(self):
        p = CertificateProblem(30, 2, 3, 1e-6)
        a = CoefficientVector.uniform(p)
        trace = refine(p, a)
        text = coefficients_json(trace.final.coefficients.values)
        reloaded = CoefficientVector(parse_coefficients(text), p)
        table_orig = trace.final.table
        table_back = bound_table(p, reloaded, TOL)
        assert np.abs(table_back.eps - table_orig.eps).max() <= 1e-8


def per_row_lp(table, p, tau=refinement.DEFAULT_TAU):
    """The refinement LP (c, a, lower, upper) built one grid row at a time
    from per-k log terms ln(beta C(k + i, k) t^i), i = 0..n-k, with the
    objective summed from those terms under a running shift that keeps its
    largest term at most exp(obj_log_cap)."""
    n, ev, obj_log_cap = p.n, _SignEvaluator(p, table.coefficients), 600.0
    a = np.zeros((np.count_nonzero(table.t > 0.0) + 2, n + 1))
    lower, objective, obj_shift, start = np.empty(a.shape[0]), np.zeros(n + 1), 0.0, 0
    for k in range(p.zeta + 1):
        l = np.flatnonzero(table.t[k] > 0.0)
        t = table.t[k, l]
        log_t, i = np.log(t), np.arange(n - k + 1)
        terms = ev.log_beta + _log_comb(k + i, k) + i * log_t[:, None]
        tail = ev._tail_side(log_t, np.log1p(-t), k, l, ev.m)
        top = terms.max(axis=1)
        rows = slice(start, start + l.size)
        lower[rows] = np.exp(tail - top)
        log_t_n = (n - k) * log_t
        log_top = np.max(top - ev.log_beta - log_t_n, initial=-math.inf)
        shift = max(obj_shift, float(log_top) - obj_log_cap)
        objective *= math.exp(obj_shift - shift)
        obj_shift = shift
        log_obj = terms - ev.log_beta
        log_obj -= (log_t_n + obj_shift)[:, None]
        objective[k:] += np.exp(log_obj, out=log_obj).sum(axis=0)
        terms -= top[:, None]
        np.exp(terms, out=a[rows, k:])
        start += l.size
    a[-2, p.zeta : n] = 1.0
    a[-1] = 1.0
    lower[-2:] = tau, 1.0
    upper = np.full(a.shape[0], np.inf)
    upper[-1] = 1.0
    return objective / objective.max(), a, lower, upper


def count_margin_evals(monkeypatch):
    """Record, for each grid solve, whether it had a guess and the margin
    evaluations of each cell."""
    solves = []

    def counted(value, size, tol, guess=None):
        evals = np.zeros(size, dtype=int)
        solves.append((guess is not None, evals))

        def counted_value(x, cells):
            evals[cells] += 1
            return value(x, cells)

        return bisect(counted_value, size, tol, guess)

    monkeypatch.setattr(posterior_bounds, "bisect", counted)
    return solves


class TestWarmSteps:
    """Each step's grid starts from the previous roots, and its LP is built
    in batches of cells."""

    @pytest.mark.parametrize("n, m, zeta", [(60, 8, 5), (80, 10, 6), (100, 10, 8),
                                            (300, 30, 10)])
    def test_warm_tables_equal_cold_tables(self, n, m, zeta):
        p = CertificateProblem(n, m, zeta, 1e-6)
        trace = refine(p, CoefficientVector.uniform(p), TOL)
        for it in trace.iterations:
            assert np.array_equal(it.table.t, bound_table(p, it.coefficients, TOL).t)

    def test_some_warm_cell_moves_down(self):
        # The equality above covers roots that fall back within 2 tol.
        p = CertificateProblem(300, 30, 10, 1e-6)
        tables = [it.table.t for it in refine(p, CoefficientVector.uniform(p), TOL).iterations]
        assert any(np.any(new < old) for old, new in zip(tables, tables[1:]))

    @pytest.mark.parametrize("n, m, zeta", [(100, 5, 8), (100, 10, 8)])
    def test_margin_evaluations_per_cell(self, monkeypatch, n, m, zeta):
        solves = count_margin_evals(monkeypatch)
        p = CertificateProblem(n, m, zeta, 1e-6)
        trace = refine(p, CoefficientVector.uniform(p), TOL)
        assert [warm for warm, _ in solves] == [False] + [True] * (len(trace.iterations) - 1)
        assert solves[-1][1].mean() <= 3.0
        bound_table(p, trace.iterations[1].coefficients, TOL)
        assert solves[1][1].mean() <= solves[-1][1].mean()  # step 1 against its cold solve

    @pytest.mark.parametrize("n, m, zeta", [(100, 10, 8), (1000, 1, 999)])
    def test_batched_lp_equals_per_row_build(self, n, m, zeta):
        p = CertificateProblem(n, m, zeta, 1e-6)
        for it in refine(p, CoefficientVector.uniform(p), TOL, max_iter=1).iterations:
            lp = build_refinement_lp(it.table)
            c, a, lower, upper = per_row_lp(it.table, p)
            # The objective is summed in another order than the oracle's.
            np.testing.assert_allclose(lp.c, c, rtol=1e-12)
            assert np.array_equal(lp.a, a) and np.array_equal(lp.lower, lower)
            assert np.array_equal(lp.upper, upper)

    def test_rows_split_into_batches(self, monkeypatch):
        # A few rows per batch give the same program as one batch.
        p, a = fig_config()
        table = bound_table(p, a, TOL)
        whole = build_refinement_lp(table)
        monkeypatch.setattr(binom_tail, "_BATCH_ELEMENTS", 3 * (p.n + 1) * (p.m + 1))
        split = build_refinement_lp(table)
        for name in ("c", "a", "lower", "upper"):
            assert np.array_equal(getattr(whole, name), getattr(split, name)), name

    @pytest.mark.parametrize("cells_per_batch", [1, 18])
    def test_row_without_roots_between_batches(self, monkeypatch, cells_per_batch):
        # A grid row whose roots are all 0 gets no LP rows, whether a batch
        # holds one cell or several grid rows.
        p, a = fig_config()
        t = bound_table(p, a, TOL).t.copy()
        t[[0, 4, 5, -1]] = 0.0
        table = BoundTable(p, a, TOL, t)
        monkeypatch.setattr(binom_tail, "_BATCH_ELEMENTS", cells_per_batch * (p.n + 1))
        lp = build_refinement_lp(table)
        c, a, lower, upper = per_row_lp(table, p)
        np.testing.assert_allclose(lp.c, c, rtol=1e-12)
        assert np.array_equal(lp.a, a) and np.array_equal(lp.lower, lower)
        assert np.array_equal(lp.upper, upper)


@pytest.mark.xfail(strict=True, reason=(
    "refined weights make LP rows tight, so a root sits on its grid point: the "
    "float margin there reads 0.0 while the exact one is slightly negative"))
@pytest.mark.parametrize("n, m, zeta", [(100, 10, 8), (60, 8, 5)])
def test_refined_roots_are_safe_in_exact_arithmetic(n, m, zeta):
    # Known unsafe cells: (1, 5) and (3, 4) at (100, 10, 8), (0, 8) at (60, 8, 5).
    p = CertificateProblem(n, m, zeta, 1e-6)
    table = refine(p, CoefficientVector.uniform(p), TOL).iterations[-1].table
    for (k, l), root in np.ndenumerate(table.t):
        if root > 0.0:
            assert exact_certificate_sign(root, k, l, p, table.coefficients) >= 0, (k, l)

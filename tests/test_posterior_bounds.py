"""Two-indexed certificate grids: roots, tables, orderings, serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from scencert import binom_tail, lower_limits, posterior_bounds, serialize
from scencert.classic_bounds import bisect, clopper_pearson
from scencert.lower_limits import lower_limit_table
from scencert.posterior_bounds import (
    CertificateProblem,
    CoefficientVector,
    bound_table,
    certificate_sign,
    solve_root,
    wait_and_judge,
)
from scencert.refinement import refine

from helpers import dense_margin, scan_root

TOL = 1e-10


def uniform_problem(n, m, zeta, beta=1e-6):
    p = CertificateProblem(n, m, zeta, beta)
    return p, CoefficientVector.uniform(p)


class TestProblemValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            CertificateProblem(0, 5, 1, 0.5)
        with pytest.raises(ValueError):
            CertificateProblem(10, -1, 2, 0.5)
        with pytest.raises(ValueError):
            CertificateProblem(10, 5, 10, 0.5)  # zeta must stay below n
        with pytest.raises(ValueError):
            CertificateProblem(10, 5, 0, 0.5)
        with pytest.raises(ValueError):
            CertificateProblem(10, 5, 2, 1.0)


class TestCoefficientVector:
    def test_uniform_sums_to_one(self):
        p = CertificateProblem(40, 3, 5, 1e-6)
        a = CoefficientVector.uniform(p)
        assert a.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert a.scheme == "uniform"

    def test_renormalizes_small_drift(self):
        p = CertificateProblem(9, 0, 2, 1e-6)
        raw = np.full(10, 0.1)
        raw[0] += 5e-10  # within the renormalization window
        a = CoefficientVector(raw, p)
        assert a.values.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        p = CertificateProblem(9, 0, 2, 1e-6)
        with pytest.raises(ValueError):
            CoefficientVector(np.full(10, 0.11), p)

    def test_rejects_negative(self):
        p = CertificateProblem(9, 0, 2, 1e-6)
        raw = np.full(10, 0.1)
        raw[3] = -0.1
        raw[4] = 0.3
        with pytest.raises(ValueError):
            CoefficientVector(raw, p)

    def test_rejects_point_mass_at_n(self):
        # no mass on zeta..n-1 means some cells have no root
        p = CertificateProblem(9, 0, 2, 1e-6)
        raw = np.zeros(10)
        raw[9] = 1.0
        with pytest.raises(ValueError):
            CoefficientVector(raw, p)

    def test_wrong_length(self):
        p = CertificateProblem(9, 0, 2, 1e-6)
        with pytest.raises(ValueError):
            CoefficientVector(np.full(9, 1 / 9), p)

    def test_rejects_nan(self):
        p = CertificateProblem(9, 0, 2, 1e-6)
        raw = np.full(10, 0.1)
        raw[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            CoefficientVector(raw, p)


class TestCertificateSign:
    def test_positive_near_zero(self):
        p, a = uniform_problem(30, 6, 4)
        for k in (0, 2, 4):
            for l in (0, 3, 6):
                assert certificate_sign(1e-9, k, l, p, a) == 1

    def test_negative_near_one(self):
        p, a = uniform_problem(30, 6, 4)
        for k in (0, 2, 4):
            for l in (0, 3, 6):
                assert certificate_sign(1.0 - 1e-12, k, l, p, a) == -1

    def test_brackets_solved_roots(self):
        p, a = uniform_problem(25, 5, 3)
        table = bound_table(p, a, TOL)
        for k in range(p.zeta + 1):
            for l in range(p.m + 1):
                t = table.t[k, l]
                assert certificate_sign(t - 2 * TOL, k, l, p, a) >= 0
                assert certificate_sign(t + 2 * TOL, k, l, p, a) < 0

    def test_requires_interior_t(self):
        p, a = uniform_problem(10, 0, 2)
        with pytest.raises(ValueError):
            certificate_sign(0.0, 0, 0, p, a)
        with pytest.raises(ValueError):
            certificate_sign(1.0, 0, 0, p, a)


class TestSolveRoot:
    def test_against_dense_sign_scan(self):
        for n, m, k, l in [(20, 4, 0, 4), (25, 6, 3, 2), (15, 3, 1, 0)]:
            p, a = uniform_problem(n, m, max(k, 2), 1e-6)
            root = solve_root(k, l, p, a, tol=TOL)
            scanned = scan_root(n, m, k, l, p.beta, a.values)
            assert abs(root - scanned) <= 1.5e-6

    def test_published_point_value(self):
        p, a = uniform_problem(500, 500, 18)
        root = solve_root(3, 2, p, a, tol=TOL)
        assert 1 - root == pytest.approx(0.0268, abs=5e-4)

    def test_warm_start_equals_cold_start(self):
        p, a = uniform_problem(30, 8, 5)
        table = bound_table(p, a, TOL)
        for k in (0, 3, 5):
            for l in (0, 4, 7):
                cold = solve_root(k, l, p, a, tol=TOL)
                assert abs(cold - table.t[k, l]) <= 2 * TOL

    def test_rejects_coefficients_without_mass_above_zeta(self):
        # Valid for zeta = 10, but (50, 10, 45) needs mass on 45..49.
        values = np.zeros(51)
        values[10:20] = 0.1
        coeffs = CoefficientVector(values, CertificateProblem(50, 10, 10, 1e-6))
        p = CertificateProblem(50, 10, 45, 1e-6)
        with pytest.raises(ValueError, match="positive mass"):
            bound_table(p, coeffs, TOL)
        with pytest.raises(ValueError, match="positive mass"):
            solve_root(0, 0, p, coeffs, TOL)

    def test_rejects_coefficients_built_for_another_n(self):
        _, coeffs = uniform_problem(40, 5, 3)
        p = CertificateProblem(50, 5, 3, 1e-6)
        for solve in (lambda: solve_root(1, 2, p, coeffs, TOL),
                      lambda: bound_table(p, coeffs, TOL),
                      lambda: certificate_sign(0.5, 1, 2, p, coeffs),
                      lambda: refine(p, coeffs, TOL)):
            with pytest.raises(ValueError, match="built for n=40"):
                solve()

    def test_array_of_cells_equals_single_cells(self):
        p, a = uniform_problem(30, 8, 4)
        l = np.array([0, 3, 8, 5])
        trials = np.array([0, 3, 8, 6])
        roots = solve_root(2, l, p, a, TOL, m=trials)
        for root, li, mi in zip(roots, l, trials):
            cell = CertificateProblem(30, int(mi), 4, 1e-6)
            assert root == solve_root(2, int(li), cell, a, TOL)
        assert np.array_equal(solve_root(2, l, p, a, TOL), bound_table(p, a, TOL).t[2, l])

    def test_arrays_of_k_l_and_m_equal_grid_cells(self):
        p, a = uniform_problem(30, 8, 4)
        k = np.array([0, 4, 2, 3, 1, 4, 2])
        l = np.array([0, 8, 5, 0, 3, 2, 5])
        trials = np.array([0, 8, 6, 2, 3, 5, 8])
        roots = solve_root(k, l, p, a, TOL, m=trials)
        for root, ki, li, mi in zip(roots, k, l, trials):
            grid = bound_table(CertificateProblem(30, int(mi), 4, 1e-6), a, TOL)
            assert root == grid.t[ki, li]
        table = bound_table(p, a, TOL)
        assert np.array_equal(solve_root(k, l, p, a, TOL), table.t[k, l])
        assert np.array_equal(solve_root(np.arange(5), 3, p, a, TOL), table.t[:, 3])
        assert type(solve_root(2, 3, p, a, TOL)) is float

    @pytest.mark.parametrize("k, l, trials, message", [
        ([0, 2, 5], 1, None, "k <= zeta=4"),
        ([0, -1], [1, 2], None, "k <= zeta=4"),
        ([0, 1], [1, 9], None, "l <= m <= 8"),
        ([0, 1], [1, 3], [2, 2], "l <= m <= 8"),
        ([0, 1], 0, [2, 9], "l <= m <= 8"),
    ])
    def test_refuses_a_cell_out_of_range_inside_an_array(self, k, l, trials, message):
        p, a = uniform_problem(30, 8, 4)
        with pytest.raises(ValueError, match=message):
            solve_root(np.array(k), np.array(l), p, a, TOL, m=trials)

    def test_margin_of_a_cell_does_not_depend_on_its_batch(self, monkeypatch):
        # Mixed (k, l) cells in shuffled order, split across many batches,
        # give bit for bit the margins of one-cell calls, for the uniform
        # closed form and for a sparse vector's support sum.  A uniform
        # cell counts 1 term and a sparse one two rows of 4, so 64 splits both.
        monkeypatch.setattr(binom_tail, "_BATCH_ELEMENTS", 64)
        p, a = uniform_problem(60, 40, 12)
        rng = np.random.default_rng(5)
        k = rng.integers(0, p.zeta + 1, 500)
        l = rng.integers(0, p.m + 1, 500)
        t = rng.uniform(0.01, 0.99, 500)
        sparse = np.zeros(p.n + 1)
        sparse[[3, 12, 20, 59]] = 0.25
        for coeffs in (a, CoefficientVector(sparse, p)):
            ev = posterior_bounds._SignEvaluator(p, coeffs)
            together = ev.margin(t, k, l)
            alone = [ev.margin([ti], ki, [li])[0] for ti, ki, li in zip(t, k, l)]
            assert np.array_equal(together, alone)

    def test_uniform_paper_grid_is_one_batch_per_margin_call(self, monkeypatch):
        # Equal weights build one tail per cell, so the whole (500, 500, 18)
        # grid of 9,519 cells fits one batch of _BATCH_ELEMENTS terms.
        calls = {"margin": 0, "_margin": 0}
        for name in calls:
            method = getattr(posterior_bounds._SignEvaluator, name)

            def counted(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(posterior_bounds._SignEvaluator, name, counted)
        bound_table(*uniform_problem(500, 500, 18))
        assert calls["margin"] > 0
        assert calls["_margin"] == calls["margin"]


def test_uniform_evaluator_state_is_small():
    # Equal weights read ln C(n, k) for k <= zeta only; an O(n) table of
    # ln x! once took 15 MB traced at n = 10^6.
    p, a = uniform_problem(1_000_000, 10, 5)
    tracemalloc.start()
    try:
        posterior_bounds._SignEvaluator(p, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def assert_margins_match_dense_sum(p, a):
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 1.0, 200)
    k = rng.integers(0, p.zeta + 1, 200)
    l = rng.integers(0, p.m + 1, 200)
    margin = posterior_bounds._SignEvaluator(p, a).margin(t, k, l)
    assert np.abs(margin - dense_margin(t, k, l, p, a)).max() <= 1e-11


class TestMarginAgreement:
    """The closed-form and support-only polynomial sides against one plain
    log-sum-exp over all n + 1 terms, at random cells and points."""

    @pytest.mark.parametrize("floor", [binom_tail._BETAINC_FLOOR, 1.0],
                             ids=["betainc", "summed-tails"])
    @pytest.mark.parametrize("n, m, zeta", [
        (100, 100, 18), (500, 500, 18), (2000, 200, 10), (300, 30, 150), (60, 10, 55),
    ])
    def test_uniform_weights(self, monkeypatch, n, m, zeta, floor):
        # A floor of 1 sends every tail, on both sides, to the summed route.
        monkeypatch.setattr(binom_tail, "_BETAINC_FLOOR", floor)
        assert_margins_match_dense_sum(*uniform_problem(n, m, zeta))

    @pytest.mark.parametrize("n, m, zeta", [(100, 10, 8), (300, 30, 10), (500, 100, 18)])
    def test_refined_weights(self, n, m, zeta):
        p, a = uniform_problem(n, m, zeta)
        refined = refine(p, a, TOL).iterations[-1].table.coefficients
        assert np.count_nonzero(refined.values) < n
        assert_margins_match_dense_sum(p, refined)


class TestBoundTable:
    def test_last_column_is_wait_and_judge(self):
        # the l = m column carries no validation information
        p, a = uniform_problem(50, 30, 10)
        table = bound_table(p, a, TOL)
        judged = wait_and_judge(p, a, TOL)
        assert np.array_equal(table.eps[:, -1], judged)

    def test_published_wait_and_judge_values(self):
        p, a = uniform_problem(500, 0, 18)
        assert wait_and_judge(p, a, TOL)[3] == pytest.approx(0.0486, abs=5e-4)
        p2, a2 = uniform_problem(200, 0, 18)
        assert wait_and_judge(p2, a2, TOL)[3] == pytest.approx(0.1176, abs=5e-4)

    def test_strictly_increasing_in_l_up_to_slack(self):
        p, a = uniform_problem(50, 30, 10)
        table = bound_table(p, a, TOL)
        diffs = np.diff(table.eps, axis=1)
        assert diffs.min() > -2 * TOL

    def test_nondecreasing_in_k(self):
        p, a = uniform_problem(50, 30, 10)
        table = bound_table(p, a, TOL)
        assert np.diff(table.eps, axis=0).min() > -2 * TOL

    def test_eps_in_open_unit_interval(self):
        p, a = uniform_problem(50, 30, 10)
        table = bound_table(p, a, TOL)
        assert table.eps.min() > 0.0
        assert table.eps.max() < 1.0

    @pytest.mark.parametrize("n, m, zeta", [(100, 100, 5), (500, 500, 18), (40, 0, 4),
                                            (300, 30, 10)])
    def test_wait_and_judge_is_the_m0_grid(self, n, m, zeta):
        p, a = uniform_problem(n, m, zeta)
        grid = bound_table(CertificateProblem(n, 0, zeta, p.beta), a, TOL)
        assert np.array_equal(wait_and_judge(p, a, TOL), grid.eps[:, 0])

    def test_wait_and_judge_matches_any_m_last_column(self):
        p, a = uniform_problem(40, 5, 6)
        table = bound_table(p, a, TOL)
        judged = wait_and_judge(p, a, TOL)
        assert np.array_equal(judged, table.eps[:, 5])


def count_root_evals(monkeypatch):
    """Replace the root kernel of both grid solvers with one that records
    the evaluations per cell of each ``bisect`` call.  Every step evaluates
    each cell still open, so the most per cell is the call's step count."""
    solves = []

    def counted(value, size, tol, guess=None):
        evals = np.zeros(size, dtype=int)
        solves.append(evals)

        def counted_value(x, cells):
            evals[cells] += 1
            return value(x, cells)

        return bisect(counted_value, size, tol, guess)

    monkeypatch.setattr(posterior_bounds, "bisect", counted)
    monkeypatch.setattr(lower_limits, "bisect", counted)
    return solves


class TestRootSteps:
    """No cell stays locked into plain bisection's L + 1 = 35 points at the
    default tolerance, so an array solve ends with its fastest cells.  The
    bounds leave two steps over the counts seen with SciPy 1.17, for other
    versions of ``betainc``."""

    @pytest.mark.parametrize("n, m, zeta, most", [(100, 100, 18, 13), (500, 500, 18, 16)])
    def test_paper_grids(self, monkeypatch, n, m, zeta, most):
        solves = count_root_evals(monkeypatch)
        bound_table(*uniform_problem(n, m, zeta), TOL)
        [evals] = solves
        assert evals.max() <= most

    def test_cell_that_regula_falsi_approaches_from_one_side(self, monkeypatch):
        solves = count_root_evals(monkeypatch)
        solve_root(13, 41, *uniform_problem(100, 100, 18), TOL)
        [evals] = solves
        assert evals.max() <= 12

    def test_lower_limit_grid(self, monkeypatch):
        solves = count_root_evals(monkeypatch)
        lower_limit_table(CertificateProblem(200, 400, 10, 1e-6), TOL)
        assert max(evals.max() for evals in solves) <= 17


class TestIncrementalMonotonicity:
    def test_one_more_validation_sample(self):
        cases = 0
        rng = np.random.default_rng(21)
        while cases < 200:
            n = int(rng.integers(12, 50))
            m = int(rng.integers(1, 9))
            zeta = int(rng.integers(1, min(7, n - 1) + 1))
            beta = float(10 ** rng.uniform(-7, -1))
            p1 = CertificateProblem(n, m, zeta, beta)
            p2 = CertificateProblem(n, m + 1, zeta, beta)
            a = CoefficientVector.uniform(p1)
            e1 = bound_table(p1, a, TOL).eps
            e2 = bound_table(p2, a, TOL).eps
            # same l tightens, l+1 loosens past the old value, top edge equal
            assert (e1 - e2[:, :-1]).min() > -2 * TOL
            assert (e2[:, 1:] - e1).min() > -2 * TOL
            assert np.abs(e2[:, -1] - e1[:, -1]).max() <= 1e-8
            cases += e1.size

    def test_no_validation_info_identity_chain(self):
        p, a = uniform_problem(40, 7, 5)
        table = bound_table(p, a, TOL)
        base = wait_and_judge(p, a, TOL)
        assert np.abs(table.eps[:, -1] - base).max() <= 1e-8
        # every cell with l < m sits strictly below the no-info value
        for k in range(p.zeta + 1):
            for l in range(p.m):
                assert table.eps[k, l] < base[k] + 2 * TOL


class TestClopperPearsonParameterization:
    def test_tail_mixture_stays_below_confidence(self):
        # the admissibility inequality behind using eta_m as a certificate
        rng = np.random.default_rng(22)
        m, beta = 40, 1e-4
        etas = np.array([clopper_pearson(m, l, beta) for l in range(m + 1)])
        for _ in range(200):
            t = float(rng.random() * 0.998 + 1e-3)
            total = 0.0
            for l in range(m + 1):
                if t < 1.0 - etas[l]:
                    total += math.comb(m, l) * t ** (m - l) * (1 - t) ** l
            assert total < beta


class TestSerialization:
    def test_csv_shape_and_stability(self):
        p, a = uniform_problem(20, 4, 3)
        table = bound_table(p, a, TOL)
        text = serialize.table_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == "k,l,t,eps"
        assert len(lines) == 1 + (p.zeta + 1) * (p.m + 1)
        again = serialize.table_csv(bound_table(p, a, TOL))
        assert text == again

    def test_json_round_trip(self):
        p, a = uniform_problem(20, 4, 3)
        table = bound_table(p, a, TOL)
        doc = json.loads(serialize.table_json(table))
        assert doc["problem"] == {"n": 20, "m": 4, "zeta": 3, "beta": 1e-6}
        assert doc["coefficients_scheme"] == "uniform"
        assert len(doc["grid"]) == (p.zeta + 1) * (p.m + 1)
        cell = doc["grid"][0]
        assert cell["k"] == 0 and cell["l"] == 0
        assert cell["eps"] == pytest.approx(table.eps[0, 0], rel=1e-11)
        assert serialize.table_json(table) == serialize.table_json(bound_table(p, a, TOL))

    def test_csv_values_parse_back(self):
        p, a = uniform_problem(12, 2, 2)
        table = bound_table(p, a, TOL)
        for line in serialize.table_csv(table).strip().split("\n")[1:]:
            k, l, t, eps = line.split(",")
            assert float(t) == pytest.approx(table.t[int(k), int(l)], rel=1e-11)
            assert float(eps) == pytest.approx(table.eps[int(k), int(l)], rel=1e-11)

"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[acceptance] <id>: PASS|FAIL`` line (visible with
``pytest -s``); a FAIL line is always followed by the pytest failure
itself.
"""

import contextlib
import time

import numpy as np
import pytest

import scencert as sc
from scencert.serialize import records_csv

from helpers import (
    exact_binom_cdf,
    exact_z,
    random_feasible_lp,
    scan_root,
    vertex_optimum,
)

TOL = 1e-10


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def timed(limit_seconds):
    @contextlib.contextmanager
    def guard():
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit_seconds, f"took {elapsed:.1f}s (limit {limit_seconds}s)"

    return guard()


def uniform(problem):
    return sc.CoefficientVector.uniform(problem)


def test_criterion_1_paper_scalars():
    with criterion("1 paper scalar reproduction"):
        with timed(1.0):
            assert sc.chernoff_bound(100, 10, 1e-6).value == pytest.approx(
                0.3628, abs=5e-4
            )
        with timed(1.0):
            assert sc.clopper_pearson(100, 10, 1e-6) == pytest.approx(0.3045, abs=5e-4)
        with timed(1.0):
            assert sc.apriori_epsilon(500, 18, 1e-6) == pytest.approx(0.0889, abs=5e-4)
        p = sc.CertificateProblem(500, 500, 18, 1e-6)
        a = uniform(p)
        with timed(1.0):
            assert 1.0 - sc.solve_root(3, 2, p, a, tol=TOL) == pytest.approx(
                0.0268, abs=5e-4
            )
        with timed(1.0):
            assert sc.wait_and_judge(p, a, TOL)[3] == pytest.approx(0.0486, abs=5e-4)
        with timed(1.0):
            assert sc.clopper_pearson(500, 2, 1e-6) == pytest.approx(0.0376, abs=5e-4)
        p200 = sc.CertificateProblem(200, 0, 18, 1e-6)
        with timed(1.0):
            assert sc.wait_and_judge(p200, uniform(p200), TOL)[3] == pytest.approx(
                0.1176, abs=5e-4
            )


IDENTITY_CONFIGS = [
    (50, 30, 10, 1e-6),  # the reference grid configuration
    (20, 5, 3, 1e-6), (25, 8, 4, 1e-4), (30, 10, 5, 1e-5), (35, 12, 6, 1e-6),
    (40, 6, 7, 1e-3), (45, 15, 8, 1e-6), (55, 20, 9, 1e-7), (60, 10, 12, 1e-6),
    (22, 7, 2, 1e-2), (28, 9, 3, 1e-6), (33, 11, 4, 1e-5), (38, 13, 5, 1e-4),
    (42, 14, 6, 1e-6), (48, 16, 7, 1e-5), (52, 18, 8, 1e-6), (26, 4, 3, 1e-7),
    (31, 6, 5, 1e-6), (36, 8, 6, 1e-4), (44, 12, 9, 1e-6), (58, 25, 11, 1e-5),
]


def test_criterion_2_identity_suite():
    with criterion("2 no-validation identity chain"):
        with timed(60.0):
            assert len(IDENTITY_CONFIGS) >= 20
            for n, m, zeta, beta in IDENTITY_CONFIGS:
                p = sc.CertificateProblem(n, m, zeta, beta)
                a = uniform(p)
                table = sc.bound_table(p, a, TOL)
                base = sc.wait_and_judge(p, a, TOL)
                assert np.abs(table.eps[:, -1] - base).max() <= 1e-8
                for k in range(zeta + 1):
                    for l in range(m):
                        assert table.eps[k, l] < base[k] + 1e-8
                    assert table.eps[k, 0] < base[k]  # strict where resolvable


def test_criterion_3_monotonicity_suites():
    with criterion("3 monotonicity suites"):
        rng = np.random.default_rng(100)
        slack = 2 * TOL

        # tail strictly decreasing in t
        for _ in range(220):
            n = int(rng.integers(2, 150))
            m = int(rng.integers(0, n))
            t1, t2 = np.sort(rng.random(2) * 0.98 + 0.01)
            assert sc.binom_cdf(n, m, t1) > sc.binom_cdf(n, m, t2) - slack

        # tail strictly decreasing in the trial count
        for _ in range(220):
            n = int(rng.integers(1, 150))
            m = int(rng.integers(0, n + 1))
            t = float(rng.random() * 0.98 + 0.01)
            assert sc.binom_cdf(n + 1, m, t) < sc.binom_cdf(n, m, t) + slack

        # grid certificates strictly increasing in the violation index
        cells = 0
        while cells < 220:
            n = int(rng.integers(12, 45))
            m = int(rng.integers(1, 10))
            zeta = int(rng.integers(1, 7))
            beta = float(10 ** rng.uniform(-7, -1))
            p = sc.CertificateProblem(n, m, zeta, beta)
            table = sc.bound_table(p, uniform(p), TOL)
            assert np.diff(table.eps, axis=1).min() > -slack
            cells += (zeta + 1) * m

        # Clopper-Pearson incremental monotonicity
        for _ in range(220):
            m = int(rng.integers(1, 150))
            l = int(rng.integers(0, m + 1))
            beta = float(10 ** rng.uniform(-7, -1))
            assert sc.clopper_pearson(m, l, beta) > sc.clopper_pearson(m + 1, l, beta) - slack
            if l < m:
                assert sc.clopper_pearson(m + 1, l + 1, beta) > sc.clopper_pearson(m, l, beta) - slack

        # grid certificates under one more validation sample
        cells = 0
        while cells < 220:
            n = int(rng.integers(12, 40))
            m = int(rng.integers(1, 8))
            zeta = int(rng.integers(1, 6))
            beta = float(10 ** rng.uniform(-7, -1))
            p1 = sc.CertificateProblem(n, m, zeta, beta)
            p2 = sc.CertificateProblem(n, m + 1, zeta, beta)
            a = uniform(p1)
            e1 = sc.bound_table(p1, a, TOL).eps
            e2 = sc.bound_table(p2, a, TOL).eps
            assert (e1 - e2[:, :-1]).min() > -slack
            assert (e2[:, 1:] - e1).min() > -slack
            assert np.abs(e2[:, -1] - e1[:, -1]).max() <= 1e-8
            cells += e1.size


def test_criterion_4_lower_limit_dominance():
    with criterion("4 lower-limit dominance"):
        p = sc.CertificateProblem(100, 5, 8, 1e-6)
        a = uniform(p)
        lower = sc.lower_limit_table(p, TOL)
        assert np.all(lower.eps_lower[0] == 0.0)
        table = sc.bound_table(p, a, TOL)
        assert np.all(table.eps >= lower.eps_lower - 2 * TOL)
        refined = sc.refine(p, a).final.table
        assert np.all(refined.eps >= lower.eps_lower - 2 * TOL)


def test_criterion_5_refinement():
    with criterion("5 refinement behaviour"):
        p = sc.CertificateProblem(100, 5, 8, 1e-6)
        a = uniform(p)
        trace = sc.refine(p, a, tol_root=TOL)
        assert trace.termination == "converged"
        assert len(trace.iterations) - 1 <= 50
        for earlier, later in zip(trace.iterations, trace.iterations[1:]):
            assert np.all(later.table.t >= earlier.table.t - 2 * TOL)
        initial = trace.iterations[0].table
        final = trace.final.table
        assert np.all(final.eps <= initial.eps + 2 * TOL)
        assert np.any(initial.eps - final.eps > 1e-6)
        again = sc.refine(p, trace.final.coefficients, tol_root=TOL, max_iter=1)
        move = again.iterations[-1].max_t_increase
        assert move is not None and abs(move) <= 1e-9


def test_criterion_6_oracle_equivalence():
    with criterion("6 oracle equivalence"):
        rng = np.random.default_rng(101)

        # binomial tail vs exact rational summation
        for _ in range(80):
            n = int(rng.integers(1, 51))
            m = int(rng.integers(0, n + 1))
            t = float(rng.random())
            exact = float(exact_binom_cdf(n, m, t))
            assert sc.binom_cdf(n, m, t) == pytest.approx(exact, abs=1e-10)

        # mixture weights vs exact big-integer rationals
        for n, m, k in [(100, 5, 8), (60, 12, 1), (40, 9, 20), (25, 3, 25)]:
            exact = exact_z(n, m, k)
            got = sc.z_coefficients(n, m, k)
            for j in range(m + 1):
                assert got[j] == pytest.approx(float(exact[j]), rel=1e-12)

        # LP solver vs vertex enumeration
        solved = 0
        while solved < 20:
            lp = random_feasible_lp(rng, int(rng.integers(2, 9)))
            expected = vertex_optimum(lp)
            assert expected is not None
            assert lp.c @ sc.lp_solve(lp) == pytest.approx(expected, abs=1e-7)
            solved += 1

        # root solver vs dense sign scan on a million-point grid
        scan_configs = [
            (20, 4, 2, 0, 4, 1e-6), (25, 6, 4, 3, 2, 1e-6), (15, 3, 2, 1, 0, 1e-5),
            (30, 5, 3, 3, 5, 1e-4), (18, 2, 2, 0, 0, 1e-3), (22, 8, 5, 5, 8, 1e-6),
            (28, 7, 4, 2, 3, 1e-7), (12, 4, 3, 3, 1, 1e-2), (26, 3, 6, 4, 2, 1e-6),
            (16, 6, 2, 1, 6, 1e-5),
        ]
        assert len(scan_configs) >= 10
        for n, m, zeta, k, l, beta in scan_configs:
            p = sc.CertificateProblem(n, m, zeta, beta)
            a = uniform(p)
            root = sc.solve_root(k, l, p, a, tol=TOL)
            scanned = scan_root(n, m, k, l, beta, a.values)
            assert abs(root - scanned) <= 1.5e-6


def test_criterion_7_monte_carlo_audit():
    with criterion("7 Monte Carlo audit"):
        with timed(300.0):
            toy = sc.ToyScenarioProblem("bounding_box", 5)
            stats, records = sc.run_monte_carlo(
                toy, 100, 100, 1e-6, 2000, master_seed=42
            )
            assert all(rec.v_true <= rec.eps_sr for rec in records)
            assert stats.empirical_confidence["eps_sr"] == 0.0
            assert stats.mean_gap["eps_sr"] < stats.mean_gap["eps_s"]
            assert stats.mean_gap["eps_sr"] < stats.mean_gap["eta"]
            for s, (count, mean_ratio) in stats.occurrences.items():
                assert count >= 1
                assert mean_ratio < 5.0 * s / 100.0
            assert stats.ties == 0


def test_criterion_8_support_count_exactness():
    with criterion("8 support-count removal test"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 31))
            problem = sc.ToyScenarioProblem("bounding_box", d)
            pts = rng.random((n, d))
            solution = sc.solve_scenario(problem, pts)
            for i in range(n):
                reduced = np.delete(pts, i, axis=0)
                changed = not np.array_equal(
                    sc.solve_scenario(problem, reduced).decision, solution.decision
                )
                assert changed == (i in solution.support_set)


def test_criterion_9_simulation_determinism(tmp_path, capsys):
    with criterion("9 simulation determinism"):
        from scencert.cli import main

        flags = ["simulate", "--kind", "bounding-box", "--d", "3", "--n", "40",
                 "--m", "25", "--beta", "1e-6", "--runs", "60", "--seed", "7"]
        outputs = []
        for name, threads in (("one.csv", "1"), ("two.csv", "2"), ("eight.csv", "8")):
            path = tmp_path / name
            assert main(flags + ["--output", str(path), "--threads", threads]) == 0
            outputs.append((path.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1] == outputs[2]
        # library-level record stream is bit-identical too
        toy = sc.ToyScenarioProblem("bounding_box", 3)
        _, rec_a = sc.run_monte_carlo(toy, 40, 25, 1e-6, 60, master_seed=7)
        _, rec_b = sc.run_monte_carlo(toy, 40, 25, 1e-6, 60, master_seed=7)
        assert records_csv(rec_a) == records_csv(rec_b)

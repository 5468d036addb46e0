"""Dense LP solver against a brute-force vertex enumeration oracle."""

import numpy as np
import pytest

from scencert import simplex
from scencert.posterior_bounds import (
    CertificateProblem,
    CoefficientVector,
    bound_table,
)
from scencert.refinement import build_refinement_lp
from scencert.simplex import (
    LinearProgram,
    LPInfeasibleError,
    LPUnboundedError,
    lp_solve,
)

from helpers import random_feasible_lp, vertex_optimum


def test_two_variable_toy():
    # max x1 + x2 s.t. x1 + x2 = 1, x >= 0
    lp = LinearProgram(
        np.array([1.0, 1.0]),
        np.zeros((0, 2)),
        np.zeros(0),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
    )
    solution = lp_solve(lp)
    assert solution.objective == pytest.approx(1.0, abs=1e-12)
    assert solution.x.sum() == pytest.approx(1.0, abs=1e-12)


def test_simple_inequality_program():
    # max 2 x1 + x2 s.t. x1 + x2 = 1, x1 >= 0.25 -> x = (0.75... no: x1 free up)
    lp = LinearProgram(
        np.array([2.0, 1.0]),
        np.array([[0.0, 1.0]]),
        np.array([0.25]),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
    )
    solution = lp_solve(lp)
    assert solution.objective == pytest.approx(2 * 0.75 + 0.25, abs=1e-10)
    assert solution.x == pytest.approx(np.array([0.75, 0.25]), abs=1e-10)


def test_infeasible_detected():
    # x1 >= 2 conflicts with x1 + x2 = 1, x >= 0
    lp = LinearProgram(
        np.array([1.0, 0.0]),
        np.array([[1.0, 0.0]]),
        np.array([2.0]),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
    )
    with pytest.raises(LPInfeasibleError):
        lp_solve(lp)


def test_unbounded_detected():
    lp = LinearProgram(
        np.array([1.0]),
        np.array([[1.0]]),
        np.array([0.5]),
        np.zeros((0, 1)),
        np.zeros(0),
    )
    with pytest.raises(LPUnboundedError):
        lp_solve(lp)


def test_unconstrained_zero_objective():
    lp = LinearProgram(
        np.array([-1.0, -2.0]),
        np.zeros((0, 2)),
        np.zeros(0),
        np.zeros((0, 2)),
        np.zeros(0),
    )
    solution = lp_solve(lp)
    assert solution.objective == 0.0


def test_degenerate_vertex_terminates():
    # multiple rows tie at the same vertex; Bland fallback must finish
    lp = LinearProgram(
        np.array([1.0, 1.0, 0.0]),
        np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([0.0, 0.0, 0.0]),
        np.array([[1.0, 1.0, 1.0]]),
        np.array([1.0]),
    )
    solution = lp_solve(lp)
    assert solution.objective == pytest.approx(1.0, abs=1e-10)


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram(np.zeros(0), np.zeros((0, 0)), np.zeros(0),
                      np.zeros((0, 0)), np.zeros(0))
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0]), np.array([[1.0, 2.0]]), np.array([1.0]),
                      np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ValueError):
        LinearProgram(np.array([np.inf]), np.zeros((0, 1)), np.zeros(0),
                      np.zeros((0, 1)), np.zeros(0))


def test_against_vertex_enumeration_oracle():
    rng = np.random.default_rng(40)
    solved = 0
    while solved < 25:
        n_vars = int(rng.integers(2, 9))
        lp = random_feasible_lp(rng, n_vars)
        expected = vertex_optimum(lp)
        assert expected is not None  # construction guarantees feasibility
        solution = lp_solve(lp)
        assert solution.objective == pytest.approx(expected, abs=1e-7)
        # returned point is feasible for the original program
        assert np.all(lp.a_ge @ solution.x >= lp.b_ge - 1e-8)
        assert lp.a_eq @ solution.x == pytest.approx(lp.b_eq, abs=1e-8)
        assert np.all(solution.x >= -1e-12)
        solved += 1


def _uniform_refinement_lp(n, m, zeta):
    problem = CertificateProblem(n, m, zeta, 1e-6)
    table = bound_table(problem, CoefficientVector.uniform(problem), 1e-10)
    return build_refinement_lp(table, problem)


def test_pivots_reset_stall_count(monkeypatch):
    # A pivot that lowers the objective must reset the stall count, so
    # that Dantzig's rule prices the refinement LP instead of Bland's.
    # Dantzig's rule needs 65 basis solves on it; Bland's rule from the
    # 31st pivot on needs 2442.
    lp = _uniform_refinement_lp(100, 5, 8)
    calls = []
    solve = simplex._solve_basis

    def counting(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(simplex, "_solve_basis", counting)
    lp_solve(lp)
    assert len(calls) < 500


def test_bland_rule_from_first_pivot(monkeypatch):
    # At the default stall limit Bland's rule seldom prices a pivot; with
    # no stall allowed it prices every one and must reach the same optima.
    refinement_lp = _uniform_refinement_lp(100, 5, 8)
    expected = lp_solve(refinement_lp).objective
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    assert lp_solve(refinement_lp).objective == pytest.approx(expected, abs=1e-9)
    rng = np.random.default_rng(40)
    for _ in range(25):
        lp = random_feasible_lp(rng, int(rng.integers(2, 9)))
        assert lp_solve(lp).objective == pytest.approx(vertex_optimum(lp), abs=1e-7)


@pytest.mark.parametrize("stall_limit", [simplex._STALL_LIMIT, 0])
def test_beale_cycling_example(monkeypatch, stall_limit):
    # Beale's example in Chvatal's form, which cycles under Dantzig's rule
    # with smallest-subscript ties in a dictionary simplex:
    #   max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4  s.t.
    #   1/4 x1 -  8 x2 -     x3 + 9 x4 <= 0
    #   1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0
    #                        x3        <= 1,   optimum 5/4 at x1 = x3 = 1.
    monkeypatch.setattr(simplex, "_STALL_LIMIT", stall_limit)
    lp = LinearProgram(
        np.array([0.75, -20.0, 0.5, -6.0]),
        -np.array([[0.25, -8.0, -1.0, 9.0],
                   [0.5, -12.0, -0.5, 3.0],
                   [0.0, 0.0, 1.0, 0.0]]),
        -np.array([0.0, 0.0, 1.0]),
        np.zeros((0, 4)),
        np.zeros(0),
    )
    solution = lp_solve(lp)
    assert solution.objective == pytest.approx(1.25, abs=1e-12)
    assert solution.x == pytest.approx(np.array([1.0, 0.0, 1.0, 0.0]), abs=1e-12)

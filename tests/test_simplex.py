"""LP solver against a brute-force vertex enumeration oracle."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import scencert
from scencert import simplex
from scencert.cli import main
from scencert.posterior_bounds import CertificateProblem, CoefficientVector, bound_table
from scencert.refinement import build_refinement_lp, refine
from scencert.simplex import (
    LinearProgram,
    LPInfeasibleError,
    LPUnboundedError,
    SimplexError,
    lp_solve,
)

from helpers import random_feasible_lp, vertex_optimum

ROOT = Path(__file__).resolve().parent.parent
# Older SciPy releases have no HiGHS module of this layout; lp_solve then
# runs on linprog, and the tests of the main path have nothing to test.
needs_highs_core = pytest.mark.skipif(
    not any((Path(scipy.__file__).parent / "optimize" / "_highspy").glob("_core.*")),
    reason="this SciPy has no optimize/_highspy/_core module",
)


INF = np.inf


def test_two_variable_toy():
    # max x1 + x2 s.t. x1 + x2 = 1, x >= 0
    lp = LinearProgram(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
                       np.array([1.0]))
    x = lp_solve(lp)
    assert isinstance(x, np.ndarray)
    assert lp.c @ x == pytest.approx(1.0, abs=1e-12)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_simple_inequality_program():
    # max 2 x1 + x2 s.t. x2 >= 0.25, x1 + x2 = 1 -> x = (0.75, 0.25)
    lp = LinearProgram(
        np.array([2.0, 1.0]),
        np.array([[0.0, 1.0], [1.0, 1.0]]),
        np.array([0.25, 1.0]),
        np.array([INF, 1.0]),
    )
    x = lp_solve(lp)
    assert lp.c @ x == pytest.approx(2 * 0.75 + 0.25, abs=1e-10)
    assert x == pytest.approx(np.array([0.75, 0.25]), abs=1e-10)


def test_infeasible_detected():
    # x1 >= 2 conflicts with x1 + x2 = 1, x >= 0
    lp = LinearProgram(
        np.array([1.0, 0.0]),
        np.array([[1.0, 0.0], [1.0, 1.0]]),
        np.array([2.0, 1.0]),
        np.array([INF, 1.0]),
    )
    with pytest.raises(LPInfeasibleError):
        lp_solve(lp)


def test_unbounded_detected():
    lp = LinearProgram(np.array([1.0]), np.array([[1.0]]), np.array([0.5]), np.array([INF]))
    with pytest.raises(LPUnboundedError):
        lp_solve(lp)


def test_unconstrained_zero_objective():
    lp = LinearProgram(np.array([-1.0, -2.0]), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    x = lp_solve(lp)
    assert lp.c @ x == 0.0


def test_degenerate_vertex_terminates():
    # multiple rows tie at the same vertex; the solver must finish
    lp = LinearProgram(
        np.array([1.0, 1.0, 0.0]),
        np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
        np.array([0.0, 0.0, 0.0, 1.0]),
        np.array([INF, INF, INF, 1.0]),
    )
    x = lp_solve(lp)
    assert lp.c @ x == pytest.approx(1.0, abs=1e-10)


def test_validation_errors():
    one = np.array([1.0])
    with pytest.raises(ValueError, match="objective"):
        LinearProgram(np.zeros(0), np.zeros((0, 0)), np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="non-finite"):
        LinearProgram(np.array([INF]), np.zeros((0, 1)), np.zeros(0), np.zeros(0))
    # a with the wrong column count
    with pytest.raises(ValueError, match="shape"):
        LinearProgram(one, np.array([[1.0, 2.0]]), one, one)
    # bounds of the wrong length
    for lower, upper in ((np.zeros(2), one), (one, np.zeros(0))):
        with pytest.raises(ValueError, match="row count"):
            LinearProgram(one, np.array([[1.0]]), lower, upper)
    # a NaN bound, lower > upper, lower = +inf, upper = -inf
    for lower, upper in ((np.nan, 1.0), (0.0, np.nan), (2.0, 1.0), (INF, INF),
                         (-INF, -INF)):
        with pytest.raises(ValueError, match="admits no value"):
            LinearProgram(one, np.array([[1.0]]), np.array([lower]), np.array([upper]))


def test_package_exports_simplex_error():
    # The package surface is its modules' __all__ lists, each name defined
    # where it is listed, so no module re-lists another's name.
    modules = [scencert.binom_tail, scencert.classic_bounds, scencert.posterior_bounds,
               scencert.lower_limits, scencert.simplex, scencert.refinement,
               scencert.scenario_lab]
    listed = ["__version__", *(name for module in modules for name in module.__all__)]
    assert sorted(scencert.__all__) == sorted(listed)
    assert len(set(scencert.__all__)) == len(scencert.__all__)
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(scencert, name) is obj
            if isinstance(obj, type) or callable(obj):
                assert obj.__module__ == module.__name__, name
    assert "SimplexError" in scencert.__all__
    assert scencert.SimplexError is scencert.simplex.SimplexError


def _row_form_lps():
    """A program with a <= row (lower -inf), and one with range rows
    (finite lower < upper), each on the probability simplex."""
    # max x1 + 2 x2 s.t. x2 <= 0.3: optimum 1.3 at (0.7, 0.3, 0).
    le = LinearProgram(np.array([1.0, 2.0, 0.0]), np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
                       np.array([-INF, 1.0]), np.array([0.3, 1.0]))
    # max x1 + 3 x2 + 2.5 x3 s.t. 0.2 <= x1 - x2 <= 0.5, 0.1 <= x3 <= 0.3: the
    # first range's lower side and the second's upper side hold at the
    # optimum 1.95, (0.45, 0.25, 0.3).
    ranged = LinearProgram(np.array([1.0, 3.0, 2.5]),
                           np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
                           np.array([0.2, 0.1, 1.0]), np.array([0.5, 0.3, 1.0]))
    return [le, ranged]


def _oracle_lps():
    """25 random programs, then 10 whose >= rows are half zeros, then a
    program with a <= row and one with range rows."""
    rng = np.random.default_rng(40)
    lps = [random_feasible_lp(rng, int(rng.integers(2, 9))) for _ in range(25)]
    rng = np.random.default_rng(41)
    return lps + [random_feasible_lp(rng, int(rng.integers(4, 9)), zero_heavy=True)
                  for _ in range(10)] + _row_form_lps()


def test_against_vertex_enumeration_oracle():
    for lp in _oracle_lps():
        expected = vertex_optimum(lp)
        assert expected is not None  # construction guarantees feasibility
        x = lp_solve(lp)
        assert lp.c @ x == pytest.approx(expected, abs=1e-7)
        # returned point is feasible for the original program
        ax = lp.a @ x
        assert np.all(ax >= lp.lower - 1e-8) and np.all(ax <= lp.upper + 1e-8)
        assert np.all(x >= -1e-12)
    # The row-form programs' optima, solved by hand.
    assert [vertex_optimum(lp) for lp in _row_form_lps()] == pytest.approx([1.3, 1.95], abs=1e-12)


def test_beale_cycling_example():
    # Beale's example in Chvatal's form, which cycles under Dantzig's rule
    # with smallest-subscript ties in a dictionary simplex:
    #   max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4  s.t.
    #   1/4 x1 -  8 x2 -     x3 + 9 x4 <= 0
    #   1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0
    #                        x3        <= 1,   optimum 5/4 at x1 = x3 = 1.
    lp = LinearProgram(
        np.array([0.75, -20.0, 0.5, -6.0]),
        np.array([[0.25, -8.0, -1.0, 9.0],
                  [0.5, -12.0, -0.5, 3.0],
                  [0.0, 0.0, 1.0, 0.0]]),
        np.full(3, -INF),
        np.array([0.0, 0.0, 1.0]),
    )
    x = lp_solve(lp)
    assert lp.c @ x == pytest.approx(1.25, abs=1e-12)
    assert x == pytest.approx(np.array([1.0, 0.0, 1.0, 0.0]), abs=1e-12)


def test_missing_highs_core_selects_the_fallback(monkeypatch):
    monkeypatch.delitem(sys.modules, simplex._HIGHS_CORE, raising=False)
    monkeypatch.setattr(simplex.importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    assert simplex._load_highs.__wrapped__() is None


def test_linprog_fallback_matches_the_core(monkeypatch):
    core = [lp_solve(lp) for lp in _oracle_lps()]
    problem = CertificateProblem(100, 5, 8, 1e-6)
    initial = CoefficientVector.uniform(problem)
    core_trace = refine(problem, initial, tol_root=1e-10)

    monkeypatch.setattr(simplex, "_load_highs", lambda: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fallback = [lp_solve(lp) for lp in _oracle_lps()]
        fallback_trace = refine(problem, initial, tol_root=1e-10)
    for lp, a, b in zip(_oracle_lps(), core, fallback, strict=True):
        assert lp.c @ b == pytest.approx(vertex_optimum(lp), abs=1e-7)
        assert lp.c @ b == pytest.approx(lp.c @ a, abs=1e-9)
    assert fallback_trace.termination == core_trace.termination == "converged"
    assert np.abs(fallback_trace.final.table.t - core_trace.final.table.t).max() <= 2e-10


@needs_highs_core
def test_refine_never_imports_scipy_optimize():
    # The HiGHS module is loaded by file path: importing scipy.optimize
    # would add about 23 MB of resident memory to every refine run.
    code = (
        "import sys\n"
        "from scencert.cli import main\n"
        "code = main(['refine', '--n', '30', '--m', '2', '--zeta', '3', '--beta', '1e-6'])\n"
        "assert code == 0, code\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        f"assert {simplex._HIGHS_CORE!r} in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@needs_highs_core
def test_matrix_beyond_32_bit_indices_is_refused(monkeypatch, capsys):
    # Lowering the limit stands in for a program of 2^31 entries.
    lp = _oracle_lps()[0]
    entries = lp.a.size
    monkeypatch.setattr(simplex, "_MAX_HIGHS_INDEX", entries - 1)
    with pytest.raises(SimplexError, match="32-bit"):
        lp_solve(lp)
    monkeypatch.setattr(simplex, "_MAX_HIGHS_INDEX", 1000)
    assert main(["refine", "--n", "100", "--m", "5", "--zeta", "8", "--beta", "1e-6"]) == 4
    assert capsys.readouterr().out.startswith("lp_failure after 0 refinement steps")


@needs_highs_core
def test_iteration_limit_ends_refine_in_lp_failure(monkeypatch):
    # The first refinement step at (100, 5, 8) takes 6 simplex iterations.
    problem = CertificateProblem(100, 5, 8, 1e-6)
    initial = CoefficientVector.uniform(problem)
    lp = build_refinement_lp(bound_table(problem, initial))
    monkeypatch.setitem(simplex._HIGHS_OPTIONS, "simplex_iteration_limit", 1)
    with pytest.raises(SimplexError, match="[Ii]teration limit"):
        lp_solve(lp)
    assert refine(problem, initial).termination == "lp_failure"

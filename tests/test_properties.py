"""Property tests on small random problems: the row-batched grid against
single-cell roots, lower-limit rows against single-cell limits, every
reported root on the safe side of its equation (in floats and in exact
arithmetic), the exact sign against the float one, grid monotonicity,
dominance over the lower limits, the wait-and-judge column as the grid's
ceiling, monotone refinement, and the batched incremental sequence
against per-arrival solves."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exact_certificate_sign, exact_lower_lhs
from scencert.binom_tail import log_binom_tails
from scencert.classic_bounds import clopper_pearson
from scencert.lower_limits import lower_limit, lower_limit_table
from scencert.posterior_bounds import (
    CertificateProblem,
    CoefficientVector,
    bound_table,
    certificate_sign,
    solve_root,
    wait_and_judge,
)
from scencert.refinement import refine
from scencert.scenario_lab import (
    ToyScenarioProblem,
    incremental_judgement,
    solve_scenario,
    violation_mask,
)

TOL = 1e-10


@st.composite
def problems(draw, max_m=8):
    n = draw(st.integers(3, 60))
    zeta = draw(st.integers(1, min(n - 1, 5)))
    m = draw(st.integers(0, max_m))
    beta = 10.0 ** draw(st.floats(-8.0, -1.0))
    return CertificateProblem(n, m, zeta, beta)


# Derandomized and without an example database, so every run of the suite
# draws the same problems.
property_settings = settings(
    max_examples=50, deadline=None, derandomize=True, database=None
)


@property_settings
@given(problems())
def test_grid_cells_equal_single_cell_roots(p):
    a = CoefficientVector.uniform(p)
    table = bound_table(p, a, TOL)
    for k in range(p.zeta + 1):
        for l in range(p.m + 1):
            assert table.t[k, l] == solve_root(k, l, p, a, TOL)


@property_settings
@given(problems())
def test_grid_margin_is_nonnegative_at_reported_roots(p):
    # The reported t is at most the true root, so eps = 1 - t is safe.
    a = CoefficientVector.uniform(p)
    t = bound_table(p, a, TOL).t
    for (k, l), root in np.ndenumerate(t):
        if root > 0.0:
            assert certificate_sign(root, k, l, p, a) >= 0, (k, l)


def assert_roots_safe_in_exact_arithmetic(p, a):
    t = bound_table(p, a, TOL).t
    for (k, l), root in np.ndenumerate(t):
        if root > 0.0:
            assert exact_certificate_sign(root, k, l, p, a) >= 0, (k, l)


@property_settings
@given(problems())
def test_uniform_roots_are_safe_in_exact_arithmetic(p):
    assert_roots_safe_in_exact_arithmetic(p, CoefficientVector.uniform(p))


@property_settings
@given(problems(), st.integers(0, 2**32 - 1))
def test_dense_custom_roots_are_safe_in_exact_arithmetic(p, seed):
    values = np.random.default_rng(seed).uniform(0.01, 1.0, p.n + 1)
    assert_roots_safe_in_exact_arithmetic(p, CoefficientVector(values / values.sum(), p))


@property_settings
@given(problems(), st.floats(1e-3, 1.0 - 1e-3))
def test_exact_sign_agrees_with_certificate_sign_away_from_roots(p, t):
    a = CoefficientVector.uniform(p)
    roots = bound_table(p, a, TOL).t
    for (k, l), root in np.ndenumerate(roots):
        if abs(t - root) > 1e-6:
            assert exact_certificate_sign(t, k, l, p, a) == certificate_sign(t, k, l, p, a)


@property_settings
@given(st.integers(1, 200), st.floats(-8.0, -1.0))
def test_clopper_pearson_tail_is_at_most_beta(m, log10_beta):
    beta = 10.0**log10_beta
    l = np.arange(m)
    x = clopper_pearson(m, l, beta, TOL)
    assert np.all(log_binom_tails(m, l, np.log(x), np.log1p(-x)) <= math.log(beta))


@property_settings
@given(problems())
def test_lower_limit_mixture_is_at_least_beta(p):
    # In exact arithmetic: the reported limit is at most the true one.
    table = lower_limit_table(p, TOL)
    for (k, l), eps in np.ndenumerate(table.eps_lower):
        if k >= 1 and not table.degenerate[k, l]:
            assert exact_lower_lhs(p.n, p.m, k, l, eps) >= Fraction(p.beta), (k, l)


@property_settings
@given(problems())
def test_grid_is_nondecreasing_in_k_and_l(p):
    eps = bound_table(p, CoefficientVector.uniform(p), TOL).eps
    assert np.diff(eps, axis=0).min(initial=0.0) >= -2 * TOL
    assert np.diff(eps, axis=1).min(initial=0.0) >= -2 * TOL


@property_settings
@given(problems())
def test_grid_dominates_lower_limits(p):
    eps = bound_table(p, CoefficientVector.uniform(p), TOL).eps
    limits = lower_limit_table(p, TOL).eps_lower
    assert (eps - limits).min() >= -2 * TOL


@property_settings
@given(problems())
def test_lower_limit_rows_equal_single_cell_limits(p):
    table = lower_limit_table(p, TOL)
    for k in range(p.zeta + 1):
        for l in range(p.m + 1):
            eps, degenerate = lower_limit(k, l, p, TOL)
            assert table.eps_lower[k, l] == eps
            assert table.degenerate[k, l] == degenerate


@property_settings
@given(problems())
def test_grid_is_capped_by_wait_and_judge(p):
    a = CoefficientVector.uniform(p)
    eps = bound_table(p, a, TOL).eps
    ceiling = wait_and_judge(p, a, TOL)
    # With l = m every validation sample failed, and the tail factor is 1.
    assert (eps - ceiling[:, None]).max() <= 2 * TOL
    assert np.abs(eps[:, p.m] - ceiling).max() <= 2 * TOL


@property_settings
@given(problems(max_m=6))
def test_refinement_never_moves_a_root_down(p):
    trace = refine(p, CoefficientVector.uniform(p), TOL)
    grids = [iteration.table.t for iteration in trace.iterations]
    for before, after in zip(grids, grids[1:]):
        assert (after - before).min() >= -2 * TOL


@st.composite
def arrivals(draw):
    kind = draw(st.sampled_from(["scalar_max", "bounding_box"]))
    toy = ToyScenarioProblem(kind, 1 if kind == "scalar_max" else draw(st.integers(1, 2)))
    n = draw(st.integers(toy.zeta + 1, 40))
    arrived = draw(st.integers(0, 30))
    beta = 10.0 ** draw(st.floats(-8.0, -1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return toy, n, beta, toy.sample(rng, n), toy.sample(rng, arrived)


@property_settings
@given(arrivals())
def test_incremental_steps_equal_per_arrival_solves(case):
    toy, n, beta, design, validation = case
    solution = solve_scenario(toy, design)
    steps = incremental_judgement(solution, n, beta, validation, tol=TOL)
    r = np.concatenate([[0], np.cumsum(violation_mask(solution, validation))])
    assert [(step.m, step.r) for step in steps] == list(enumerate(r.tolist()))
    a = CoefficientVector.uniform(CertificateProblem(n, 0, toy.zeta, beta))
    for step in steps:
        cell = CertificateProblem(n, step.m, toy.zeta, beta)
        root = solve_root(solution.support_count, step.r, cell, a, TOL)
        assert abs(step.eps - (1.0 - root)) <= 2 * TOL
        if step.m == 0:
            assert step.eta is None
        else:
            assert abs(step.eta - clopper_pearson(step.m, step.r, beta, TOL)) <= 2 * TOL

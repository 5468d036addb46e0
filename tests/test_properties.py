"""Property tests on small random problems: the row-batched grid against
single-cell roots, grid monotonicity, and dominance over the lower limits."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scencert.lower_limits import lower_limit_table
from scencert.posterior_bounds import (
    CertificateProblem,
    CoefficientVector,
    bound_table,
    solve_root,
)

TOL = 1e-10


@st.composite
def problems(draw):
    n = draw(st.integers(3, 60))
    zeta = draw(st.integers(1, min(n - 1, 5)))
    m = draw(st.integers(0, 8))
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
            assert abs(table.t[k, l] - solve_root(k, l, p, a, TOL)) <= 2 * TOL


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

"""Chernoff, Clopper-Pearson and prior scenario bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import record_solves, reference_bisect, solve_cold
from scencert import classic_bounds
from scencert.binom_tail import binom_cdf
from scencert.classic_bounds import (
    MAX_BISECT_ITER,
    apriori_epsilon,
    bisect,
    chernoff_bound,
    clopper_pearson,
)


def _halvings(tol: float) -> int:
    # plain bisection's step count on [0, 1]: halve until narrower than tol
    steps = 0
    while 2.0**-steps >= tol:
        steps += 1
    return steps


def _monotone_values(roots, slopes, family):
    # Per-cell value functions whose sign test (>= 0) is a down-set in x:
    # smooth, with an infinite slope at the root, saturating, with
    # underflowing tails, infinite, and nan above the root.
    def value(x, cells):
        d, s = roots[cells] - x, slopes[cells]
        return np.choose(family[cells], [
            s * d + d**3,
            np.cbrt(d),
            np.tanh(s * d),
            np.exp(-s * x) - np.exp(-s * roots[cells]),
            np.where(d >= 0.0, np.inf, -np.inf),
            np.where(d >= 0.0, s, np.nan),
        ])

    return value


_cells = st.lists(
    st.tuples(
        st.one_of(st.floats(0.0, 1.0), st.integers(0, 1 << 12).map(lambda i: i / 4096)),
        st.floats(1e-3, 1e3),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=12,
)


class TestBisect:
    def test_bracket_holds_root_and_is_narrower_than_tol(self):
        root = 1.0 / 3.0
        lo, hi = bisect(lambda x, cells: root - x, 1, 1e-10)
        assert lo[0] <= root < hi[0]
        assert hi[0] - lo[0] < 1e-10

    def test_tolerance_below_double_spacing_stops_at_iteration_cap(self):
        calls = []

        def value(x, cells):
            calls.append(x)
            return 1.0 / 3.0 - x

        lo, hi = bisect(value, 1, 1e-300)
        assert len(calls) <= MAX_BISECT_ITER
        assert lo[0] <= 1.0 / 3.0 < hi[0]
        assert hi[0] - lo[0] <= math.ulp(1.0 / 3.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_cells, st.floats(-13.0, -3.0))
    def test_ends_where_plain_bisection_ends(self, cells, log_tol):
        # Same (lo, hi) as plain bisection for any sign that is monotone
        # in x, with each point strictly inside (0, 1), only open cells
        # evaluated, and at most two steps more than bisection per cell:
        # ITP's worst case n_1/2 + n0 with its slack n0 = 2.
        roots, slopes, family = (np.array(c) for c in zip(*cells))
        value, tol = _monotone_values(roots, slopes, family), 10.0**log_tol
        steps = np.zeros(roots.size, dtype=int)

        def counted(x, open_):
            assert np.all((0.0 < x) & (x < 1.0))
            assert np.unique(open_).size == open_.size
            steps[open_] += 1
            return value(x, open_)

        lo, hi = bisect(counted, roots.size, tol)
        ref_lo, ref_hi = reference_bisect(value, roots.size, tol)
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        assert steps.max() <= _halvings(tol) + 2


    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_cells, st.floats(-13.0, -3.0), st.data())
    def test_guess_changes_points_not_brackets(self, cells, log_tol, data):
        # Any guess, on the root's grid step or far off it, at 0 or 1 (a
        # cold cell), past the grid's ends or nan (none), ends where
        # bisection ends, and within L + 4 points per cell: two guessed,
        # then ITP restarted on a bracket at most 1 wide.
        roots, slopes, family = (np.array(c) for c in zip(*cells))
        value, tol = _monotone_values(roots, slopes, family), 10.0**log_tol
        guess = np.array(data.draw(st.lists(
            st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, np.nan]),
                      st.integers(0, 4096).map(lambda i: i / 4096)),
            min_size=roots.size, max_size=roots.size)))
        steps = np.zeros(roots.size, dtype=int)

        def checked(x, open_):
            assert np.all((0.0 < x) & (x < 1.0))
            assert np.unique(open_).size == open_.size
            steps[open_] += 1
            return value(x, open_)

        lo, hi = bisect(checked, roots.size, tol, guess)
        ref_lo, ref_hi = reference_bisect(value, roots.size, tol)
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        assert steps.max() <= _halvings(tol) + 4

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_cells, st.floats(-13.0, -3.0), st.data())
    def test_cells_guessed_nan_take_the_points_of_no_guess(self, cells, log_tol, data):
        # nan is "no guess": next to finitely guessed cells, a cell guessed
        # nan is evaluated at exactly the points a guess=None solve takes.
        roots, slopes, family = (np.array(c) for c in zip(*cells))
        value, tol = _monotone_values(roots, slopes, family), 10.0**log_tol
        guess = np.array(data.draw(st.lists(
            st.one_of(st.just(np.nan), st.floats(0.0, 1.0)),
            min_size=roots.size, max_size=roots.size)))

        def points(guess):
            taken = [[] for _ in range(roots.size)]

            def recorded(x, open_):
                for cell, point in zip(open_, x):
                    taken[cell].append(point)
                return value(x, open_)

            bisect(recorded, roots.size, tol, guess)
            return taken

        cold, mixed = points(None), points(guess)
        for cell in np.flatnonzero(np.isnan(guess)):
            assert mixed[cell] == cold[cell]

    def test_no_cells_take_no_points(self):
        lo, hi = bisect(lambda x, cells: pytest.fail("evaluated"), 0, 1e-10)
        assert lo.size == hi.size == 0

    def test_guess_on_the_lower_end_takes_two_points(self):
        roots = np.array([0.1, 1.0 / 3.0, 0.7, 0.95])
        steps = np.zeros(roots.size, dtype=int)

        def counted(x, cells):
            steps[cells] += 1
            return roots[cells] - x

        cold, _ = bisect(lambda x, cells: roots[cells] - x, roots.size, 1e-10)
        lo, _ = bisect(counted, roots.size, 1e-10, cold)
        assert np.array_equal(lo, cold) and steps.tolist() == [2, 2, 2, 2]


class TestChernoff:
    def test_published_worked_value(self):
        assert chernoff_bound(100, 10, 1e-6).value == pytest.approx(0.3628, abs=5e-4)

    def test_zero_frequency_closed_form(self):
        for m, beta in [(50, 1e-3), (400, 1e-6), (7, 0.2)]:
            expected = math.sqrt(math.log(beta) / (-2 * m))
            assert chernoff_bound(m, 0, beta).value == pytest.approx(expected, rel=1e-14)

    def test_direct_formula_value(self):
        expected = 0.1 + math.sqrt(math.log(1e-6) / (-800.0))
        result = chernoff_bound(400, 40, 1e-6)
        assert result.value == pytest.approx(expected, rel=1e-14)
        assert result.value == pytest.approx(0.2314, abs=5e-4)
        assert not result.exceeds_one

    def test_out_of_range_flag(self):
        result = chernoff_bound(10, 9, 1e-6)
        assert result.value > 1.0
        assert result.exceeds_one

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chernoff_bound(0, 0, 0.5)
        with pytest.raises(ValueError):
            chernoff_bound(10, 11, 0.5)
        with pytest.raises(ValueError):
            chernoff_bound(10, 2, 1.0)


class TestClopperPearson:
    def test_published_worked_values(self):
        assert clopper_pearson(100, 10, 1e-6) == pytest.approx(0.3045, abs=5e-4)
        assert clopper_pearson(500, 2, 1e-6) == pytest.approx(0.0376, abs=5e-4)

    def test_all_violations_is_one(self):
        for m in (1, 9, 240):
            assert clopper_pearson(m, m, 1e-6) == 1.0

    def test_array_equals_scalar_calls(self):
        m = np.array([1, 1, 2, 7, 7, 100, 100, 100, 500])
        l = np.array([0, 1, 1, 0, 7, 0, 10, 100, 2])
        for beta in (1e-6, 0.05):
            etas = clopper_pearson(m, l, beta)
            scalar = [clopper_pearson(int(mi), int(li), beta) for mi, li in zip(m, l)]
            assert etas.tolist() == scalar
            assert etas[l == m].tolist() == [1.0, 1.0, 1.0]
        table = clopper_pearson(100, np.arange(101), 1e-6)
        assert table.tolist() == [clopper_pearson(100, li, 1e-6) for li in range(101)]
        assert table[-1] == 1.0

    def test_array_solves_only_cells_below_m(self, monkeypatch):
        # The l == m cells are 1 exactly, so the root kernel never sees them.
        solves = record_solves(monkeypatch, classic_bounds)
        assert clopper_pearson(500, np.arange(501), 1e-6)[-1] == 1.0
        m, l = np.array([1, 1, 2, 7, 7, 100]), np.array([0, 1, 1, 0, 7, 100])
        assert clopper_pearson(m, l, 1e-6)[l == m].tolist() == [1.0, 1.0, 1.0]
        assert [solve.size for solve in solves] == [500, 3]

    @pytest.mark.parametrize("m", [100, 500])
    def test_roots_take_at_most_two_tail_evaluations(self, monkeypatch, m):
        # Each cell starts from betaincinv's root: its grid point and the
        # neighbour on the root's side close the bracket.
        solves = record_solves(monkeypatch, classic_bounds)
        clopper_pearson(m, np.arange(m), 1e-6)
        [solve] = solves
        assert solve.evals.max() <= 2

    def test_root_within_a_grid_step_of_one_takes_one_evaluation(self, monkeypatch):
        # The root 1 - beta/m lies closer to 1 than a double resolves, and
        # betaincinv returns 1.0: the guess is clamped to 1 - 2^-L.
        solves = record_solves(monkeypatch, classic_bounds)
        started = clopper_pearson(20000, 19999, 1e-12)
        assert [cells.size for solve in solves for cells in solve.steps] == [1]
        solve_cold(monkeypatch, classic_bounds)
        assert started == clopper_pearson(20000, 19999, 1e-12) == 1.0

    @pytest.mark.parametrize("beta", [1e-12, 1e-6, 1e-2, 0.3])
    def test_start_points_change_no_root(self, monkeypatch, beta):
        m = np.concatenate([np.full(mi, mi) for mi in (1, 2, 7, 100, 500)])
        l = np.concatenate([np.arange(mi) for mi in (1, 2, 7, 100, 500)])
        started = clopper_pearson(m, l, beta)
        started_apriori = [apriori_epsilon(n, 1 + n // 3, beta) for n in (2, 50, 999)]
        solve_cold(monkeypatch, classic_bounds)
        assert np.array_equal(started, clopper_pearson(m, l, beta))
        assert started_apriori == [apriori_epsilon(n, 1 + n // 3, beta) for n in (2, 50, 999)]

    def test_scalar_call_returns_float(self):
        assert type(clopper_pearson(40, 3, 1e-6)) is float
        assert type(clopper_pearson(40, 40, 1e-6)) is float

    def test_array_domain_errors(self):
        with pytest.raises(ValueError):
            clopper_pearson(np.array([3, 0]), np.array([1, 0]), 1e-6)
        with pytest.raises(ValueError):
            clopper_pearson(5, np.array([2, 6]), 1e-6)
        assert clopper_pearson(np.array([], dtype=int), np.array([], dtype=int), 1e-6).size == 0

    def test_single_trial_closed_form(self):
        # B_1(x; 0) = 1 - x, so the root is exactly 1 - beta
        for beta in (0.5, 0.01, 1e-6):
            assert clopper_pearson(1, 0, beta) == pytest.approx(1 - beta, abs=1e-9)

    def test_residual_at_root(self):
        rng = np.random.default_rng(10)
        tol = 1e-10
        for _ in range(40):
            m = int(rng.integers(2, 300))
            l = int(rng.integers(0, m))
            beta = float(10 ** rng.uniform(-8, -0.5))
            eta = clopper_pearson(m, l, beta, tol)
            h = 1e-6
            slope = abs(binom_cdf(m, l, eta + h) - binom_cdf(m, l, eta - h)) / (2 * h)
            assert abs(binom_cdf(m, l, eta) - beta) <= 10 * tol * max(slope, 1.0)

    def test_incremental_monotonicity(self):
        # more trials tighten; a new violation loosens past the old bound
        rng = np.random.default_rng(11)
        cases = 0
        while cases < 200:
            m = int(rng.integers(1, 120))
            l = int(rng.integers(0, m + 1))
            beta = float(10 ** rng.uniform(-7, -1))
            assert clopper_pearson(m, l, beta) > clopper_pearson(m + 1, l, beta)
            if l < m:
                assert clopper_pearson(m + 1, l + 1, beta) > clopper_pearson(m, l, beta)
            assert clopper_pearson(m + 1, m + 1, beta) == clopper_pearson(m, m, beta) == 1.0
            cases += 1

    def test_never_looser_than_chernoff_in_range(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            m = int(rng.integers(1, 400))
            l = int(rng.integers(0, m + 1))
            beta = float(10 ** rng.uniform(-8, -1))
            rho = chernoff_bound(m, l, beta)
            if not rho.exceeds_one:
                assert rho.value >= clopper_pearson(m, l, beta) - 1e-9


class TestAprioriEpsilon:
    def test_published_worked_value(self):
        assert apriori_epsilon(500, 18, 1e-6) == pytest.approx(0.0889, abs=5e-4)

    def test_single_support_closed_form(self):
        # B_n(x; 0) = (1 - x)^n, root x = 1 - beta^(1/n)
        for n, beta in [(100, 0.5), (40, 1e-4), (7, 0.9)]:
            expected = 1 - beta ** (1.0 / n)
            assert apriori_epsilon(n, 1, beta) == pytest.approx(expected, abs=1e-9)

    def test_decreasing_in_n(self):
        values = [apriori_epsilon(n, 18, 1e-6) for n in (100, 200, 500, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            apriori_epsilon(10, 10, 0.5)  # vacuous: zeta >= n
        with pytest.raises(ValueError):
            apriori_epsilon(10, 0, 0.5)
        with pytest.raises(ValueError):
            apriori_epsilon(10, 2, 0.0)
        with pytest.raises(ValueError, match="n >= 1"):
            apriori_epsilon(0, 1, 1e-6)

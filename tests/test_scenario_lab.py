"""Toy scenario programs, support-count exactness, Monte Carlo audit."""

import hashlib
import itertools

import numpy as np
import pytest

from scencert import posterior_bounds, scenario_lab
from scencert.classic_bounds import bisect, chernoff_bound, clopper_pearson
from scencert.posterior_bounds import (
    CertificateProblem,
    CoefficientVector,
    bound_table,
    wait_and_judge,
)
from scencert.scenario_lab import (
    ToyScenarioProblem,
    TrialRecord,
    _extremes,
    _outside,
    _RunStreams,
    count_validation_violations,
    incremental_judgement,
    run_monte_carlo,
    solve_scenario,
    violation_mask,
    violation_probability,
)
from scencert.serialize import gap_stats_json, records_csv, records_jsonl

from helpers import reference_run_rng


def box(d):
    return ToyScenarioProblem("bounding_box", d)


SCALAR = ToyScenarioProblem("scalar_max")


class TestProblemType:
    def test_support_caps(self):
        assert SCALAR.zeta == 1
        assert box(1).zeta == 2
        assert box(5).zeta == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ToyScenarioProblem("scalar_max", 2)
        with pytest.raises(ValueError):
            ToyScenarioProblem("other")
        with pytest.raises(ValueError):
            ToyScenarioProblem("bounding_box", 0)


class TestSolveScenario:
    def test_scalar_max_example(self):
        solution = solve_scenario(SCALAR, [0.2, 0.9, 0.5])
        assert solution.decision[0] == 0.9
        assert solution.support_set == (1,)
        assert solution.support_count == 1
        assert not solution.tie

    def test_box_hand_enumerated_example(self):
        samples = np.array([[0.1, 0.9], [0.8, 0.2], [0.5, 0.5]])
        solution = solve_scenario(box(2), samples)
        lo, hi = solution.decision
        assert np.allclose(lo, [0.1, 0.2])
        assert np.allclose(hi, [0.8, 0.9])
        # first sample attains x-min and y-max, second x-max and y-min
        assert solution.support_set == (0, 1)
        assert solution.support_count == 2

    def test_one_dimensional_box_support_at_most_two(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            pts = rng.random((int(rng.integers(1, 20)), 1))
            solution = solve_scenario(box(1), pts)
            assert solution.support_count in (1, 2)

    def test_tie_flagged_and_counted_once(self):
        solution = solve_scenario(SCALAR, [0.4, 0.9, 0.9])
        assert solution.tie
        assert solution.support_count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_scenario(SCALAR, np.zeros((0, 1)))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(count, 2\), got \(3, 3\)"):
            solve_scenario(box(2), np.zeros((3, 3)))


class TestViolations:
    def test_scalar_probability(self):
        solution = solve_scenario(SCALAR, [0.2, 0.9, 0.5])
        assert violation_probability(solution) == pytest.approx(0.1)

    def test_box_probability(self):
        samples = np.array([[0.1, 0.2], [0.8, 0.9]])
        solution = solve_scenario(box(2), samples)
        assert violation_probability(solution) == pytest.approx(1 - 0.49)

    def test_single_sample_box_has_full_risk(self):
        solution = solve_scenario(box(3), np.array([[0.5, 0.5, 0.5]]))
        assert violation_probability(solution) == 1.0

    def test_counting(self):
        solution = solve_scenario(SCALAR, [0.2, 0.9, 0.5])
        assert count_validation_violations(solution, [0.95, 0.5, 0.91]) == 2
        assert count_validation_violations(solution, np.zeros((0, 1))) == 0

    def test_mask_matches_box_membership(self):
        samples = np.array([[0.1, 0.2], [0.8, 0.9]])
        solution = solve_scenario(box(2), samples)
        probe = np.array([[0.5, 0.5], [0.05, 0.5], [0.5, 0.95]])
        assert violation_mask(solution, probe).tolist() == [False, True, True]


class TestSupportExactness:
    def test_removal_definition_holds(self):
        # removing a support index changes the optimizer; removing any
        # other index leaves it unchanged
        rng = np.random.default_rng(51)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 31))
            pts = rng.random((n, d))
            problem = box(d)
            solution = solve_scenario(problem, pts)
            assert not solution.tie
            for i in range(n):
                reduced = np.delete(pts, i, axis=0)
                changed = not np.array_equal(
                    solve_scenario(problem, reduced).decision, solution.decision
                )
                assert changed == (i in solution.support_set)


def scan_support(problem, pts):
    """Support set and tie flag by scanning each extremum's attainers."""
    support, tie = set(), False
    columns = [(0, (pts[:, 0].max(),))] if problem.kind == "scalar_max" else [
        (j, (pts[:, j].min(), pts[:, j].max())) for j in range(problem.dimension)
    ]
    for j, extrema in columns:
        for extremum in extrema:
            attainers = np.flatnonzero(pts[:, j] == extremum)
            tie |= attainers.size > 1
            support.add(int(attainers[0]))
    return tuple(sorted(support)), tie


class TestBatchedSupportRule:
    @pytest.mark.parametrize("problem", [SCALAR, box(1), box(2), box(5)],
                             ids=lambda p: f"{p.kind}-{p.dimension}")
    def test_lattice_ties_match_per_slice_solutions(self, problem):
        # Slices are sample-major, (d, count) each.  Even slices sit on a
        # coarse lattice, so extrema tie; odd slices are continuous and
        # never tie.
        rng = np.random.default_rng(55)
        batch = rng.random((40, problem.dimension, 9))
        batch[::2] = np.round(batch[::2] * 3) / 3
        probe = np.round(rng.random((40, problem.dimension, 7)) * 3) / 3
        decision, first, tie = _extremes(problem, batch)
        mask = _outside(problem, decision, probe)
        assert tie[::2].any() and not tie[1::2].any()
        for i, pts in enumerate(batch):
            solution = solve_scenario(problem, pts.T)
            assert (solution.support_set, solution.tie) == scan_support(problem, pts.T)
            assert np.array_equal(decision[i], solution.decision)
            assert np.unique(first[i]).size == solution.support_count
            assert tie[i] == solution.tie
            assert np.array_equal(mask[i], violation_mask(solution, probe[i].T))


def per_run_records(problem, n, m, beta, runs, seed):
    """Audit records from one solve_scenario call per run."""
    cert = CertificateProblem(n, m, problem.zeta, beta)
    coeffs = CoefficientVector.uniform(cert)
    eps = bound_table(cert, coeffs).eps
    judged = wait_and_judge(cert, coeffs)
    eta = clopper_pearson(m, np.arange(m + 1), beta) if m else None
    records = []
    for run in range(runs):
        pts = problem.sample(reference_run_rng(seed, run), n + m)
        solution = solve_scenario(problem, pts[:n])
        s = solution.support_count
        r = count_validation_violations(solution, pts[n:])
        records.append(TrialRecord(
            run, s, r, violation_probability(solution),
            float(eps[s, r]), float(judged[s]),
            float(eta[r]) if m else None,
            chernoff_bound(m, r, beta).value if m else None,
            solution.tie,
        ))
    return records


class TestRunStreams:
    @pytest.mark.parametrize("bits", [0, 1, 32, 33, 65, 128, 129, 201])
    # The benchmark's audit scores blocks of 65 runs: (61, 70) crosses one.
    @pytest.mark.parametrize("start, stop", [(0, 5), (61, 70), (2**32 - 4, 2**32)],
                             ids=["first", "straddling", "last"])
    def test_equal_to_numpy_spawned_streams(self, bits, start, stop):
        # Seeds of 1, 2, 3, 4, 5 and 7 words: below, at and beyond the pool
        # size 4, past which the hash constant advances 4 more steps a word.
        top = 1 << max(bits - 1, 0)
        seed = 0 if bits == 0 else top | 0x5DEECE66D % top
        assert seed.bit_length() == bits
        streams = _RunStreams(seed).generators(start, stop)
        got = [rng.bit_generator.random_raw(6).tolist() for rng in streams]
        want = [reference_run_rng(seed, run).bit_generator.random_raw(6).tolist()
                for run in range(start, stop)]
        assert got == want

    @pytest.mark.parametrize("start, stop", [(-1, 2), (5, 4), (2**32 - 1, 2**32 + 1)])
    def test_run_indices_outside_one_spawn_word_are_rejected(self, start, stop):
        with pytest.raises(ValueError, match="run indices"):
            next(_RunStreams(0).generators(start, stop))


class TestMonteCarlo:
    @pytest.mark.parametrize("runs", [0, 2**32 + 1])
    def test_run_count_outside_one_spawn_word_is_rejected(self, runs):
        # Raised before anything is allocated: 2**32 + 1 runs never are.
        with pytest.raises(ValueError, match="runs"):
            run_monte_carlo(SCALAR, 5, 0, 1e-3, runs)

    @pytest.mark.parametrize(
        "problem, m",
        itertools.product([SCALAR, box(1), box(2), box(5)], [0, 6, 30]),
        ids=lambda v: f"{v.kind}-{v.dimension}" if isinstance(v, ToyScenarioProblem) else f"m{v}",
    )
    def test_blocks_match_per_run_oracle(self, monkeypatch, problem, m):
        n, runs, seed = 12, 14, 11
        whole, _ = run_monte_carlo(problem, n, m, 1e-3, runs, master_seed=seed)
        monkeypatch.setattr(scenario_lab, "_BATCH_ELEMENTS",
                            4 * (n + m) * problem.dimension)
        sizes = []

        def spy(problem, pts):
            sizes.append(pts.shape[0])
            return _extremes(problem, pts)

        monkeypatch.setattr(scenario_lab, "_extremes", spy)
        stats, records = run_monte_carlo(problem, n, m, 1e-3, runs, master_seed=seed)
        assert sizes == [4, 4, 4, 2]
        assert records == per_run_records(problem, n, m, 1e-3, runs, seed)
        assert stats == whole

    @pytest.mark.parametrize("problem, n, m, runs, records_sha, stats_sha", [
        (box(3), 40, 25, 300,
         "5ed4ac7391ffbc3bdc637e3bf0d9f8836819cd3cf5af2c38b11e19cc4f8621f6",
         "0203c544be15a915740401e7b983ee2289536c16106570ffbb149cc22e603e36"),
        (SCALAR, 25, 0, 50,
         "854d5411705c1b261e330f881a6245aefeff0b7d7ec09443308f9147b50d1d9c",
         "167bb141f110e241e5bf8a4604b87e84002f97a05e2c20e35c26b1b72d004b2c"),
        (SCALAR, 25, 15, 50,
         "f6026ee4ffe190af076bcb728d1023dc18b0556686d0c35f8a24449b7a8d1826",
         "a753a0d789f3721c6dab4a12062dfd3ccd4d8b19c69cc63f715ce0e36b74b5d9"),
    ], ids=["box3", "scalar", "scalar-validated"])
    def test_golden_record_stream(self, problem, n, m, runs, records_sha, stats_sha):
        # Any change to a run's samples, its scoring or the statistics
        # changes these digests.
        stats, records = run_monte_carlo(problem, n, m, 1e-6, runs, master_seed=7)
        assert hashlib.sha256(records_csv(records).encode()).hexdigest() == records_sha
        assert hashlib.sha256(gap_stats_json(stats).encode()).hexdigest() == stats_sha

    def test_root_solve_covers_exactly_the_runs_cells(self, monkeypatch):
        # One solve over the distinct (s, r) cells and one over eps_s's
        # zeta + 1 cells; the full grid would be 11 x 101 = 1,111 cells.
        sizes = []

        def sized(value, size, tol, guess=None):
            sizes.append(size)
            return bisect(value, size, tol, guess)

        monkeypatch.setattr(posterior_bounds, "bisect", sized)
        toy = box(5)
        _, records = run_monte_carlo(toy, 100, 100, 1e-6, 300, master_seed=42)
        cells = {(rec.s, rec.r) for rec in records}
        assert sorted(sizes) == sorted([len(cells), toy.zeta + 1])

    def test_records_are_named_tuples(self):
        fields = dict(run=3, s=2, r=1, v_true=0.25, eps_sr=0.5, eps_s=0.75,
                      eta=None, chernoff=None, tie=False)
        record = TrialRecord(**fields)
        assert record == TrialRecord(*fields.values())
        assert record._asdict() == fields
        assert record != record._replace(tie=True)
        _, records = run_monte_carlo(SCALAR, 5, 2, 1e-3, 3)
        assert [type(rec) for rec in records] == [TrialRecord] * 3

    def test_reproducible_per_master_seed(self):
        toy = box(2)
        _, records_a = run_monte_carlo(toy, 30, 15, 1e-6, 60, master_seed=9)
        _, records_b = run_monte_carlo(toy, 30, 15, 1e-6, 60, master_seed=9)
        assert records_a == records_b
        _, records_c = run_monte_carlo(toy, 30, 15, 1e-6, 60, master_seed=10)
        assert records_a != records_c

    def test_guarantee_audit_zero_breaches(self):
        # beta * runs = 3e-4 <= 0.01, so zero breaches are expected
        stats, records = run_monte_carlo(box(2), 40, 20, 1e-6, 300, master_seed=1)
        assert all(rec.v_true <= rec.eps_sr for rec in records)
        assert stats.empirical_confidence["eps_sr"] == 0.0
        assert stats.ties == 0

    def test_gap_ordering_and_occurrences(self):
        stats, _ = run_monte_carlo(box(2), 50, 50, 1e-6, 300, master_seed=2)
        assert stats.mean_gap["eps_sr"] < stats.mean_gap["eps_s"]
        assert stats.mean_gap["eps_sr"] < stats.mean_gap["eta"]
        total = sum(count for count, _ in stats.occurrences.values())
        assert total == 300
        for s, (count, mean_ratio) in stats.occurrences.items():
            assert 1 <= s <= 4
            assert count > 0
            assert 0.0 <= mean_ratio <= 1.0

    def test_no_validation_samples(self):
        stats, records = run_monte_carlo(SCALAR, 25, 0, 1e-6, 20, master_seed=3)
        assert all(rec.r == 0 for rec in records)
        assert all(rec.eta is None and rec.chernoff is None for rec in records)
        assert stats.mean_gap["eta"] is None

    def test_record_serialization_stable(self):
        _, records = run_monte_carlo(box(2), 20, 10, 1e-6, 12, master_seed=4)
        text = records_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "run,s,r,v_true,eps_sr,eps_s,eta,chernoff"
        assert len(lines) == 13
        assert records_csv(records) == text
        jsonl = records_jsonl(records).strip().split("\n")
        assert len(jsonl) == 12

    def test_gap_stats_json(self):
        import json

        stats, _ = run_monte_carlo(box(2), 20, 10, 1e-6, 12, master_seed=4)
        doc = json.loads(gap_stats_json(stats))
        assert doc["runs"] == 12
        assert set(doc["bounds"]) == {"eps_sr", "eps_s", "eta", "chernoff"}
        assert doc["occurrences"][0]["count"] >= 1


class TestIncrementalJudgement:
    def test_direction_of_updates(self):
        toy = box(2)
        rng = np.random.default_rng(52)
        design = toy.sample(rng, 60)
        validation = toy.sample(rng, 25)
        solution = solve_scenario(toy, design)
        steps = incremental_judgement(solution, 60, 1e-6, validation)
        assert len(steps) == 26
        assert steps[0].m == 0
        assert steps[0].eta is None
        violating = violation_mask(solution, validation)
        assert violating.any()  # otherwise the test says nothing about rises
        for before, after, hit in zip(steps, steps[1:], violating):
            if hit:
                assert after.eps > before.eps
                if before.eta is not None:
                    assert after.eta > before.eta
            else:
                assert after.eps < before.eps
                if before.eta is not None:
                    assert after.eta < before.eta

    def test_starts_from_no_validation_bound(self):
        toy = SCALAR
        rng = np.random.default_rng(53)
        design = toy.sample(rng, 40)
        solution = solve_scenario(toy, design)
        steps = incremental_judgement(solution, 40, 1e-6, toy.sample(rng, 5))
        from scencert.posterior_bounds import (
            CertificateProblem,
            CoefficientVector,
            wait_and_judge,
        )

        p = CertificateProblem(40, 0, 1, 1e-6)
        judged = wait_and_judge(p, CoefficientVector.uniform(p))
        assert steps[0].eps == pytest.approx(judged[solution.support_count], abs=1e-9)

    def test_rejects_coefficients_without_mass_above_zeta(self):
        toy = box(2)  # zeta = 4
        rng = np.random.default_rng(54)
        solution = solve_scenario(toy, toy.sample(rng, 30))
        values = np.zeros(31)
        values[1:3] = 0.5
        coeffs = CoefficientVector(values, CertificateProblem(30, 0, 1, 1e-6))
        with pytest.raises(ValueError, match="positive mass"):
            incremental_judgement(solution, 30, 1e-6, toy.sample(rng, 5), coeffs=coeffs)

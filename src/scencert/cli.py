"""Command-line front end.

Every subcommand is a pure function of its flags and seed: no wall clock,
no environment lookups, fixed 12-significant-digit number formatting.
Exit codes: 0 success, 2 usage error, 3 numeric or domain error (out
of memory included), 4 LP failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

from . import serialize
from ._parallel import resolve_threads
from .classic_bounds import (
    DEFAULT_TOL,
    apriori_epsilon,
    chernoff_bound,
    clopper_pearson,
)
from .lower_limits import lower_limit, lower_limit_table
from .posterior_bounds import (
    CertificateProblem,
    CoefficientVector,
    bound_table,
    solve_root,
)
from .refinement import (
    DEFAULT_MAX_ITER,
    DEFAULT_TAU,
    DEFAULT_TOL_CONVERGE,
    refine,
)
from .scenario_lab import (
    ToyScenarioProblem,
    incremental_judgement,
    run_monte_carlo,
    solve_scenario,
)

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_LP = 4

_KIND_BY_FLAG = {"scalar-max": "scalar_max", "bounding-box": "bounding_box"}


def _load_coefficients(problem: CertificateProblem, source: str) -> CoefficientVector:
    if source == "uniform":
        return CoefficientVector.uniform(problem)
    with open(source) as handle:
        values = serialize.parse_coefficients(handle.read())
    return CoefficientVector(values, problem, scheme="custom")


def _toy(args) -> ToyScenarioProblem:
    return ToyScenarioProblem(_KIND_BY_FLAG[args.kind], args.d)


def _cmd_apriori(args) -> int:
    print(serialize.fmt(apriori_epsilon(args.n, args.zeta, args.beta, args.tol)))
    return EXIT_OK


def _cmd_cp(args) -> int:
    print(serialize.fmt(clopper_pearson(args.m, args.l, args.beta, args.tol)))
    return EXIT_OK


def _cmd_chernoff(args) -> int:
    result = chernoff_bound(args.m, args.r, args.beta)
    print(serialize.fmt(result.value))
    if result.exceeds_one:
        print("warning: bound exceeds 1 (reported unclamped)", file=sys.stderr)
    return EXIT_OK


def _cmd_bound(args) -> int:
    problem = CertificateProblem(args.n, args.m, args.zeta, args.beta)
    coeffs = _load_coefficients(problem, args.coeffs)
    root = solve_root(args.k, args.l, problem, coeffs, tol=args.tol)
    print(serialize.fmt(1.0 - root))
    return EXIT_OK


def _cmd_table(args) -> int:
    problem = CertificateProblem(args.n, args.m, args.zeta, args.beta)
    coeffs = _load_coefficients(problem, args.coeffs)
    table = bound_table(problem, coeffs, args.tol)
    text = (
        serialize.table_csv(table)
        if args.format == "csv"
        else serialize.table_json(table)
    )
    serialize.write_output(args.output, text)
    return EXIT_OK


def _cmd_lower_limit(args) -> int:
    problem = CertificateProblem(args.n, args.m, args.zeta, args.beta)
    if (args.k is None) != (args.l is None):
        raise ValueError("--k and --l must be given together")
    if args.k is not None:
        if args.output is not None:
            raise ValueError("--output writes the whole grid; drop it for a "
                             "--k/--l point query")
        value = lower_limit(args.k, args.l, problem, args.tol)
        print(serialize.fmt(value.eps))
        if value.degenerate:
            print("warning: no root exists at this cell; limit degenerates to 0",
                  file=sys.stderr)
        return EXIT_OK
    if args.output is None:
        raise ValueError("provide --k/--l for a point query or --output for the grid")
    table = lower_limit_table(problem, args.tol)
    text = (
        serialize.lower_table_csv(table)
        if args.format == "csv"
        else serialize.lower_table_json(table)
    )
    serialize.write_output(args.output, text)
    degenerate = int(table.degenerate.sum())
    if degenerate:
        print(f"warning: {degenerate} of {table.degenerate.size} cells have no root; "
              "their limit degenerates to 0", file=sys.stderr)
    return EXIT_OK


def _cmd_refine(args) -> int:
    problem = CertificateProblem(args.n, args.m, args.zeta, args.beta)
    coeffs = _load_coefficients(problem, args.coeffs)
    trace = refine(
        problem,
        coeffs,
        tol_root=args.tol,
        tol_converge=args.tol_converge,
        max_iter=args.max_iter,
        tau=args.tau,
    )
    if args.output is not None:
        serialize.write_output(args.output, serialize.trace_json(trace))
    if args.coeffs_out is not None:
        serialize.write_output(
            args.coeffs_out,
            serialize.coefficients_json(trace.final.coefficients.values),
        )
    print(f"{trace.termination} after {len(trace.iterations) - 1} refinement steps")
    return EXIT_LP if trace.termination == "lp_failure" else EXIT_OK


def _cmd_simulate(args) -> int:
    toy = _toy(args)
    cert = CertificateProblem(args.n, args.m, toy.zeta, args.beta)
    stats, records = run_monte_carlo(
        toy,
        args.n,
        args.m,
        args.beta,
        args.runs,
        coeffs=_load_coefficients(cert, args.coeffs),
        master_seed=args.seed,
        tol=args.tol,
    )
    if args.output is not None:
        text = (
            serialize.records_csv(records)
            if args.format == "csv"
            else serialize.records_jsonl(records)
        )
        serialize.write_output(args.output, text)
    sys.stdout.write(serialize.gap_stats_json(stats))
    return EXIT_OK


def _cmd_incremental(args) -> int:
    toy = _toy(args)
    cert = CertificateProblem(args.n, args.m, toy.zeta, args.beta)
    # the stream that run 0 of `simulate` draws from at this seed
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(0,)))
    pts = toy.sample(rng, args.n + args.m)
    solution = solve_scenario(toy, pts[: args.n])
    steps = incremental_judgement(
        solution,
        args.n,
        args.beta,
        pts[args.n :],
        coeffs=_load_coefficients(cert, args.coeffs),
        tol=args.tol,
    )
    text = (
        serialize.incremental_csv(steps)
        if args.format == "csv"
        else serialize.incremental_json(steps)
    )
    if args.output is not None:
        serialize.write_output(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    if "n" in names:
        parser.add_argument("--n", type=int, required=True, help="design sample count")
    if "m" in names:
        parser.add_argument("--m", type=int, required=True,
                            help="validation sample count")
    if "zeta" in names:
        parser.add_argument("--zeta", type=int, required=True,
                            help="support-count cap")
    if "beta" in names:
        parser.add_argument("--beta", type=float, required=True,
                            help="confidence level in (0, 1)")
    if "tol" in names:
        parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                            help="width below which each root's final bracket stops")
    if "coeffs" in names:
        parser.add_argument("--coeffs", default="uniform",
                            help="'uniform' or a JSON coefficient file")
    if "threads" in names:
        parser.add_argument("--threads", type=int, default=None,
                            help="no-op kept for compatibility (all work runs in "
                                 "one thread); must be at least 1")
    if "kind" in names:
        parser.add_argument("--kind", choices=sorted(_KIND_BY_FLAG),
                            required=True, help="toy scenario program")
        parser.add_argument("--d", type=int, default=1,
                            help="uncertainty dimension")
    if "output" in names:
        parser.add_argument("--output", default=None, help="output file path")
    if "format" in names:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="scencert",
        description="A posteriori certificates for convex scenario programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apriori", help="prior bound from the sample size")
    _add_common(p, "n", "zeta", "beta", "tol")
    p.set_defaults(func=_cmd_apriori)

    p = sub.add_parser("cp", help="one-sided Clopper-Pearson bound")
    _add_common(p, "m", "beta", "tol")
    p.add_argument("--l", type=int, required=True, help="observed violations")
    p.set_defaults(func=_cmd_cp)

    p = sub.add_parser("chernoff", help="one-sided Chernoff bound")
    _add_common(p, "m", "beta")
    p.add_argument("--r", type=int, required=True, help="observed violations")
    p.set_defaults(func=_cmd_chernoff)

    p = sub.add_parser("bound", help="two-indexed certificate at one cell")
    _add_common(p, "n", "m", "zeta", "beta", "tol", "coeffs")
    p.add_argument("--k", type=int, required=True, help="support count")
    p.add_argument("--l", type=int, required=True, help="validation violations")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="full certificate grid to a file")
    _add_common(p, "n", "m", "zeta", "beta", "tol", "coeffs", "threads")
    # a grid goes to a file; on stdout it would mix with diagnostics
    p.add_argument("--output", required=True, help="output file path")
    _add_common(p, "format")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("lower-limit", help="fundamental lower limits")
    _add_common(p, "n", "m", "zeta", "beta", "tol", "output", "format")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.set_defaults(func=_cmd_lower_limit)

    p = sub.add_parser("refine", help="refine coefficients by iterated LPs")
    _add_common(p, "n", "m", "zeta", "beta", "tol", "coeffs", "threads", "output")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU,
                   help="mass floor on indices zeta..n-1")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--tol-converge", type=float, default=DEFAULT_TOL_CONVERGE,
                   help="stop once no root moves more than this")
    p.add_argument("--coeffs-out", default=None,
                   help="write final coefficients to this JSON file")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("simulate", help="Monte Carlo audit on a toy problem")
    _add_common(p, "kind", "n", "m", "beta", "tol", "coeffs", "threads", "output",
                "format")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("incremental", help="certificates as samples arrive")
    _add_common(p, "kind", "n", "m", "beta", "tol", "coeffs", "output", "format")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_incremental)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", None) is not None:
            resolve_threads(args.threads)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

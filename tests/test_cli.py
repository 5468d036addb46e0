"""Command-line interface: values, files, determinism, exit codes."""

import argparse
import csv
import hashlib
import json
import os
import shlex
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from scencert import simplex
from scencert.cli import main
from scencert.posterior_bounds import CertificateProblem, CoefficientVector, _SignEvaluator
from scencert.serialize import parse_coefficients

from helpers import dense_margin, exact_certificate_sign

# The refine digests were measured under HiGHS 1.12; another HiGHS release
# may give weights that differ in the last digits.
_HIGHS = simplex._load_highs()
_ON_HIGHS_1_12 = pytest.mark.skipif(
    (_HIGHS.HIGHS_VERSION_MAJOR, _HIGHS.HIGHS_VERSION_MINOR) != (1, 12),
    reason="the refine digests were measured under HiGHS 1.12")


def readme_examples():
    """The commands of the README's CLI block, continuation lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in commands if line.startswith("scencert ")]
    assert examples, "README.md has no scencert commands in its CLI block"
    return examples


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once(capsys, monkeypatch):
    args = ("cp", "--m", "20", "--l", "2", "--beta", "1e-6")
    first = run_cli(capsys, *args)
    added = []
    add_argument = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *a, **kw: added.append(a) or add_argument(self, *a, **kw))
    assert run_cli(capsys, *args) == first
    assert added == []


class TestPointQueries:
    def test_apriori(self, capsys):
        code, out, _ = run_cli(capsys, "apriori", "--n", "500", "--zeta", "18",
                               "--beta", "1e-6")
        assert code == 0
        assert abs(float(out) - 0.0889) < 5e-4

    def test_apriori_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "apriori", "--n", "100", "--zeta", "1",
                               "--beta", "0.5")
        assert code == 0
        assert abs(float(out) - (1 - 0.5 ** 0.01)) < 1e-9

    def test_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "500", "--m", "500",
                               "--zeta", "18", "--beta", "1e-6", "--k", "3",
                               "--l", "2")
        assert code == 0
        assert abs(float(out) - 0.0268) < 5e-4

    def test_cp_and_chernoff(self, capsys):
        code, out, _ = run_cli(capsys, "cp", "--m", "100", "--l", "10",
                               "--beta", "1e-6")
        assert code == 0
        assert abs(float(out) - 0.3045) < 5e-4
        code, out, err = run_cli(capsys, "chernoff", "--m", "100", "--r", "10",
                                 "--beta", "1e-6")
        assert code == 0
        assert abs(float(out) - 0.3628) < 5e-4
        assert err == ""

    def test_chernoff_out_of_range_warns(self, capsys):
        code, out, err = run_cli(capsys, "chernoff", "--m", "10", "--r", "9",
                                 "--beta", "1e-6")
        assert code == 0
        assert float(out) > 1.0
        assert "exceeds 1" in err

    def test_lower_limit_point(self, capsys):
        code, out, _ = run_cli(capsys, "lower-limit", "--n", "100", "--m", "5",
                               "--zeta", "8", "--beta", "1e-6", "--k", "3",
                               "--l", "2")
        assert code == 0
        assert 0.0 < float(out) < 1.0

    def test_lower_limit_point_without_root(self, capsys):
        code, out, err = run_cli(capsys, "lower-limit", "--n", "5", "--m", "100",
                                 "--zeta", "2", "--beta", "0.01", "--k", "2",
                                 "--l", "0")
        assert code == 0
        assert out == "0\n"
        assert err == "warning: no root exists at this cell; limit degenerates to 0\n"


class TestExitCodes:
    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["apriori", "--n", "500", "--zeta", "18"])
        assert info.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_refine_takes_no_format(self, capsys):
        # refine always writes its JSON trace; --format is an unknown flag
        with pytest.raises(SystemExit) as info:
            main(["refine", "--n", "30", "--m", "2", "--zeta", "3", "--beta", "1e-6",
                  "--format", "csv"])
        assert info.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_domain_error_is_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "apriori", "--n", "10", "--zeta", "10",
                               "--beta", "0.5")
        assert code == 3
        assert "zeta" in err

    @pytest.mark.parametrize("args, message", [
        (("apriori", "--n", "100", "--zeta", "8", "--beta", "1e-6",
          "--tol", "inf"), "tol"),
        (("cp", "--m", "100", "--l", "10", "--beta", "1e-6", "--tol", "nan"),
         "tol"),
        (("bound", "--n", "100", "--m", "100", "--zeta", "18", "--k", "5",
          "--l", "7", "--beta", "1e-6", "--tol", "nan"), "tol"),
        (("lower-limit", "--n", "100", "--m", "25", "--zeta", "10", "--k", "3",
          "--l", "4", "--beta", "1e-6", "--tol", "nan"), "tol"),
        (("refine", "--n", "30", "--m", "2", "--zeta", "3", "--beta", "1e-6",
          "--tol-converge", "nan"), "tol_converge"),
        (("table", "--n", "20", "--m", "4", "--zeta", "3", "--beta", "1e-6",
          "--threads", "0", "--output", "unused.csv"), "thread count"),
        (("refine", "--n", "30", "--m", "2", "--zeta", "3", "--beta", "1e-6",
          "--tau", "nan"), "tau"),
        (("refine", "--n", "30", "--m", "2", "--zeta", "3", "--beta", "1e-6",
          "--tau", "inf"), "tau"),
        (("simulate", "--kind", "bounding-box", "--d", "2", "--n", "30", "--m", "15",
          "--beta", "1e-6", "--runs", "60", "--seed", "9", "--threads", "0"),
         "thread count"),
        (("refine", "--n", "30", "--m", "2", "--zeta", "3", "--beta", "1e-6",
          "--tau", "2"), "tau"),
        (("simulate", "--kind", "scalar-max", "--n", "5", "--m", "0",
          "--beta", "1e-3", "--runs", str(2**32 + 1), "--seed", "0"), "runs"),
        (("simulate", "--kind", "scalar-max", "--n", "5", "--m", "3",
          "--beta", "1e-3", "--runs", "4", "--seed", "-1"),
         "expected non-negative integer"),
        (("incremental", "--kind", "scalar-max", "--n", "5", "--m", "3",
          "--beta", "1e-3", "--seed", "-1"), "expected non-negative integer"),
        (("incremental", "--kind", "scalar-max", "--n", "5", "--m", "-1",
          "--beta", "1e-3", "--seed", "0"), "m >= 0"),
        (("lower-limit", "--n", "30", "--m", "2", "--zeta", "3", "--beta", "1e-6",
          "--k", "1"), "error: --k and --l must be given together"),
        (("lower-limit", "--n", "30", "--m", "2", "--zeta", "3", "--beta", "1e-6"),
         "error: provide --k/--l for a point query or --output for the grid"),
        # Counts of 2**64 or more, which NumPy holds only as object arrays.
        (("cp", "--m", str(2**64), "--l", "0", "--beta", "1e-3"),
         "error: require m < 2**64"),
        (("apriori", "--n", str(2**64), "--zeta", "1", "--beta", "1e-3"),
         "error: require n < 2**64"),
        (("bound", "--n", "5", "--m", str(10**20), "--zeta", "2", "--beta", "1e-3",
          "--k", "0", "--l", "0"), "error: require m < 2**64"),
    ])
    def test_bad_numeric_flag_is_exit_three(self, capsys, monkeypatch, tmp_path,
                                            args, message):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *args)
        assert code == 3
        assert message in err

    def test_refine_with_a_root_below_tol_converges(self, capsys, tmp_path):
        # The root at (k=2, l=0) lies below tol, so its grid t is 0: that
        # cell gets no LP row, and the other cells refine as usual.
        trace_path = tmp_path / "trace.json"
        code, out, _ = run_cli(capsys, "refine", "--n", "3", "--m", "0",
                               "--zeta", "2", "--beta", "1e-14",
                               "--output", str(trace_path))
        assert code == 0
        assert out.startswith("converged")
        trace = json.loads(trace_path.read_text())
        initial, final = trace[0]["eps_grid"], trace[-1]["eps_grid"]
        assert initial[2][0] == 1.0
        for row_initial, row_final in zip(initial, final):
            assert all(f <= i for i, f in zip(row_initial, row_final))

    @pytest.mark.parametrize("sizes", [("2", "0", "1", "1e-300"),
                                       ("4", "1", "3", "1e-200")])
    def test_refine_with_every_root_zero_keeps_the_initial_iterate(
            self, capsys, tmp_path, sizes):
        # Every root lies below tol, so every eps is already 1 and no
        # cell has an LP row: there is nothing to refine.
        n, m, zeta, beta = sizes
        trace_path = tmp_path / "trace.json"
        code, out, _ = run_cli(capsys, "refine", "--n", n, "--m", m, "--zeta", zeta,
                               "--beta", beta, "--output", str(trace_path))
        assert code == 0
        assert out == "converged after 0 refinement steps\n"
        (initial,) = json.loads(trace_path.read_text())
        assert all(eps == 1.0 for row in initial["eps_grid"] for eps in row)

    def test_lower_limit_point_query_rejects_output(self, capsys, tmp_path):
        grid_path = tmp_path / "limits.csv"
        code, out, err = run_cli(capsys, "lower-limit", "--n", "30", "--m", "2",
                                 "--zeta", "3", "--beta", "1e-6", "--k", "1",
                                 "--l", "1", "--output", str(grid_path))
        assert code == 3
        assert "--output" in err and "--k/--l" in err
        assert out == ""
        assert not grid_path.exists()

    @pytest.mark.parametrize("text", [
        "[false, false, true, false]",
        "[1" + "0" * 400 + "]",
        "[" * 100_000 + "]" * 100_000,
    ], ids=["booleans", "integer-past-float-range", "nested-past-recursion-limit"])
    def test_boolean_coefficients_are_rejected(self, capsys, tmp_path, text):
        coeffs_path = tmp_path / "coeffs.json"
        coeffs_path.write_text(text)
        code, _, err = run_cli(capsys, "bound", "--n", "3", "--m", "0",
                               "--zeta", "2", "--beta", "1e-6", "--k", "1",
                               "--l", "0", "--coeffs", str(coeffs_path))
        assert code == 3
        assert "array of numbers" in err

    def test_lp_failure_maps_to_exit_four(self, capsys, monkeypatch):
        import scencert.refinement as refinement_module
        from scencert.simplex import LPInfeasibleError

        def boom(*args, **kwargs):
            raise LPInfeasibleError("synthetic")

        monkeypatch.setattr(refinement_module, "lp_solve", boom)
        code, out, _ = run_cli(capsys, "refine", "--n", "30", "--m", "2",
                               "--zeta", "3", "--beta", "1e-6")
        assert code == 4
        assert out == "lp_failure after 0 refinement steps\n"

    def test_out_of_memory_is_exit_three_without_traceback(self, capsys, monkeypatch):
        import scencert.cli as cli_module

        message = "Unable to allocate 16.0 GiB for an array with shape (429402, 5001)"

        def boom(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli_module, "refine", boom)
        code, out, err = run_cli(capsys, "refine", "--n", "30", "--m", "2",
                                 "--zeta", "3", "--beta", "1e-6")
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("n, m, zeta", [(100, 20, 8), (200, 20, 10), (300, 30, 10),
                                            (500, 200, 18)])
    def test_refine_beyond_readme_sizes_ends_in_bounded_time(self, capsys, n, m, zeta):
        # Sizes past the README examples, whose LPs are feasible only
        # within thin margins; each must converge, not end in lp_failure.
        code, out, _ = run_cli(capsys, "refine", "--n", str(n), "--m", str(m),
                               "--zeta", str(zeta), "--beta", "1e-6")
        assert (code, out.split()[0]) == (0, "converged")


class TestFiles:
    def test_table_grid_file(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "table", "--n", "50", "--m", "30",
                             "--zeta", "10", "--beta", "1e-6",
                             "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "k,l,t,eps"
        assert len(lines) == 1 + 11 * 31

    def test_table_grid_file_across_thread_counts(self, capsys, tmp_path):
        paths = [tmp_path / "one.csv", tmp_path / "four.csv"]
        for path, threads in zip(paths, ("1", "4")):
            code, _, _ = run_cli(capsys, "table", "--n", "35", "--m", "12",
                                 "--zeta", "6", "--beta", "1e-6", "--threads",
                                 threads, "--output", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    # Each case ends with the flag whose file is pinned.
    @pytest.mark.parametrize("args, digest", [
        (("table", "--n", "100", "--m", "100", "--zeta", "18", "--beta", "1e-6", "--output"),
         "a8773d3f643f5fd50c93c56d33bf7c5785a7bdf1d6be5b3589864f99111aab4f"),
        pytest.param(
            ("refine", "--n", "100", "--m", "10", "--zeta", "8", "--beta", "1e-6", "--output"),
            "3e0aea4c824affeeac123e322bf49722f16193e3a44e53a12a87d8b3aacef919",
            marks=_ON_HIGHS_1_12,
        ),
        (("lower-limit", "--n", "100", "--m", "25", "--zeta", "10", "--beta", "1e-6",
          "--output"),
         "832a610c3da366fabfc83ca5cb5a70a604c525480ab494fdbee753f941c4276c"),
        # --output gets the same bytes that stdout shows
        (("incremental", "--kind", "bounding-box", "--d", "2", "--n", "500",
          "--m", "500", "--beta", "1e-6", "--seed", "42", "--output"),
         "4ba68de4ca955e4497753ae0e482075b32b1f4eae0d88d0d9dede72144a39d34"),
        (("table", "--n", "500", "--m", "500", "--zeta", "18", "--beta", "1e-6", "--output"),
         "521d059bf5cdaacb88b4b4a987d6e0495a7cce7ea44d12e57f8700ade6a65577"),
        (("table", "--n", "100", "--m", "100", "--zeta", "18", "--beta", "1e-6",
          "--format", "json", "--output"),
         "bb399b22acfb5b623f054277901634a7f2f1754a9c8f53b466d454380517bb18"),
        (("lower-limit", "--n", "100", "--m", "25", "--zeta", "10", "--beta", "1e-6",
          "--format", "json", "--output"),
         "0340fc25fea91633d504a82ab4581fd8b9ea95cde0ed3b7310ad1ab977ed880e"),
        # simulate writes JSON Lines for --format json
        (("simulate", "--kind", "bounding-box", "--d", "3", "--n", "40", "--m", "25",
          "--beta", "1e-6", "--runs", "300", "--seed", "7", "--format", "json", "--output"),
         "5282e614cfb42b18fbaf9d5fcf8918d3d9984fcf0dca6bbc3221e0fcb4e1dc46"),
        (("incremental", "--kind", "bounding-box", "--d", "2", "--n", "500",
          "--m", "500", "--beta", "1e-6", "--seed", "42", "--format", "json", "--output"),
         "50287c3196b3fd94061ce445d7cf811e604aadf4fa7b1f8599e6328d9a9f2040"),
        pytest.param(
            ("refine", "--n", "100", "--m", "10", "--zeta", "8", "--beta", "1e-6",
             "--coeffs-out"),
            "0732b9ddf39d8e185fcfdd62f87af65b9d5e9fc0c208fae575dfc82df4477212",
            marks=_ON_HIGHS_1_12,
        ),
        # 14 runs that mix k, where the (100, 25, 10) grid fits in one
        (("lower-limit", "--n", "200", "--m", "400", "--zeta", "10", "--beta", "1e-6",
          "--output"),
         "1543feeb7948346d9349a7d9c684d77cac1ca7249de36684b09ea457a33de599"),
    ], ids=["table-100-100-18", "refine-100-10-8", "lower-limit-100-25-10",
            "incremental-box2-500-500", "table-500-500-18", "table-json-100-100-18",
            "lower-limit-json-100-25-10", "simulate-jsonl-box3-40-25",
            "incremental-json-box2-500-500", "refine-coeffs-100-10-8",
            "lower-limit-200-400-10"])
    def test_golden_output(self, capsys, tmp_path, args, digest):
        # Any change to a root, a refinement step or the format changes
        # these digests.
        out_path = tmp_path / "out"
        code, _, _ = run_cli(capsys, *args, str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "serialize rounds eps to the nearest 12 digits, so a printed eps can "
        "fall below the exact certificate"))
    def test_printed_eps_is_not_below_the_exact_certificate(self, capsys, tmp_path):
        # Cells of the paper's uniform grids whose printed eps is known to be
        # 2-5e-13 below the exact one: t = 1 - eps reads sign -1 there.
        known = {(100, 100): [(0, 32), (7, 0), (14, 54), (17, 59)],
                 (500, 500): [(18, 50), (18, 83)]}
        unsafe = []
        for (n, m), cells in known.items():
            out_path = tmp_path / f"table-{n}-{m}.csv"
            code, _, _ = run_cli(capsys, "table", "--n", str(n), "--m", str(m), "--zeta",
                                 "18", "--beta", "1e-6", "--output", str(out_path))
            assert code == 0
            eps = {(int(row["k"]), int(row["l"])): row["eps"]
                   for row in csv.DictReader(out_path.read_text().splitlines())}
            p = CertificateProblem(n, m, 18, 1e-6)
            uniform = CoefficientVector.uniform(p)
            unsafe += [(n, m, k, l) for k, l in cells
                       if exact_certificate_sign(1 - Fraction(eps[k, l]), k, l, p, uniform) < 0]
        assert not unsafe

    LIMITS = ("lower-limit", "--n", "40", "--m", "4", "--zeta", "5", "--beta", "1e-6")

    def _plain_output(self, capsys, tmp_path) -> bytes:
        plain = tmp_path / "plain.csv"
        assert run_cli(capsys, *self.LIMITS, "--output", str(plain))[0] == 0
        return plain.read_bytes()

    def test_output_through_symlink_keeps_the_link(self, capsys, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("")
        link.symlink_to(target)
        assert run_cli(capsys, *self.LIMITS, "--output", str(link))[0] == 0
        assert link.is_symlink()
        assert target.read_bytes() == self._plain_output(capsys, tmp_path)

    def test_output_into_fifo_reaches_its_reader(self, capsys, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # A non-blocking reader lets the writer open the FIFO, and the
        # small output fits in the pipe's buffer.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_cli(capsys, *self.LIMITS, "--output", str(fifo))[0] == 0
            received = b""
            while chunk := os.read(reader, 1 << 16):
                received += chunk
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == self._plain_output(capsys, tmp_path)

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_output_to_dev_stdout_on_a_pipe(self, capsys, tmp_path):
        # /dev/stdout on a pipe resolves to "pipe:[N]", which names no file,
        # as under `| head` or bash's >(gzip > out.gz).
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        command = [sys.executable, "-m", "scencert.cli", *self.LIMITS, "--output", "/dev/stdout"]
        result = subprocess.run(command, env=env, capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
        plain = self._plain_output(capsys, tmp_path)
        assert result.stdout == plain
        # On a regular file opened for append, as under `>> log.txt`, it
        # resolves to that file, whose earlier lines must survive.
        log = tmp_path / "log.txt"
        log.write_bytes(b"earlier line\n")
        with open(log, "ab") as stdout:
            result = subprocess.run(command, env=env, stdout=stdout,
                                    stderr=subprocess.PIPE, timeout=120)
        assert result.returncode == 0, result.stderr
        assert log.read_bytes() == b"earlier line\n" + plain

    @pytest.mark.parametrize("command", [
        ("table", "--n", "10", "--m", "3", "--zeta", "3", "--beta", "1e-6"), LIMITS,
    ], ids=["table", "lower-limit"])
    def test_output_into_missing_directory_names_the_target(self, capsys, tmp_path, command):
        # Not the temporary sibling, whose random name would make stderr
        # differ from run to run.
        path = tmp_path / "missing" / "out.csv"
        assert run_cli(capsys, *command, "--output", str(path)) == (
            3, "", f"error: [Errno 2] No such file or directory: {str(path)!r}\n")

    def test_empty_output_path_is_named_and_writes_nothing(self, capsys, tmp_path,
                                                           monkeypatch):
        # os.path.realpath('') is the working directory, whose parent
        # would receive the temporary file.
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run_cli(capsys, *self.LIMITS, "--output", "") == (
            3, "", "error: [Errno 2] No such file or directory: ''\n")
        assert [path.name for path in tmp_path.rglob("*")] == ["cwd"]

    def test_output_file_mode_follows_umask(self, capsys, tmp_path):
        path = tmp_path / "limits.csv"
        old = os.umask(0o027)
        try:
            assert run_cli(capsys, *self.LIMITS, "--output", str(path))[0] == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_table_requires_output(self):
        with pytest.raises(SystemExit) as info:
            main(["table", "--n", "20", "--m", "4", "--zeta", "3",
                  "--beta", "1e-6"])
        assert info.value.code == 2

    def test_lower_limit_grid_file(self, capsys, tmp_path):
        out_path = tmp_path / "lower.csv"
        code, _, _ = run_cli(capsys, "lower-limit", "--n", "40", "--m", "4",
                             "--zeta", "5", "--beta", "1e-6",
                             "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "k,l,eps_lower"
        assert len(lines) == 1 + 6 * 5

    def test_lower_limit_grid_beyond_readme_sizes(self, capsys, tmp_path):
        out_path = tmp_path / "lower.csv"
        code, _, _ = run_cli(capsys, "lower-limit", "--n", "200", "--m", "400",
                             "--zeta", "10", "--beta", "1e-6",
                             "--output", str(out_path))
        assert code == 0
        assert len(out_path.read_text().strip().split("\n")) == 1 + 11 * 401

    def test_lower_limit_grid_warns_about_degenerate_cells(self, capsys, tmp_path):
        out_path = tmp_path / "lower.csv"
        code, out, err = run_cli(capsys, "lower-limit", "--n", "10", "--m", "10",
                                 "--zeta", "3", "--beta", "0.9",
                                 "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert err == ("warning: 12 of 44 cells have no root; "
                       "their limit degenerates to 0\n")
        assert len(out_path.read_text().strip().split("\n")) == 1 + 4 * 11

    def test_lower_limit_grid_without_degenerate_cells_is_silent(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "lower-limit", "--n", "10", "--m", "10",
                               "--zeta", "3", "--beta", "1e-6",
                               "--output", str(tmp_path / "lower.csv"))
        assert code == 0
        assert err == ""

    def test_refine_roundtrip_through_coefficient_file(self, capsys, tmp_path):
        coeffs_path = tmp_path / "coeffs.json"
        trace_path = tmp_path / "trace.json"
        code, out, _ = run_cli(capsys, "refine", "--n", "30", "--m", "2",
                               "--zeta", "3", "--beta", "1e-6",
                               "--output", str(trace_path),
                               "--coeffs-out", str(coeffs_path))
        assert code == 0
        assert "converged" in out
        trace = json.loads(trace_path.read_text())
        refined_grid = trace[-1]["eps_grid"]

        table_path = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "table", "--n", "30", "--m", "2",
                             "--zeta", "3", "--beta", "1e-6",
                             "--coeffs", str(coeffs_path),
                             "--output", str(table_path))
        assert code == 0
        for line in table_path.read_text().strip().split("\n")[1:]:
            k, l, _, eps = line.split(",")
            assert abs(float(eps) - refined_grid[int(k)][int(l)]) <= 1e-8

        code, out, _ = run_cli(capsys, "bound", "--n", "30", "--m", "2",
                               "--zeta", "3", "--beta", "1e-6", "--k", "2",
                               "--l", "1", "--coeffs", str(coeffs_path))
        assert code == 0
        assert abs(float(out) - refined_grid[2][1]) <= 1e-8


class TestCoefficientFiles:
    TABLE = ("table", "--n", "40", "--m", "6", "--zeta", "5", "--beta", "1e-6")

    def _table(self, capsys, tmp_path, values):
        coeffs_path, out_path = tmp_path / "coeffs.json", tmp_path / "out.csv"
        coeffs_path.write_text(json.dumps(values))
        code, _, _ = run_cli(capsys, *self.TABLE, "--coeffs", str(coeffs_path),
                             "--output", str(out_path))
        assert code == 0
        problem = CertificateProblem(40, 6, 5, 1e-6)
        coeffs = CoefficientVector(parse_coefficients(coeffs_path.read_text()), problem)
        return out_path.read_bytes(), problem, coeffs

    def test_equal_weights_take_the_closed_form(self, capsys, tmp_path):
        out, problem, coeffs = self._table(capsys, tmp_path, [1.0 / 41] * 41)
        assert _SignEvaluator(problem, coeffs)._log_terms is None
        uniform_path = tmp_path / "uniform.csv"
        assert run_cli(capsys, *self.TABLE, "--output", str(uniform_path))[0] == 0
        assert out == uniform_path.read_bytes()

    def test_one_zero_weight_takes_the_support_sum(self, capsys, tmp_path):
        values = [1.0 / 40] * 41
        values[17] = 0.0
        _, problem, coeffs = self._table(capsys, tmp_path, values)
        ev = _SignEvaluator(problem, coeffs)
        assert ev._log_terms.shape == (6, 40)
        rng = np.random.default_rng(3)
        t, k, l = rng.uniform(0.0, 1.0, 100), rng.integers(0, 6, 100), rng.integers(0, 7, 100)
        margin = ev.margin(t, k, l)
        assert np.abs(margin - dense_margin(t, k, l, problem, coeffs)).max() <= 1e-11


class TestSimulate:
    CONFIG = ["simulate", "--kind", "bounding-box", "--d", "2", "--n", "30",
              "--m", "15", "--beta", "1e-6", "--runs", "40", "--seed", "42"]

    def test_byte_identical_reruns_across_thread_counts(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code, stdout_a, _ = run_cli(capsys, *self.CONFIG, "--output", str(out_a),
                                    "--threads", "1")
        assert code == 0
        code, stdout_b, _ = run_cli(capsys, *self.CONFIG, "--output", str(out_b),
                                    "--threads", "4")
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert stdout_a == stdout_b

    def test_summary_is_json(self, capsys):
        code, out, _ = run_cli(capsys, *self.CONFIG)
        assert code == 0
        doc = json.loads(out)
        assert doc["runs"] == 40
        assert "eps_sr" in doc["bounds"]

    def test_jsonl_records(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        code, _, _ = run_cli(capsys, *self.CONFIG, "--output", str(out_path),
                             "--format", "json")
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 40
        assert json.loads(lines[0])["run"] == 0


class TestIncremental:
    def test_csv_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "incremental", "--kind", "scalar-max",
                               "--n", "40", "--m", "6", "--beta", "1e-6",
                               "--seed", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,r,eta,eps"
        assert len(lines) == 8  # header + steps for m = 0..6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] == ""  # no Clopper-Pearson bound before m = 1

    def test_no_validation_samples(self, capsys):
        code, out, _ = run_cli(capsys, "incremental", "--kind", "bounding-box",
                               "--d", "2", "--n", "40", "--m", "0", "--beta", "1e-6",
                               "--seed", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,r,eta,eps"
        assert len(lines) == 2  # header + the step at m = 0
        m, r, eta, eps = lines[1].split(",")
        assert (m, r, eta) == ("0", "0", "")
        assert 0.0 < float(eps) < 1.0


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", readme_examples(), ids=lambda argv: argv[0])
    def test_example_exits_zero(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err

"""scencert benchmark: drives ``scencert.cli.main`` the way a user would.

    python3 perfbench/run.py --workload grid --seed 42 --seconds 25 --trace 0

One client runs a workload's CLI operations back to back (a closed loop)
inside a worker process that has already imported the package; a pass is
one run of every operation of the workload.  Every output is checked
(see checks.py).  With ``--trace 0`` the run times passes for about
``--seconds`` seconds (at least one) and reports the end-to-end metrics,
a pass's wall and CPU time as the sum of its operations' medians;
with ``--trace 1`` it times one plain pass and one traced pass and
reports the per-layer metrics, with the tracing overhead.  ``--workload
all`` runs every workload in turn.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The run environment and every pass are also written to
``.perfbench-out/results/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CHECKS  # noqa: E402
from tracer import TARGETS  # noqa: E402
from workloads import DEFAULT_SEED, WARMUP, WORKLOADS, Op  # noqa: E402

PREFIX = "@@"  # marks the worker's protocol lines
SETUP_PROBES = 9  # timed import probes per run; one more, untimed, warms the disk cache
READY_TIMEOUT_S = 120.0
KILL_GRACE_S = 20.0  # beyond an operation's own deadline, before the worker is killed
RUN_BUDGET_S = 150.0  # no pass starts that could end after this much of a run


class WorkerLost(RuntimeError):
    pass


class Worker:
    """A worker process plus a thread that reads its replies."""

    def __init__(self, trace: bool):
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.replies: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            self.env = self.receive(READY_TIMEOUT_S)["env"]
        except WorkerLost:
            self.close()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(PREFIX):
                self.replies.put(json.loads(line[len(PREFIX):]))
            else:
                sys.stderr.write(line)
        self.replies.put(None)

    def receive(self, timeout: float) -> dict:
        try:
            reply = self.replies.get(timeout=timeout)
        except queue.Empty:
            raise WorkerLost("worker did not answer in time") from None
        if reply is None:
            raise WorkerLost(f"worker exited with code {self.proc.wait()}")
        return reply

    def request(self, obj: dict, timeout: float) -> dict:
        try:
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise WorkerLost(f"worker is gone: {exc}") from None
        return self.receive(timeout)

    def close(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"kind": "quit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdout.close()


@dataclass
class OpResult:
    op: str
    status: str  # ok, exit, deadline, crash, killed, wrong
    wall: float
    cpu: float
    rss_mb: float
    cpus: tuple[int, int] = (-1, -1)  # CPU of the worker's main thread at start and end
    reason: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


@dataclass
class Pass:
    results: list[OpResult]

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.results)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.results)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_mb for r in self.results)


def typical_pass(passes: list[Pass], attr: str) -> float:
    """One pass's ``attr`` (wall or cpu), as the sum over its operations of
    each operation's median across the passes.  A slow spell of the host
    then moves the figure only if it hits most repeats of an operation."""
    ops = zip(*(p.results for p in passes))
    return sum(statistics.median(getattr(r, attr) for r in repeats) for repeats in ops)


class Client:
    """One closed-loop client: runs operations on a worker, replacing the
    worker when one has to be killed."""

    def __init__(self, workload: str, seed: int, trace: bool, outdir: Path):
        self.workload, self.seed, self.trace, self.outdir = workload, seed, trace, outdir
        self.worker: Worker | None = None
        self._start()

    def _argv(self, template, out: Path) -> list[str]:
        return [a.replace("{out}", str(out)).replace("{seed}", str(self.seed)) for a in template]

    def _start(self) -> None:
        self.worker = Worker(self.trace)
        self.env = self.worker.env
        for i, template in enumerate(WARMUP[self.workload]):
            reply = self.worker.request(
                {"kind": "run", "argv": self._argv(template, self.outdir / f"warmup{i}"),
                 "deadline": 60.0}, 60.0 + KILL_GRACE_S)
            if reply["status"] != "ok":
                raise RuntimeError(f"warm-up {template[0]} failed: {reply['stderr']}")
        if self.trace:
            self.worker.request({"kind": "reset"}, READY_TIMEOUT_S)

    def run(self, op: Op) -> OpResult:
        out = self.outdir / op.name
        argv = self._argv(op.argv, out)
        start = time.perf_counter()
        try:
            reply = self.worker.request({"kind": "run", "argv": argv, "deadline": op.deadline_s},
                                        op.deadline_s + KILL_GRACE_S)
        except WorkerLost as exc:
            # Only the wall time of a killed operation is known.
            wall = time.perf_counter() - start
            self.close()
            self._start()
            return OpResult(op.name, "killed", wall, 0.0, 0.0, reason=str(exc))
        last_line = reply["stderr"].strip().splitlines()[-1:]
        result = OpResult(op.name, reply["status"], reply["wall"], reply["cpu"],
                          reply["rss_mb"], tuple(reply["cpus"]),
                          last_line[0] if last_line else "")
        if result.status == "ok":
            text = out.read_text() if out.exists() else None
            try:
                reason = CHECKS[op.check](op, self.seed, text, reply["stdout"])
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason:
                result.status, result.reason = "wrong", reason
        out.unlink(missing_ok=True)
        return result

    def report(self, spans_path: Path) -> dict:
        return self.worker.request({"kind": "report", "spans_path": str(spans_path)},
                                   READY_TIMEOUT_S)

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def run_pass(client: Client, ops) -> Pass:
    return Pass([client.run(op) for op in ops])


def setup_probe() -> float:
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import scencert.cli as c; "
            "print(c.__file__, flush=True)")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if not line.strip() or Path(line.strip()).resolve().parent.parent != ROOT / "src":
        raise RuntimeError("setup probe could not import scencert.cli from the checkout")
    return elapsed


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return math.floor(100 * (len(values) - 10) / len(values)), ordered[len(values) - 11]


def describe(name: str, unit: str, values: list[float]) -> str:
    hp = high_percentile(values)
    tail = f"p{hp[0]} {hp[1]:.6g}" if hp else "p-high n/a (< 11 samples)"
    return f"{name:42s} median {statistics.median(values):.6g} {unit}  {tail}  n={len(values)}"


def commit() -> str:
    """HEAD of the checkout, marked ``-dirty`` if the tree has changes."""
    try:
        git = ["git", "-C", str(ROOT)]
        top, head = subprocess.run([*git, "rev-parse", "--show-toplevel", "HEAD"],
                                   capture_output=True, text=True, timeout=30,
                                   check=True).stdout.split()
        status = subprocess.run([*git, "status", "--porcelain"], capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, ValueError, subprocess.SubprocessError):
        return "unknown"
    if Path(top).resolve() != ROOT:  # the checkout sits inside some other repository
        return "unknown"
    return head + ("-dirty" if status.strip() else "")


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "fraction"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_s"] = "s"
    units.update({
        "posterior_bounds.margin_evals_per_cell": "evals/cell",
        "lower_limits.tail_evals_per_cell": "tails/cell",
        "simplex.lp_solve.failures": "count",
        "refinement.steps": "count",
        "serialize.bytes_written": "B",
        "parallel.workers": "count",
        "trace.overhead_s": "s",
    })
    return units


def per_layer_values(summary: dict, overhead_s: float) -> dict[str, float]:
    values = {}
    for target in TARGETS:
        values[f"{target}.calls"] = summary[f"{target}.calls"]
        values[f"{target}.self_s"] = summary[f"{target}.self_s"]
    cells = summary["posterior_bounds.solve_root.calls"]
    limits = summary["lower_limits.lower_limit.calls"]
    values["posterior_bounds.margin_evals_per_cell"] = (
        summary["posterior_bounds.margin.calls"] / cells if cells else 0.0)
    values["lower_limits.tail_evals_per_cell"] = (
        summary["lower_limits.log_binom_cdf.calls"] / limits if limits else 0.0)
    for key in ("simplex.lp_solve.failures", "refinement.steps", "serialize.bytes_written",
                "parallel.workers"):
        values[key] = summary[key]
    values["trace.overhead_s"] = overhead_s
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    run_start = time.perf_counter()
    ops = WORKLOADS[workload]
    setup_probe()  # untimed: the first import in a checkout also compiles bytecode
    # One import probe follows each pass, so that the probes are spread over
    # the run like the passes; their time does not count against --seconds.
    setup: list[float] = []
    probing_s = 0.0

    passes: list[Pass] = []
    client = Client(workload, seed, False, outdir)
    try:
        window_start = time.perf_counter()
        while True:
            passes.append(run_pass(client, ops))
            if len(setup) < SETUP_PROBES:
                probe_start = time.perf_counter()
                setup.append(setup_probe())
                probing_s += time.perf_counter() - probe_start
            if trace:
                break
            now = time.perf_counter()
            longest = max(p.wall for p in passes)
            if (now - window_start - probing_s + longest > seconds
                    or now - run_start + longest > RUN_BUDGET_S):
                break
    finally:
        client.close()
    setup += [setup_probe() for _ in range(SETUP_PROBES - len(setup))]

    summary, traced = None, None
    if trace:
        client = Client(workload, seed, True, outdir)
        try:
            traced = run_pass(client, ops)
            summary = client.report(outdir.parent / f"spans-{workload}.npy")
        finally:
            client.close()

    measured = passes + ([traced] if traced else [])
    results = [r for p in measured for r in p.results]
    failed = sum(r.failed for r in results)
    end_to_end = {
        "wall_s": typical_pass(passes, "wall"),
        "cpu_s": typical_pass(passes, "cpu"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "ok_frac": (len(results) - failed) / len(results),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {**client.env, "commit": commit()},
        "correct": not any(r.status == "wrong" for r in results),
        "attempted": len(results),
        "failed": failed,
        "end_to_end": end_to_end,
        "samples": {"wall_s": [p.wall for p in passes], "cpu_s": [p.cpu for p in passes],
                    "setup_s": setup, "peak_rss_mb": [p.rss_mb for p in passes]},
        "passes": [[vars(r) for r in p.results] for p in passes],
    }
    if trace:
        report["per_layer"] = per_layer_values(summary, traced.wall - passes[0].wall)
        report["traced_pass"] = [vars(r) for r in traced.results]
    return report


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"== {w}  seed={report['seed']}  env={json.dumps(report['env'], sort_keys=True)}")
    for key in ("wall_s", "cpu_s"):
        print(f"{w + '.' + key:42s} {report['end_to_end'][key]:.6g} s "
              "(sum of the per-operation medians below)")
        for i, r in enumerate(report["passes"][0]):
            values = [p[i][key[:-2]] for p in report["passes"]]
            print("  " + describe(f"{r['op']}.{key}", "s", values))
        print("  " + describe(f"whole pass.{key}", "s", report["samples"][key]))
    for key in ("setup_s", "peak_rss_mb"):
        print(describe(f"{w}.{key}", END_TO_END_UNITS[key], report["samples"][key]))
    cpus = [sorted({c for r in p for c in r["cpus"]}) for p in report["passes"]]
    print(f"{w + '.pass_cpus':42s} {cpus} (main-thread CPUs at op start/end, per pass)")
    print(f"{w + '.ok_frac':42s} {report['end_to_end']['ok_frac']:.6g} "
          f"({report['attempted'] - report['failed']} of {report['attempted']} operations)")
    for p in report["passes"] + ([report["traced_pass"]] if "traced_pass" in report else []):
        for r in p:
            if r["status"] != "ok":
                print(f"   failed {r['op']}: {r['status']} after {r['wall']:.3g} s  {r['reason']}")
    if "per_layer" in report:
        units = per_layer_units()
        for key, value in report["per_layer"].items():
            print(f"{w + '.' + key:60s} {value:.6g} {units[key]}")


def metrics_for(report: dict) -> dict:
    if "per_layer" in report:
        units, values = per_layer_units(), report["per_layer"]
    else:
        units, values = END_TO_END_UNITS, report["end_to_end"]
    return {key: {"value": values[key], "unit": units[key]} for key in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "scencert" / "cli.py").is_file():
        print(f"error: no scencert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench-out"
    outdir = base / f"run-{os.getpid()}"
    (base / "results").mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = []
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace), outdir)
            print_report(report)
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            (base / "results" / name).write_text(json.dumps(report, indent=1) + "\n")
            reports.append(report)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if len(reports) == 1:
        metrics = metrics_for(reports[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in metrics_for(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

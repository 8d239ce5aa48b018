"""Benchmark of the ising-density CLI: whole invocations, and traced, its layers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload exact-spectra --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38 --trace 1

A run is a closed loop: one client starts one CLI process at a time, each
after the previous one has exited, through ``bench/launch.py`` with the
interpreter running this script.  BLAS threads are capped at the number of
usable cores.  A pass runs every op of the workload once and checks each
output (``checks.py``, run in a separate checker process); passes repeat
while the next one still fits in ``--seconds``.  Outputs go to a scratch
directory inside the checkout that is removed at exit.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the layer
metrics (spans recorded by ``tracer.py``) and the tracing overhead.  The
last line of standard output is one JSON object with the results; the
lines before it are a report for people, with every metric by name, unit
and sample count.

An op fails on a non-zero exit, a traceback, a failed output check, or
output bytes that differ from its first pass in the run (the seed is the
same, so the bytes must be too).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Op, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = BENCH / "launch.py"
CHECKS = BENCH / "checks.py"
CLI_SOURCE = ROOT / "src" / "ising_density" / "cli.py"
SPEC = ROOT / "BENCHMARK.json"

# Before each pass, a run measures the set-up cost (a CLI process that
# imports the package and exits) this many times; one warm-up invocation
# at the start is discarded.
SETUP_PER_PASS = 3
# A run must end within 180 s: ops still running this long after the start
# are killed and count as failed.
RUN_DEADLINE_S = 160.0


@dataclass
class OpResult:
    op: Op
    wall_s: float
    cpu_s: float
    rss_mib: float
    bytes_written: int
    bytes_read: int
    error: str | None
    trace: dict | None = None


@dataclass
class Pass:
    traced: bool
    results: list[OpResult]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)


@dataclass
class WorkloadRun:
    name: str
    setup: list[OpResult] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)

    def all_results(self) -> list[OpResult]:
        return self.setup + [r for p in self.passes for r in p.results]

    def failures(self) -> list[OpResult]:
        return [r for r in self.all_results() if r.error is not None]


# ----------------------------------------------------------------------------
# running CLI processes
# ----------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """This process's environment with BLAS threads capped at the core count."""
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = env.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= cores):
            env[var] = str(cores)
    return env


def run_process(argv: list[str], cwd: Path, env: dict, log: Path, deadline: float):
    """Run one process to completion; return (wall s, rusage, exit code, killed).

    ``os.wait4`` gives this child's own CPU time and peak RSS; the
    ``RUSAGE_CHILDREN`` totals would fold in earlier children.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out,
            stderr=subprocess.STDOUT,
        )
        ready = []
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select(
                    [pidfd], [], [], max(0.0, deadline - time.monotonic())
                )
            finally:
                os.close(pidfd)
        finally:
            # Also on the way out of an exception: no op outlives the run.
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, not ready


def _digest(paths: list[Path]) -> list[str]:
    digests = []
    for path in paths:
        with open(path, "rb") as handle:
            digests.append(hashlib.file_digest(handle, "sha256").hexdigest())
    return digests


class Checker:
    """The checker process: ``checks.py`` serving calls as JSON lines.

    It alone imports numpy (see ``checks.py`` for why).  A plain pipe pair
    rather than ``multiprocessing``, which would leave its resource-tracker
    process running past the end of the run.
    """

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(CHECKS)], cwd=BENCH, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def call(self, function: str, *args):
        """``checks.<function>(*args)``, run in the checker process."""
        self.proc.stdin.write(json.dumps({"function": function, "args": args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"checker exited with {self.proc.wait()}")
        reply = json.loads(line)
        if "raised" in reply:
            raise RuntimeError(f"checker: {function} raised {reply['raised']}")
        return reply["value"]

    def close(self) -> None:
        """End the checker and wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs ops in one working directory and keeps their first-pass hashes."""

    def __init__(self, work: Path, env: dict, deadline: float, checker: Checker) -> None:
        self.work = work
        self.env = env
        self.deadline = deadline
        self.checker = checker
        self.first_hashes: dict[str, list[str]] = {}

    def run(self, op: Op, traced: bool) -> OpResult:
        for name in op.outputs:
            (self.work / name).unlink(missing_ok=True)
        spans = self.work / "spans.json"
        spans.unlink(missing_ok=True)
        log = self.work / "op.log"
        argv = [sys.executable, str(LAUNCH)]
        if traced:
            argv += ["--spans", str(spans)]
        wall, usage, code, killed = run_process(
            argv + list(op.argv), self.work, self.env, log, self.deadline
        )
        text = log.read_text(encoding="utf-8", errors="replace")
        lines = text.strip().splitlines()
        if killed:
            error = "killed at the run deadline"
        elif code != 0:
            error = f"exit {code}: {lines[-1] if lines else ''}"
        elif "Traceback (most recent call last)" in text:
            error = "traceback on output"
        else:
            error = self._check(op)
        return OpResult(
            op=op,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mib=usage.ru_maxrss / 1024.0,
            bytes_written=self._size(op.outputs),
            bytes_read=self._size(op.inputs),
            error=error,
            trace=json.loads(spans.read_text()) if traced and spans.exists() else None,
        )

    def _size(self, names: tuple[str, ...]) -> int:
        paths = [self.work / name for name in names]
        return sum(p.stat().st_size for p in paths if p.exists())

    def _check(self, op: Op) -> str | None:
        name, args = op.check
        error = self.checker.call("run_check", name, args, str(self.work))
        if error is not None:
            return error
        hashes = _digest([self.work / name for name in op.outputs])
        if self.first_hashes.setdefault(op.name, hashes) != hashes:
            return "output bytes differ from the first pass"
        return None


SETUP_OP = Op("setup", ("--help",), (), (), ("check_usage", ()))


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 env: dict, checker: Checker) -> WorkloadRun:
    deadline = time.monotonic() + RUN_DEADLINE_S
    ops = build(name, seed)
    run = WorkloadRun(name)
    runner = Runner(work, env, deadline, checker)
    runner.run(SETUP_OP, traced=False)  # warm-up: bytecode and page caches
    start = time.perf_counter()
    while True:
        # Set-up samples are spread over the run so that their median sees
        # the same machine conditions as the passes.
        run.setup += [runner.run(SETUP_OP, traced=False) for _ in range(SETUP_PER_PASS)]
        traced = trace and len(run.passes) % 2 == 1
        began = time.perf_counter()
        results = []
        for op in ops:
            results.append(runner.run(op, traced))
            if time.monotonic() > deadline:
                break
        run.passes.append(Pass(traced, results))
        took = time.perf_counter() - began
        if time.monotonic() > deadline:
            break
        if len(run.passes) >= (2 if trace else 1) and (
            time.perf_counter() - start + took > seconds
        ):
            break
    return run


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------


def pass_metrics(p: Pass) -> dict[str, float]:
    """End-to-end figures of one pass."""
    out = {
        "wall_s": p.wall_s,
        "cpu_s": sum(r.cpu_s for r in p.results),
        "peak_rss_mib": max(r.rss_mib for r in p.results),
    }
    for r in p.results:
        key = f"{r.op.subcommand}_s"
        out[key] = out.get(key, 0.0) + r.wall_s
    return out


# Spans whose summed time is a layer metric on every workload, zero where the
# workload does not call that layer.
LAYER_SPANS = (
    "model.build_hamiltonian", "model.eigvalsh", "model.exact_spectrum",
    "model.numeric_moments", "fermion.enumerate_spectrum", "curves.kernel_density",
    "curves.histogram", "curves.compare", "curves.curve_peaks", "curves.write_curve_csv",
    "curves.read_curve_csv", "peaks.components", "peaks.density_curve",
    "blocks.degeneracy_census", "analytic.saddle", "analytic.gaussian", "analytic.tail",
)


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans and counts."""
    busy: dict[str, float] = {}
    attrs: dict[str, list[dict]] = {}
    counts: dict[str, int] = {}
    cli_self = 0.0
    for r in p.results:
        trace = r.trace or {"main_s": 0.0, "spans": [], "counts": {}}
        children = 0.0
        for name, parent, start, end, extra in trace["spans"]:
            busy[name] = busy.get(name, 0.0) + (end - start)
            attrs.setdefault(name, []).append(extra or {})
            if parent == -1:
                children += end - start
        cli_self += trace["main_s"] - children
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def total(span: str, key: str) -> int:
        return sum(a.get(key, 0) for a in attrs.get(span, []))

    dims = [a["n"] for a in attrs.get("model.eigvalsh", [])]
    eig_gflop = sum(4.0 / 3.0 * n**3 for n in dims) / 1e9
    eig_s = busy.get("model.eigvalsh", 0.0)
    out = {f"{name}_s": busy.get(name, 0.0) for name in LAYER_SPANS}
    out.update({f"{name}_s": seconds for name, seconds in busy.items()})
    imports = [r.trace["import_s"] for r in p.results if r.trace]
    out.update({
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.self_s": cli_self,
        "cli.bytes_written": sum(r.bytes_written for r in p.results),
        "cli.bytes_read": sum(r.bytes_read for r in p.results),
        "model.dense_dim": max(dims, default=0),
        "model.dense_bytes": 8 * max(dims, default=0) ** 2,
        "model.eig_gflop": eig_gflop,
        "model.eig_gflops": eig_gflop / eig_s if eig_s > 0 else 0.0,
        "fermion.levels": total("fermion.enumerate_spectrum", "levels"),
        "curves.kde_pairs": total("curves.kernel_density", "pairs"),
        "curves.rows_written": total("curves.write_curve_csv", "rows"),
        "curves.rows_read": total("curves.read_curve_csv", "rows"),
        "peaks.components": total("peaks.components", "components"),
        "peaks.density_curve_pairs": total("peaks.density_curve", "pairs"),
        "blocks.cells_calls": counts.get("blocks.cells.calls", 0),
        "blocks.cells_yielded": counts.get("blocks.cells.items", 0),
        "blocks.transition_count_calls": counts.get("blocks.transition_count.calls", 0),
        "analytic.saddle_points": len(attrs.get("analytic.saddle", [])),
        "analytic.quadrature_calls": counts.get("analytic.integrate_phi.calls", 0),
    })
    return out


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile above the median
    that has at least ten samples beyond it (absent for small samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    index = n - 11
    if index >= 0 and index / (n - 1) > 0.5:
        out["tail"] = (round(100.0 * index / (n - 1)), ordered[index])
    return out


def collect(run: WorkloadRun) -> dict[str, dict]:
    """Every metric of a run, each summarized over its samples."""
    samples: dict[str, list[float]] = {"setup_s": [r.wall_s for r in run.setup]}
    for p in run.passes:
        if p.traced:
            continue
        for key, value in pass_metrics(p).items():
            samples.setdefault(key, []).append(value)
    traced = [p for p in run.passes if p.traced]
    for p in traced:
        for key, value in layer_metrics(p).items():
            samples.setdefault(key, []).append(value)
    if traced:
        samples["trace.wall_s"] = [p.wall_s for p in traced]
    summary = {key: summarize(values) for key, values in samples.items()}
    if traced:
        summary["trace.overhead_s"] = {
            "median": summary["trace.wall_s"]["median"] - summary["wall_s"]["median"],
            "n": len(traced),
        }
    attempted = len(run.all_results())
    summary["fail_frac"] = {"median": len(run.failures()) / attempted, "n": attempted}
    return summary


# ----------------------------------------------------------------------------
# report
# ----------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def unit_of(key: str) -> str:
    if key.endswith("_gflops"):
        return "GFLOP/s"
    if key.endswith("_gflop"):
        return "GFLOP"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mib"):
        return "MiB"
    if "bytes" in key:
        return "B"
    return "1" if key.endswith("_frac") else "count"


def report(run: WorkloadRun, summary: dict) -> None:
    """End-to-end metrics first, then layer metrics, then per-op medians."""
    print(f"## workload {run.name}: {len(run.passes)} passes "
          f"({sum(p.traced for p in run.passes)} traced), {len(run.setup)} set-up samples")
    for key in sorted(summary, key=lambda k: ("." in k, k)):
        s = summary[key]
        note = "  (not exercised)" if "." in key and s["median"] == 0 else ""
        tail = f"  p{s['tail'][0]} {_fmt(s['tail'][1])}" if "tail" in s else ""
        print(f"  {key:34s} {_fmt(s['median']):>14s} {unit_of(key):8s} "
              f"median, n={s['n']}{tail}{note}")
    ops: dict[str, list[OpResult]] = {}
    for p in run.passes:
        for r in p.results:
            ops.setdefault(r.op.name, []).append(r)
    for name, results in ops.items():
        wall = statistics.median(r.wall_s for r in results)
        rss = max(r.rss_mib for r in results)
        print(f"  op {name:32s} {wall:9.4f} s median  {rss:7.1f} MiB peak  n={len(results)}")
    for r in run.failures()[:10]:
        print(f"  FAILED {r.op.name}: {r.error}")


def result_line(run: WorkloadRun, summary: dict, names: list[dict]) -> dict:
    failed = len(run.failures())
    return {
        "correct": failed == 0,
        "attempted": len(run.all_results()),
        "failed": failed,
        "metrics": {
            # A metric is missing only when ops were killed, so correct is false.
            m["name"]: {"value": summary.get(m["name"], {"median": 0.0})["median"],
                        "unit": m["unit"]}
            for m in names
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not CLI_SOURCE.is_file() or not SPEC.is_file():
        print(f"bench: needs {CLI_SOURCE.relative_to(ROOT)} and {SPEC.name}; "
              "run it from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    # On SIGTERM, unwind through the ``finally`` clauses below and in
    # ``run_process`` so that the op and the checker are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    checker = Checker(env)
    try:
        with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
            info = checker.call("context", str(ROOT), env["OPENBLAS_NUM_THREADS"])
            print("# context " + json.dumps(info))
            for name in names:
                run = run_workload(name, args.seed, args.seconds, bool(args.trace), Path(tmp),
                                   env, checker)
                summary = collect(run)
                report(run, summary)
                lines.append((name, result_line(run, summary, wanted)))
    finally:
        checker.close()
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
        return 0
    for name, line in lines:
        print(f"# {name} " + json.dumps(line))
    print(json.dumps({
        "correct": all(line["correct"] for _, line in lines),
        "attempted": sum(line["attempted"] for _, line in lines),
        "failed": sum(line["failed"] for _, line in lines),
        "metrics": {
            f"{name}.{key}": value for name, line in lines for key, value in line["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

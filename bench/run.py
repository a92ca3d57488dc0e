"""Benchmark harness for the blochcurve CLI.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload {series,battery,sweep} --seed N \
        --seconds S --trace {0,1}

Every invocation of the program is a child process (``child.py``) that calls
``blochcurve.cli.main(argv)`` on the checkout's ``src/``. With ``--trace 0``
the harness alternates set-up children (interpreter start plus
``import blochcurve.cli``) with workload invocations for about S seconds and
reports the end-to-end metrics. With ``--trace 1`` it alternates untraced and
traced invocations and reports per-layer metrics from the traced ones. Every
output is checked by the independent oracle in ``oracle.py``.

The last line of standard output is the result: one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment, the per-invocation samples and any failures. Scratch
files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SERIES = {"omega0": 1.0, "nu0": 50.0, "t_max": 2.0 * math.pi, "steps": 6283}
BATTERY_STEPS = 6283          # the CLI's default grid on [0, 2π], at ω₀ = ν₀ = 1
SWEEP_ROWS = 100_000
SWEEP_DECADES = (-3.0, 3.0)   # ν₀/ω₀ log-uniform over this range of exponents

MIN_INVOCATIONS = 5           # per --trace 0 run, whatever --seconds says
MIN_TRACED = 2                # traced invocations per --trace 1 run
INVOCATION_TIMEOUT_S = 30.0     # MIN_INVOCATIONS of these stay inside a 180 s run

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("nodes_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "fraction"),
    ("kappa2_expect_err", "rel"),
    ("kappa2_bloch_err", "rel"),
    ("arc_err", "rel"),
    ("eta_ge_err", "rel"),
)
ACCURACY = ("kappa2_expect_err", "kappa2_bloch_err", "arc_err", "eta_ge_err")

# Per-layer statistics reported for each traced span name.
LAYER_STATS = (
    ("cli.render", ("calls", "self_s", "bytes")),
    ("cli.write", ("self_s",)),
    ("geometry.curvature_expectation", ("calls", "self_s")),
    ("geometry.curvature_bloch", ("calls", "self_s")),
    ("geometry.curvature_closed", ("calls", "self_s")),
    ("geometry.speed", ("calls",)),
    ("geometry.scenario_records", ("self_s",)),
    ("geometry.extrema_summary", ("calls", "self_s")),
    ("dynamics.schrodinger_step", ("calls", "self_s")),
    ("dynamics.hamiltonian_at", ("calls",)),
    ("dynamics.analytic_state", ("calls",)),
    ("dynamics.analytic_bloch", ("calls",)),
    ("dynamics.bloch_step", ("calls", "self_s")),
    ("dynamics.integrate_schrodinger", ("self_s",)),
    ("dynamics.integrate_bloch", ("self_s",)),
    ("fields.two_parameter_field", ("calls", "self_s")),
    ("fields.callable_sample", ("calls",)),
    ("qubit_core.pauli_compose", ("calls", "self_s")),
    ("special_functions.adaptive_simpson", ("calls", "evals", "self_s")),
    ("special_functions.elliptic_e", ("calls", "self_s")),
    ("validation.context", ("self_s",)),
) + tuple(
    (f"validation.check.{name}", ("self_s",)) for name in (
        "decomposition", "field_derivative", "route_agreement",
        "route_agreement_expect", "route_agreement_general",
        "consistency_identity", "fidelity", "bloch_supnorm", "orthogonality",
        "eta_se", "periodicity", "extrema_value", "elliptic", "synthesis",
        "arc_agreement",
    )
)
_STAT_UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes", "evals": "count"}
PER_LAYER = tuple(
    (f"{span}.{stat}", _STAT_UNITS[stat]) for span, stats in LAYER_STATS for stat in stats
) + (
    ("fields.samples_per_node", "1/node"),
    ("special_functions.evals_per_interval", "1/interval"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Workload:
    """One workload: the argv it runs, its work units and its output check."""

    argv: list[str]
    units: int            # grid nodes, or sweep rows
    intervals: int        # grid intervals, or sweep rows
    out: Path | None      # output file; None means the output is stdout
    check: Callable[[str], oracle.OracleResult]


def make_workload(name: str, seed: int, work: Path) -> Workload:
    """Build a workload's inputs; only the sweep list depends on the seed."""
    if name == "series":
        out = work / "series.csv"
        s = SERIES
        return Workload(
            ["simulate", "--omega0", repr(s["omega0"]), "--nu0", repr(s["nu0"]),
             "--t-max", repr(s["t_max"]), "--steps", str(s["steps"]), "--out", str(out)],
            s["steps"] + 1, s["steps"], out,
            lambda text: oracle.check_series(text, s["omega0"], s["nu0"], s["t_max"], s["steps"]),
        )
    if name == "battery":
        return Workload(
            ["validate", "--omega0", "1.0", "--nu0", "1.0", "--t-max", repr(2.0 * math.pi),
             "--steps", str(BATTERY_STEPS)],
            BATTERY_STEPS + 1, BATTERY_STEPS, None, oracle.check_battery,
        )
    if name == "sweep":
        out = work / "sweep.csv"
        rng = np.random.default_rng(seed)
        nu0 = 10.0 ** rng.uniform(*SWEEP_DECADES, size=SWEEP_ROWS)
        return Workload(
            ["sweep", "--omega0", "1.0", "--nu0-list", ",".join(map(repr, nu0.tolist())),
             "--out", str(out)],
            SWEEP_ROWS, SWEEP_ROWS, out,
            lambda text: oracle.check_sweep(text, 1.0, nu0),
        )
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: Path
    stderr: Path


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout(f"an invocation ran past {INVOCATION_TIMEOUT_S} s")


def spawn(spec: Path, tag: str, work: Path) -> Invocation:
    """Run one child to completion: wall time from spawn to exit, exit status
    from os.wait4 on its pid, and the peak RSS the child reports for its own
    address space (see child.py for why not wait4's ru_maxrss)."""
    stdout, stderr = work / f"{tag}.out", work / f"{tag}.err"
    rss = spec.with_suffix(".rss")
    rss.unlink(missing_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(spec)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
    try:
        _, status, _ = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    rss_mb = int(rss.read_text()) / 1024.0 if rss.is_file() else math.nan
    return Invocation(wall, rss_mb, os.waitstatus_to_exitcode(status), stdout, stderr)


def write_spec(path: Path, argv, spans: Path | None = None) -> Path:
    path.write_text(json.dumps({
        "src": str(SRC), "argv": argv, "spans": None if spans is None else str(spans),
        "rss": str(path.with_suffix(".rss")),
    }), encoding="utf-8")
    return path


@dataclass
class Run:
    """Accounting for one benchmark run: invocations, failures, verified outputs."""

    workload: Workload
    work: Path
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_tags: set[str] = field(default_factory=set)
    verified: dict[str, oracle.OracleResult] = field(default_factory=dict)
    accuracy: dict[str, float] = field(default_factory=dict)

    def fail(self, tag: str, message: str) -> None:
        self.failed_tags.add(tag)
        self.failures.append(f"{tag}: {message}")

    def invoke(self, spec: Path, tag: str) -> tuple[Invocation, bytes | None]:
        """Run the workload once and check it; returns the output bytes, or
        None when the invocation failed."""
        self.attempted += 1
        inv = spawn(spec, tag, self.work)
        problem = self._problem(inv)
        if problem is not None:
            self.fail(tag, problem)
            return inv, None
        return inv, self._output(inv)

    def _output(self, inv: Invocation) -> bytes:
        return (self.workload.out or inv.stdout).read_bytes()

    def _problem(self, inv: Invocation) -> str | None:
        stderr = inv.stderr.read_text(encoding="utf-8", errors="replace")
        if inv.exit_code != 0:
            return f"exit code {inv.exit_code}: {stderr.strip()[-300:]}"
        if "Traceback (most recent call last)" in stderr:
            return "traceback on stderr"
        data = self._output(inv)
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.verified:
            try:
                res = self.workload.check(data.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                res = oracle.OracleResult()
                res.failures.append(f"unreadable output: {exc}")
            self.verified[digest] = res
            if not self.accuracy:
                self.accuracy = dict(res.metrics)
            if len(self.verified) > 1:
                res.failures.append("output differs between invocations of the same input")
        res = self.verified[digest]
        return "; ".join(res.failures[:5]) if res.failures else None


def run_timing(run: Run, seconds: float) -> tuple[dict, dict]:
    """--trace 0: alternate set-up children and workload invocations."""
    setup_spec = write_spec(run.work / "setup.json", None)
    spec = write_spec(run.work / "spec.json", run.workload.argv)
    spawn(setup_spec, "warmup", run.work)  # fills __pycache__; not timed
    setups, walls, rss = [], [], []
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        setups.append(spawn(setup_spec, "setup", run.work).wall_s)
        inv, _ = run.invoke(spec, f"run{run.attempted}")
        walls.append(inv.wall_s)
        rss.append(inv.rss_mb)
        per_iter = time.perf_counter() - t_iter
        if len(walls) >= MIN_INVOCATIONS and time.perf_counter() - start + per_iter > seconds:
            break
    setup_s = statistics.median(setups)
    wall_s = statistics.median(walls)
    failed = len(run.failed_tags)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "nodes_per_s": run.workload.units / max(wall_s - setup_s, 1e-9),
        "peak_rss_mb": statistics.median(rss),
        "success_rate": (run.attempted - failed) / run.attempted,
    }
    for name in ACCURACY:
        metrics[name] = max(oracle.ERROR_FLOOR, run.accuracy.get(name, 0.0))
    samples = {"setup_s": setups, "wall_s": walls, "peak_rss_mb": rss,
               "raw_errors": run.accuracy}
    return metrics, samples


def run_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """--trace 1: alternate untraced and traced invocations; per-layer
    metrics come from the traced ones, whose outputs must be byte-identical
    to the untraced ones and whose call counts must repeat exactly."""
    spec = write_spec(run.work / "spec.json", run.workload.argv)
    spans = run.work / "spans.npz"
    traced_spec = write_spec(run.work / "traced.json", run.workload.argv, spans)
    plain, traced, selfs = [], [], []
    counts, counters, missing = {}, {}, []
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        inv, ref = run.invoke(spec, f"run{run.attempted}")
        plain.append(inv.wall_s)
        tag = f"traced{run.attempted}"
        spans.unlink(missing_ok=True)
        inv, out = run.invoke(traced_spec, tag)
        traced.append(inv.wall_s)
        if out is not None and ref is not None and out != ref:
            run.fail(tag, "traced output differs from the untraced output")
        if not spans.is_file():
            run.fail(tag, "no spans written")
            break
        c, s, k, missing = tracer.summarize(str(spans))
        if not selfs:
            counts, counters = c, k
        elif (c, k) != (counts, counters):
            run.fail(tag, "call counts differ between traced invocations")
        selfs.append(s)
        per_iter = time.perf_counter() - t_iter
        if len(traced) >= MIN_TRACED and time.perf_counter() - start + per_iter > seconds:
            break
    wl = run.workload
    samples_n = counts.get("fields.two_parameter_field", 0) + counts.get("fields.callable_sample", 0)
    evals = counters.get("special_functions.adaptive_simpson", 0)
    values = {}
    for span, stats in LAYER_STATS:
        for stat in stats:
            if stat == "calls":
                values[f"{span}.calls"] = counts.get(span, 0)
            elif stat == "self_s":
                values[f"{span}.self_s"] = statistics.median([x.get(span, 0.0) for x in selfs] or [0.0])
            else:
                values[f"{span}.{stat}"] = counters.get(span, 0)
    values["fields.samples_per_node"] = samples_n / wl.units
    values["special_functions.evals_per_interval"] = evals / wl.intervals
    # Paired by adjacent invocations, so the host's slow speed drift cancels.
    values["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    samples = {"wall_s": plain, "traced_wall_s": traced, "missing_targets": missing,
               "calls": counts}
    return values, samples


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout read from .git directly; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(args) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "loadavg": loadavg,
        "git_sha": git_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("series", "battery", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blochcurve" / "cli.py").is_file():
        print(f"error: no blochcurve sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    env = environment(args)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(make_workload(args.workload, args.seed, work), work)
        if args.trace:
            values, samples = run_traced(run, args.seconds)
            units = dict(PER_LAYER)
        else:
            values, samples = run_timing(run, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failed_tags)
    for message in run.failures:
        print(f"failure: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"env": env, "samples": samples, "failures": run.failures}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

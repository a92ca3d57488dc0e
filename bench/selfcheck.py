"""Self-checks of the benchmark itself, at small input sizes.

Usage (from the root of a source checkout): python3 bench/selfcheck.py

Checks that BENCHMARK.json names exactly the metrics the harness prints; that
the oracle's references agree with scipy where scipy is installed; that the
oracle fails an output with one perturbed κ² value or one dropped row; that a
non-zero exit counts as a failed invocation and lowers the success rate; and
that traced and untraced invocations write identical outputs with call
counts that repeat exactly. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import numpy as np

import oracle
import run
import tracer

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(f"[{'ok' if condition else 'FAIL'}] {message}")
    if not condition:
        FAILURES.append(message)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([m["name"] for m in spec["workloads"]] == ["series", "battery", "sweep"],
           "BENCHMARK.json names the three workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end-to-end metrics match the harness")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per-layer metrics match the harness")


def check_references() -> None:
    try:
        from scipy import special
    except ImportError:
        print("[skip] scipy not installed; references not cross-checked")
        return
    m = np.concatenate([-np.logspace(-8, 6, 400), np.linspace(0.0, 0.999, 50)])
    rel = np.max(np.abs(oracle.elliptic_e(m) - special.ellipe(m)) / special.ellipe(m))
    expect(rel < 1e-14, f"E(m) matches scipy over m in [-1e6, 0.999] (rel {rel:.1e})")
    worst = max(
        abs(oracle.elliptic_e_incomplete(phi, mm) - special.ellipeinc(phi, mm))
        / special.ellipeinc(phi, mm)
        for phi, mm in ((4 * math.pi, -625.0), (1.3, -625.0), (7.7, -2.0), (2.0, 0.5))
    )
    expect(worst < 1e-14, f"E(phi|m) matches scipy (rel {worst:.1e})")
    for steps in (200, 6283):
        t = np.linspace(0.0, 2.0 * math.pi, steps + 1)
        s_ref = oracle.arc_reference(1.0, 50.0, t)
        s_closed = np.array([0.5 * oracle.elliptic_e_incomplete(2.0 * x, -625.0)
                             for x in t[:: steps // 8]])
        rel = np.max(np.abs(s_ref[:: steps // 8] - s_closed)) / s_closed[-1]
        expect(rel < 1e-13, f"{steps}-step quadrature arc length matches (1/2)E(2w0 t|m) "
                            f"(rel {rel:.1e})")


def perturbed(text: str, row: int, column: str, delta: float) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    i = lines[0].split(",").index(column)
    cells[i] = repr(float(cells[i]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def check_series(work) -> None:
    steps = 200
    out = work / "series.csv"
    wl = run.Workload(
        ["simulate", "--omega0", "1.0", "--nu0", "50.0", "--steps", str(steps),
                   "--out", str(out)],
        steps + 1, steps, out,
        lambda text: oracle.check_series(text, 1.0, 50.0, 2.0 * math.pi, steps),
    )
    r = run.Run(wl, work)
    spec = run.write_spec(work / "spec.json", wl.argv)
    _, plain = r.invoke(spec, "plain")
    expect(plain is not None and not r.failures, f"small series passes the oracle {r.failures}")
    if plain is None:
        return
    text = plain.decode()
    expect(r.accuracy["kappa2_expect_err"] > 1e-6,
           "the nu0 = 50 expectation-route error is measured, not hidden")
    k2_max = 4.0 * 50.0 ** 2
    for column, delta in (("kappa2_closed", 1e-8 * k2_max), ("kappa2_bloch", 1e-8 * k2_max),
                          ("kappa2_expect", -1e-2 * k2_max)):
        failures = oracle.check_series(perturbed(text, 57, column, delta),
                                       1.0, 50.0, 2.0 * math.pi, steps).failures
        expect(bool(failures), f"oracle fails one perturbed {column} value")
    lines = text.split("\n")
    dropped = "\n".join(lines[:90] + lines[91:])
    expect(bool(oracle.check_series(dropped, 1.0, 50.0, 2.0 * math.pi, steps).failures),
           "oracle fails a dropped row")

    spans = work / "spans.npz"
    traced_spec = run.write_spec(work / "traced.json", wl.argv, spans)
    counts = []
    for k in range(2):
        _, traced = r.invoke(traced_spec, f"traced{k}")
        expect(traced == plain, f"traced output {k} is byte-identical to the untraced one")
        calls, _, counters, missing = tracer.summarize(str(spans))
        counts.append((calls, counters))
        expect(not missing, f"every trace target found {missing}")
    expect(counts[0] == counts[1], "call counts repeat exactly across traced runs")
    expect(counts[0][0]["fields.two_parameter_field"] == 13 * (steps + 1),
           "13 field samples per node are counted")


def check_sweep(work) -> None:
    nu0 = 10.0 ** np.random.default_rng(7).uniform(-3.0, 3.0, size=500)
    out = work / "sweep.csv"
    wl = run.Workload(
        ["sweep", "--omega0", "1.0", "--nu0-list", ",".join(map(repr, nu0.tolist())),
                  "--out", str(out)],
        nu0.size, nu0.size, out, lambda text: oracle.check_sweep(text, 1.0, nu0))
    r = run.Run(wl, work)
    _, data = r.invoke(run.write_spec(work / "sweep.json", wl.argv), "sweep")
    expect(data is not None and not r.failures, f"small sweep passes the oracle {r.failures}")
    if data is not None:
        bad = perturbed(data.decode(), 11, "eta_ge", 1e-8)
        expect(bool(oracle.check_sweep(bad, 1.0, nu0).failures),
               "oracle fails one perturbed eta_ge value")


def check_battery_parser() -> None:
    good = "".join(f"[PASS] {n}  residual 0  tol 1\n" for n in oracle.BATTERY_CHECKS)
    good += f"all {len(oracle.BATTERY_CHECKS)} checks passed\n"
    expect(not oracle.check_battery(good).failures, "a clean battery report passes")
    extra = good.replace("all 18", "all 19").replace("[PASS] arc_agreement",
                                                     "[PASS] arc_closed  r\n[PASS] arc_agreement")
    expect(not oracle.check_battery(extra).failures, "an added check is accepted")
    expect(bool(oracle.check_battery(good.replace("[PASS] fidelity", "[FAIL] fidelity")).failures),
           "a [FAIL] line fails the battery")
    missing = "\n".join(l for l in good.splitlines() if "synthesis_trace" not in l)
    expect(bool(oracle.check_battery(missing).failures), "a missing check fails the battery")


def check_exit_code(work) -> None:
    wl = run.Workload(["simulate", "--steps", "0"], 1, 1, None,
                      lambda text: oracle.OracleResult())
    r = run.Run(wl, work)
    metrics, _ = run.run_timing(r, 0.0)
    expect(r.attempted == len(r.failed_tags) == run.MIN_INVOCATIONS
           and metrics["success_rate"] == 0.0,
           "a non-zero exit counts as a failed invocation and lowers success_rate")


def main() -> int:
    if not (run.SRC / "blochcurve" / "cli.py").is_file():
        print(f"error: no blochcurve sources under {run.SRC}", file=sys.stderr)
        return 2
    work = run.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_benchmark_json()
        check_references()
        check_battery_parser()
        check_series(work)
        check_sweep(work)
        check_exit_code(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} self-check(s) failed" if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

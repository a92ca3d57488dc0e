"""Independent output oracle for the benchmark workloads.

Uses numpy only and imports nothing from ``blochcurve``: every reference is
re-derived here from the scenario definition, so a corrupted formula in the
package cannot vouch for itself.

Two kinds of result come out of each check:

* a list of failures (a mismatch beyond tolerance fails the invocation);
* accuracy metrics, measured against the same references and reported even
  when they are within the gates.

Tolerances are relative to the scale of each quantity; the κ² columns are
held relative to κ²_max = 4(ν₀/ω₀)².
"""

from __future__ import annotations

import math

import numpy as np

SERIES_COLUMNS = (
    "t", "ax", "ay", "az", "hx", "hy", "hz", "v", "acc",
    "kappa2_closed", "kappa2_bloch", "kappa2_expect", "ratio",
    "eta_se", "arc_length", "beta_phase",
)
SWEEP_COLUMNS = (
    "omega0", "nu0", "v_max", "v_min", "t_vmax", "t_vmin",
    "acc_max", "acc_min", "t_accmax", "t_accmin",
    "kappa2_max", "kappa2_min", "t_k2max", "t_k2min",
    "ratio_max", "ratio_min", "period", "eta_ge",
)
# Every check name `validate` reported at the time the benchmark was written.
# All must be present; more are allowed (new checks may be added).
BATTERY_CHECKS = (
    "decomposition", "field_derivative", "route_agreement",
    "route_agreement_expect", "route_agreement_general",
    "consistency_identity", "fidelity", "bloch_supnorm", "orthogonality",
    "eta_se", "periodicity", "extrema_value", "extrema_time",
    "acc_at_extrema", "elliptic", "synthesis", "synthesis_trace",
    "arc_agreement",
)

RTOL_CLOSED = 1e-12   # closed-form columns: a few hundred ulp of their scale
RTOL_BLOCH = 1e-9     # κ² by the Bloch-vector route, analytic like the closed form
# κ² by the expectation route: its finite-difference error (4e-5 of κ²_max at
# ν₀ = 50) is a known defect that the kappa2_expect_err metric measures, so the
# gate only catches garbage.
RTOL_EXPECT = 1e-3
RTOL_ARC = 1e-9       # arc-length column against the quadrature reference
RTOL_ETA_GE = 1e-10
# Accuracy metrics never read below this: differences under it are round-off,
# and a metric that sits in round-off would move with any reordering of the
# arithmetic. A workload that outputs no value of a quantity reports the floor.
ERROR_FLOOR = 1e-13

_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)


class OracleResult:
    """Failures found and accuracy metrics measured on one output."""

    def __init__(self):
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}

    def close(self, name, got, ref, scale, rtol=RTOL_CLOSED):
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(ref)) / scale))
        if not err <= rtol:  # also catches NaN
            self.failures.append(f"{name}: error {err:.3e} of scale exceeds {rtol:.0e}")
        return err


def parse_csv(text: str, columns) -> np.ndarray:
    """Parse a header-plus-rows CSV into an (n, len(columns)) float array."""
    header, _, body = text.partition("\n")
    if tuple(header.split(",")) != tuple(columns):
        raise ValueError(f"unexpected header {header[:80]!r}")
    lines = body.rstrip("\n").split("\n") if body.strip() else []
    values = np.array(",".join(lines).split(","), dtype=np.float64) if lines else np.empty(0)
    if values.size != len(lines) * len(columns):
        raise ValueError("ragged rows")
    return values.reshape(len(lines), len(columns))


# --- references -------------------------------------------------------------

def elliptic_e(m):
    """Complete E(m), parameter convention, m < 1 (array in, array out).

    Negative m goes through the imaginary-modulus transformation
    E(m) = √(1−m)·E(m/(m−1)); the parameter in (0, 1) is then handled by the
    arithmetic-geometric mean, E = K·(1 − Σ 2^{n−1} c_n²), K = π/(2·a_N).
    """
    m = np.asarray(m, dtype=np.float64)
    neg = m < 0.0
    mp = np.where(neg, m / (m - 1.0), m)
    a = np.ones_like(mp)
    b = np.sqrt(1.0 - mp)
    c = np.sqrt(mp)
    total = 0.5 * mp
    power = 0.5
    for _ in range(64):
        # c_{n+1} = c_n²/(4a_{n+1}) instead of (a_n − b_n)/2, which stalls at
        # one ulp and is then amplified by the growing power of two.
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c = c * c / (4.0 * a)
        power *= 2.0
        total = total + power * c * c
        if np.all(power * c * c <= 1e-18 * total):
            break
    e = (math.pi / (2.0 * a)) * (1.0 - total)
    return np.where(neg, np.sqrt(1.0 - m) * e, e)


def elliptic_e_incomplete(phi: float, m: float) -> float:
    """E(φ|m) for φ ≥ 0: quasi-periodicity E(φ + kπ|m) = E(φ|m) + 2k·E(m) plus
    composite 16-point Gauss–Legendre on the remainder, with panels narrow
    against the distance √(1/|m|) of the integrand's branch points."""
    k = math.floor(phi / math.pi)
    rest = phi - k * math.pi
    value = 2.0 * k * float(elliptic_e(m))
    if rest > 0.0:
        panels = max(16, int(8.0 * math.sqrt(1.0 + abs(m))))
        edges = np.linspace(0.0, rest, panels + 1)
        x, w = _GL16
        half = 0.5 * np.diff(edges)
        th = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x
        value += float(np.sum(half[:, None] * w * np.sqrt(1.0 - m * np.sin(th) ** 2)))
    return value


def scenario_columns(omega0: float, nu0: float, t: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form observables of the two-parameter scenario on times t."""
    w, n = omega0, nu0
    r2 = (n / w) ** 2
    s2, c2 = np.sin(2 * w * t), np.cos(2 * w * t)
    s4, c4 = np.sin(4 * w * t), np.cos(4 * w * t)
    sn, cn = np.sin(n * t), np.cos(n * t)
    a = np.stack([s2 * cn, sn * s2, c2], axis=1)
    h = np.stack([
        -0.5 * n * c2 * s2 * cn - w * sn,
        -0.5 * n * c2 * s2 * sn + w * cn,
        0.5 * n * s2 ** 2,
    ], axis=1)
    root = np.sqrt(1.0 + 0.25 * r2 * s2 ** 2)
    if n == 0.0:
        k2 = np.zeros_like(t)
        ratio = np.zeros_like(t)
    else:
        q = (w / n) ** 2
        den = s2 ** 2 + 4 * q
        k2 = (s4 ** 2 + 32 * q * (1 + c4)) / den ** 2 - 4 * q * s4 ** 2 / den ** 3
        ratio = 4 * s2 ** 4 / (s4 ** 2 + 16 * q)
    ah = np.sum(a * h, axis=1)
    hh = np.sum(h * h, axis=1)
    return {
        "a": a,
        "h": h,
        "v": w * root,
        "acc": 0.25 * n * n * s4 / root,
        "kappa2": k2,
        "ratio": ratio,
        "eta_se": np.sqrt(np.maximum(hh - ah ** 2, 0.0)) / np.sqrt(hh),
        "beta": -(n / (4 * w)) * (2 * w * t - s2),
    }


def arc_reference(omega0: float, nu0: float, t: np.ndarray) -> np.ndarray:
    """s(t_k) by 8-point Gauss–Legendre of the closed-form speed, accumulated.

    Each grid interval is split into panels no wider than half the distance
    asinh(2ω₀/ν₀)/(2ω₀) from the real axis to the branch points of v, which
    keeps the rule at round-off on any grid."""
    x, wts = _GL8
    reach = math.asinh(2.0 * omega0 / nu0) / (2.0 * omega0) if nu0 > 0.0 else math.inf
    sub = max(1, math.ceil(2.0 * float(np.max(np.diff(t))) / reach))
    edges = np.concatenate([np.linspace(a, b, sub + 1)[:-1] for a, b in zip(t[:-1], t[1:])]
                           + [t[-1:]]) if sub > 1 else t
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * x
    v = scenario_columns(omega0, nu0, nodes.ravel())["v"].reshape(nodes.shape)
    return np.concatenate(([0.0], np.cumsum(half * (v @ wts))))[::sub]


# --- workload checks --------------------------------------------------------

def check_series(text: str, omega0: float, nu0: float, t_max: float, steps: int) -> OracleResult:
    """Check a `simulate` CSV against the closed forms and measure the κ²
    route and arc-length errors."""
    res = OracleResult()
    data = parse_csv(text, SERIES_COLUMNS)
    if data.shape[0] != steps + 1:
        res.failures.append(f"expected {steps + 1} rows, got {data.shape[0]}")
        return res
    col = {name: data[:, i] for i, name in enumerate(SERIES_COLUMNS)}
    t_ref = np.linspace(0.0, t_max, steps + 1)
    res.close("t", col["t"], t_ref, t_max)
    ref = scenario_columns(omega0, nu0, t_ref)
    r2 = (nu0 / omega0) ** 2
    k2_max = max(4.0 * r2, 1.0)
    res.close("a", np.stack([col["ax"], col["ay"], col["az"]], axis=1), ref["a"], 1.0)
    res.close("h", np.stack([col["hx"], col["hy"], col["hz"]], axis=1), ref["h"],
              omega0 + nu0)
    res.close("v", col["v"], ref["v"], omega0 * math.sqrt(1.0 + 0.25 * r2))
    res.close("acc", col["acc"], ref["acc"], max(0.25 * nu0 * nu0, omega0 * omega0))
    res.close("kappa2_closed", col["kappa2_closed"], ref["kappa2"], k2_max)
    res.close("ratio", col["ratio"], ref["ratio"], max(0.25 * r2, 1.0))
    res.close("eta_se", col["eta_se"], ref["eta_se"], 1.0)
    res.close("beta_phase", col["beta_phase"], ref["beta"],
              nu0 / (4.0 * omega0) * (2.0 * omega0 * t_max + 1.0) + 1.0)
    res.metrics["kappa2_bloch_err"] = res.close(
        "kappa2_bloch", col["kappa2_bloch"], ref["kappa2"], k2_max, RTOL_BLOCH)
    res.metrics["kappa2_expect_err"] = res.close(
        "kappa2_expect", col["kappa2_expect"], ref["kappa2"], k2_max, RTOL_EXPECT)

    arc = col["arc_length"]
    if np.any(np.diff(arc) < 0.0):
        res.failures.append("arc_length decreases")
    s_ref = arc_reference(omega0, nu0, t_ref)
    res.close("arc_length", arc, s_ref, s_ref[-1], RTOL_ARC)
    s_final = 0.5 * elliptic_e_incomplete(2.0 * omega0 * t_max, -0.25 * r2) / omega0
    res.metrics["arc_err"] = abs(float(arc[-1]) - s_final) / s_final
    return res


def check_sweep(text: str, omega0: float, nu0_values: np.ndarray) -> OracleResult:
    """Check a `sweep` CSV row by row against the closed-form extrema and an
    independent E(m), and measure the η_GE error."""
    res = OracleResult()
    data = parse_csv(text, SWEEP_COLUMNS)
    if data.shape[0] != nu0_values.size:
        res.failures.append(f"expected {nu0_values.size} rows, got {data.shape[0]}")
        return res
    col = {name: data[:, i] for i, name in enumerate(SWEEP_COLUMNS)}
    w, n = omega0, nu0_values
    r2 = (n / w) ** 2
    period = math.pi / (2.0 * w)
    if not (np.all(col["omega0"] == w) and np.all(col["nu0"] == n)):
        res.failures.append("omega0/nu0 columns differ from the inputs")
    v_max = w * np.sqrt(1.0 + 0.25 * r2)
    # acc = (ν₀²/4)·2√(u(1−u))/√(1 + r²u/4) with u = sin²(2ω₀t); d/du = 0 gives
    # r²u² + 8u − 4 = 0, whose root in (0, 1) is taken in cancellation-free form.
    u = 4.0 / (4.0 + np.sqrt(16.0 + 4.0 * r2))
    acc_max = 0.5 * n * n * np.sqrt(u * (1.0 - u)) / np.sqrt(1.0 + 0.25 * r2 * u)
    t_acc = np.arcsin(np.sqrt(u)) / (2.0 * w)
    k2_scale = np.maximum(4.0 * r2, 1.0)
    res.close("v_max", col["v_max"], v_max, v_max)
    res.close("v_min", col["v_min"], w, w)
    res.close("t_vmax", col["t_vmax"], math.pi / (4.0 * w), period)
    res.close("t_vmin", col["t_vmin"], 0.0, period)
    res.close("acc_max", col["acc_max"], acc_max, np.maximum(acc_max, w * w))
    res.close("acc_min", col["acc_min"], -acc_max, np.maximum(acc_max, w * w))
    res.close("t_accmax", col["t_accmax"], t_acc, period)
    res.close("t_accmin", col["t_accmin"], period - t_acc, period)
    res.close("kappa2_max", col["kappa2_max"], 4.0 * r2, k2_scale)
    res.close("kappa2_min", col["kappa2_min"], 0.0, k2_scale)
    res.close("t_k2max", col["t_k2max"], 0.0, period)
    res.close("t_k2min", col["t_k2min"], math.pi / (4.0 * w), period)
    res.close("ratio_max", col["ratio_max"], 0.25 * r2, np.maximum(0.25 * r2, 1.0))
    res.close("ratio_min", col["ratio_min"], 0.0, 1.0)
    res.close("period", col["period"], period, period)
    eta_ref = (math.pi / 2.0) / elliptic_e(-0.25 * r2)
    res.metrics["eta_ge_err"] = res.close("eta_ge", col["eta_ge"], eta_ref, eta_ref,
                                          RTOL_ETA_GE)
    return res


def check_battery(stdout: str) -> OracleResult:
    """Every `[PASS]/[FAIL] <name>` line must pass and every known check name
    must be present; the summary line must count the same checks."""
    res = OracleResult()
    names = []
    for line in stdout.splitlines():
        if line.startswith("[PASS] ") or line.startswith("[FAIL] "):
            fields = line[7:].split()
            name = fields[0] if fields else ""
            names.append(name)
            if line.startswith("[FAIL] "):
                res.failures.append(f"check {name} failed")
    missing = sorted(set(BATTERY_CHECKS) - set(names))
    if missing:
        res.failures.append(f"checks missing from the report: {', '.join(missing)}")
    lines = stdout.rstrip("\n").splitlines()
    if not lines or lines[-1] != f"all {len(names)} checks passed":
        res.failures.append("summary line does not report every check passed")
    return res

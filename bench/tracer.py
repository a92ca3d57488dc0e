"""Span tracing of blochcurve's public functions from outside the package.

Each target function is wrapped by identity: every module-level binding in
``blochcurve.*`` that is the target object is replaced by the wrapper, so the
call sites that resolve their own imported name (``from .special_functions
import adaptive_simpson``) are traced too, as are the check functions held in
lists such as ``validation._CHECKS``. Methods are replaced on their class.

Spans (name, parent, start, end) are kept in flat in-memory arrays and written
out once, at the end of the traced process; self time is computed afterwards
from the span tree by ``summarize``.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path, measure applied to the return value)
TARGETS = (
    ("cli.render", "blochcurve.cli", "_render", "bytes"),
    ("cli.write", "blochcurve.cli", "_write_text", None),
    ("geometry.curvature_expectation", "blochcurve.geometry", "curvature_expectation", None),
    ("geometry.curvature_bloch", "blochcurve.geometry", "curvature_bloch", None),
    ("geometry.curvature_closed", "blochcurve.geometry", "curvature_closed", None),
    ("geometry.speed", "blochcurve.geometry", "speed", None),
    ("geometry.scenario_records", "blochcurve.geometry", "scenario_records", None),
    ("geometry.extrema_summary", "blochcurve.geometry", "extrema_summary", None),
    ("dynamics.schrodinger_step", "blochcurve.dynamics", "schrodinger_step", None),
    ("dynamics.hamiltonian_at", "blochcurve.dynamics", "hamiltonian_at", None),
    ("dynamics.analytic_state", "blochcurve.dynamics", "analytic_state", None),
    ("dynamics.analytic_bloch", "blochcurve.dynamics", "analytic_bloch", None),
    ("dynamics.bloch_step", "blochcurve.dynamics", "bloch_step", None),
    ("dynamics.integrate_schrodinger", "blochcurve.dynamics", "integrate_schrodinger", None),
    ("dynamics.integrate_bloch", "blochcurve.dynamics", "integrate_bloch", None),
    ("fields.two_parameter_field", "blochcurve.fields", "two_parameter_field", None),
    ("fields.callable_sample", "blochcurve.fields", "CallableField.sample", None),
    ("qubit_core.pauli_compose", "blochcurve.qubit_core", "pauli_compose", None),
    ("special_functions.adaptive_simpson", "blochcurve.special_functions",
     "adaptive_simpson", "evals"),
    ("special_functions.elliptic_e", "blochcurve.special_functions", "elliptic_e", None),
    ("validation.context", "blochcurve.validation", "_Context.__init__", None),
)
CHECK_LIST = ("blochcurve.validation", "_CHECKS")  # (primary name, function) pairs

_MEASURES = {
    "bytes": lambda result: len(result.encode("utf-8")),
    "evals": lambda result: result.evaluations,
}


class Tracer:
    """Flat span store shared by every wrapper of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._ids = array("i")
        self._parents = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn, measure=None):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, t0, t1, stack = self._ids, self._parents, self._t0, self._t1, self._stack
        clock = time.perf_counter
        counters = self.counters
        if measure is not None:
            counters[name] = 0

        def traced(*args, **kwargs):
            i = len(t0)
            ids.append(nid)
            parents.append(stack[-1])
            t0.append(0.0)
            t1.append(0.0)
            stack.append(i)
            t0[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if measure is not None:
                counters[name] += measure(result)
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            ids=np.frombuffer(self._ids, dtype=np.int32),
            parents=np.frombuffer(self._parents, dtype=np.int32),
            t0=np.frombuffer(self._t0, dtype=np.float64),
            t1=np.frombuffer(self._t1, dtype=np.float64),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
            missing=np.array(self.missing, dtype=str),
        )


def install() -> Tracer:
    """Wrap every target in the already-imported blochcurve modules."""
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "blochcurve" or n.startswith("blochcurve."))]
    for name, modname, path, measure in TARGETS:
        owner = sys.modules.get(modname)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        target = getattr(owner, attr, None) if owner is not None else None
        if target is None:
            tracer.missing.append(name)
            continue
        wrapper = tracer.wrap(name, target, _MEASURES.get(measure))
        if owner_path:  # a method: replace it on its class
            setattr(owner, attr, wrapper)
        else:
            _rebind(modules, target, wrapper)
    checks = getattr(sys.modules.get(CHECK_LIST[0]), CHECK_LIST[1], None)
    if checks is None:
        tracer.missing.append("validation.check")
    else:
        for i, (primary, fn) in enumerate(checks):
            checks[i] = (primary, tracer.wrap(f"validation.check.{primary}", fn))
    return tracer


def _rebind(modules, target, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, wrapper)


def summarize(path: str) -> tuple[dict[str, int], dict[str, float], dict[str, int], list[str]]:
    """Per span name: call count and self time (duration minus the part of
    it covered by child spans); plus the measured counters and the targets
    that were not found."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        ids, parents = z["ids"], z["parents"]
        dur = z["t1"] - z["t0"]
        counters = dict(zip((str(n) for n in z["counter_names"]),
                            (int(v) for v in z["counter_values"])))
        missing = [str(n) for n in z["missing"]]
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    calls = np.bincount(ids, minlength=len(names))
    self_sum = np.bincount(ids, weights=self_time, minlength=len(names))
    return (
        {n: int(calls[i]) for i, n in enumerate(names)},
        {n: float(self_sum[i]) for i, n in enumerate(names)},
        counters,
        missing,
    )

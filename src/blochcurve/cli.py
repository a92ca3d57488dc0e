"""Command-line front end.

Three subcommands: ``simulate`` writes the full observable time series for one
parameter pair, ``validate`` runs the numerical invariant battery, and
``sweep`` tabulates closed-form extrema and the geodesic efficiency across a
list of drive strengths.

Output is deterministic byte for byte: floats are serialized with 17
significant digits (round-trip exact for IEEE doubles), key order is fixed,
and every sampled check uses a fixed golden-ratio point sequence. The
``simulate`` and ``sweep`` tables hold exactly the bytes of ``'%.17g' % x``
per value; ``_floattext`` computes them for whole columns with uint64 word
arithmetic, and the commands stream the table in bounded chunks. ``sweep``
streams end to end: it parses its list into one array, checks all of it,
then computes and writes one block of rows at a time.

Exit codes: 0 success, 1 validation failure, 2 configuration or I/O error,
3 numerical failure (singularity, instability, non-convergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import dynamics, fields, geometry, validation
from .errors import (
    BlochCurveError,
    DomainError,
    InvalidArgumentError,
    SingularityError,
)
from .geometry import SERIES_COLUMNS

# cmd_sweep writes each ExtremaSummary in field order, so its header comes from the fields
SWEEP_COLUMNS = ("omega0", "nu0",
                 *(f.name for f in dataclasses.fields(geometry.ExtremaSummary)), "eta_ge")

_SWEEP_ROWS = 8192          # sweep rows computed and rendered per block
_PARSE_SEGMENT = 1 << 16    # characters of --nu0-list parsed per step

_DEFAULTS = {
    "omega0": 1.0,
    "nu0": 1.0,
    "t_max": 2.0 * math.pi,
    "steps": 6283,
    "format": "csv",
}


def _output_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(text)
    return text


# Every option, by the name a --config file uses: its flag, the cast applied
# to a config-file value, and the argparse settings of the flag.
_OPTIONS = {
    "omega0": ("--omega0", float, dict(type=float, help="rotation rate (> 0), default 1")),
    "nu0": ("--nu0", float, dict(type=float, help="drive strength (>= 0), default 1")),
    "t_max": ("--t-max", float, dict(type=float, help="end of the time grid, default 2*pi")),
    "steps": ("--steps", int, dict(type=int, help="number of grid intervals, default 6283")),
    "out": ("--out", str, dict(help="output path (default: stdout)")),
    "format": ("--format", _output_format,
               dict(choices=("csv", "json"), help="output format, default csv")),
}

# Each subcommand registers, and accepts in a --config file, only the options
# it reads; validate also takes --tol (tol.<check> in a config file), sweep
# its required --nu0-list.
_COMMANDS = {
    "simulate": ("write the observable time series for one parameter pair",
                 ("omega0", "nu0", "t_max", "steps", "out", "format")),
    "validate": ("run the numerical invariant battery",
                 ("omega0", "nu0", "t_max", "steps")),
    "sweep": ("tabulate extrema and geodesic efficiency over drive strengths",
              ("omega0", "out", "format")),
}


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        opts = _resolve_options(ns)
        if ns.command == "sweep":
            return cmd_sweep(opts["omega0"], _parse_nu0_list(ns.nu0_list),
                             opts["out"], opts["format"])
        params = fields.ScenarioParams(opts["omega0"], opts["nu0"])
        grid = dynamics.TimeGrid(0.0, opts["t_max"], opts["steps"])
        if not (math.isfinite(4.0 * params.omega0 * grid.t1)
                and math.isfinite(params.nu0 * grid.t1)):
            raise InvalidArgumentError(f"t_max = {grid.t1!r} is out of range: "
                                       "4*omega0*t_max and nu0*t_max must be finite")
        if ns.command == "simulate":
            return cmd_simulate(params, grid, opts["out"], opts["format"])
        return cmd_validate(params, grid, opts["tol"])
    except (OSError, InvalidArgumentError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BlochCurveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def cmd_simulate(params: fields.ScenarioParams, grid: dynamics.TimeGrid,
                 out: str | None, fmt: str) -> int:
    """Write one row per grid node with every scenario observable."""
    from ._floattext import table_chunks  # here: validate renders no table

    columns = geometry.scenario_records(params, grid)
    _write_text(out, table_chunks([list(columns.values())], SERIES_COLUMNS, fmt))
    return 0


def cmd_validate(params: fields.ScenarioParams, grid: dynamics.TimeGrid,
                 tolerances: dict) -> int:
    """Run the invariant battery and print one line per name of
    ``DEFAULT_TOLERANCES``, in that order, then a summary line."""
    results = validation.run_battery(params, grid, tolerances)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  residual {r.residual:.3e}  "
              f"tol {r.tolerance:.1e}  ({r.detail})")
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed: {', '.join(failures)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def cmd_sweep(omega0: float, nu0_values, out: str | None, fmt: str) -> int:
    """One extrema/efficiency summary row per drive strength, input order.

    The whole 1-D ``nu0_values`` is checked first, so every error comes
    before ``out`` is opened. The closed forms, E(m) and the text then go
    one block of ``_SWEEP_ROWS`` rows at a time, so memory beyond the
    list itself does not grow with its length.
    """
    from ._floattext import table_chunks

    nu0 = fields.ScenarioParams(omega0, nu0_values).nu0
    params = (fields.ScenarioParams(omega0, nu0[i:i + _SWEEP_ROWS])
              for i in range(0, nu0.size, _SWEEP_ROWS))
    blocks = ((p.omega0, p.nu0, *vars(geometry.extrema_summary(p)).values(),
               geometry.geodesic_efficiency(p)) for p in params)
    _write_text(out, table_chunks(blocks, SWEEP_COLUMNS, fmt))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochcurve",
        description="Geometry of driven-qubit evolution: speed, curvature, "
                    "efficiencies, and cross-validated dynamics.",
        epilog="Exit codes: 0 ok, 1 failed validation, 2 config/I-O error, "
               "3 numerical failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for option in options:
            flag, _, settings = _OPTIONS[option]
            sp.add_argument(flag, dest=option, default=None, **settings)
        sp.add_argument("--config", default=None,
                        help="key=value file mirroring the flags; flags win")
    sub.choices["validate"].add_argument(
        "--tol", action="append", default=[], metavar="NAME=VALUE",
        help="override a named validation tolerance (repeatable)")
    sub.choices["sweep"].add_argument(
        "--nu0-list", dest="nu0_list", required=True,
        help="comma-separated drive strengths, one summary row each")
    return parser


def _resolve_options(ns) -> dict:
    """The subcommand's option values: flag, else config file, else default."""
    names = _COMMANDS[ns.command][1]
    takes_tol = ns.command == "validate"
    file_map = _parse_config_file(ns.config, names, takes_tol) if ns.config else {}
    opts = {}
    for name in names:
        value = getattr(ns, name)
        if value is None and name in file_map:
            value = _cast(file_map[name], _OPTIONS[name][1], name)
        opts[name] = _DEFAULTS.get(name) if value is None else value
    if takes_tol:
        tolerances = {k[4:]: _cast(v, float, k)
                      for k, v in file_map.items() if k.startswith("tol.")}
        for item in ns.tol:
            name, _, value = item.partition("=")
            if not name or not value:
                raise InvalidArgumentError(f"--tol expects NAME=VALUE, got {item!r}")
            tolerances[name] = _cast(value, float, name)
        opts["tol"] = tolerances
    return opts


def _parse_config_file(path: str, keys, takes_tol: bool) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise InvalidArgumentError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in keys and not (takes_tol and key.startswith("tol.")):
            raise InvalidArgumentError(f"{path}:{lineno}: unknown key {key!r}")
        mapping[key] = value
    return mapping


def _parse_nu0_list(text: str) -> np.ndarray:
    """The comma-separated values as one float64 array.

    The text is parsed in segments of about ``_PARSE_SEGMENT`` characters,
    cut at commas, so no per-value object exists for the whole list at once.
    A segment with an empty piece (",," or a trailing comma) or a bad value
    is parsed again piece by piece: empty pieces are skipped, and the first
    bad value is named.
    """
    values = np.empty(text.count(",") + 1)
    done = start = 0
    while start <= len(text):
        end = text.find(",", start + _PARSE_SEGMENT)
        end = len(text) if end < 0 else end
        pieces = text[start:end].split(",")
        try:
            # float strips whitespace itself
            values[done:done + len(pieces)] = np.fromiter(map(float, pieces), float, len(pieces))
        except ValueError:
            pieces = [_cast(p, float, "nu0-list") for p in map(str.strip, pieces) if p]
            values[done:done + len(pieces)] = pieces
        done += len(pieces)
        start = end + 1
    if not done:
        raise InvalidArgumentError("--nu0-list must contain at least one value")
    return values[:done]


def _cast(value, cast, key):
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"bad value for {key}: {value!r}") from exc


def _write_text(out: str | None, chunks) -> None:
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: converge, stability, burgers, run.  Each accepts only the
settings it reads (EXPERIMENTS, PROBLEMS), as flags or as keys of a flat
JSON config file; flags override the file.  All artifacts are plain
CSV/JSON with '.'-decimal floats printed to 17 significant digits, no
timestamps, and fixed row order, so a repeated invocation is byte-identical.

Exit codes: 0 success, 1 usage or I/O failure (including a malformed
command line, a setting the experiment does not read, and a ValueError the
library raises on a bad setting), 2 invariant-check failure (also
EnergyPositivityError and MonotonicityError), 3 divergence in an experiment
that does not tolerate it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .harness import (
    burgers_compare,
    check_dt_ladder,
    convergence_study,
    default_dt_ladder,
    random_smooth_field,
    stability_probe,
)
from .problems import allen_cahn, burgers, cahn_hilliard, with_manufactured_forcing
from .spectral import Field, Grid
from .stepper import (DivergenceError, EnergyPositivityError, MonotonicityError,
                      RunReport, StepMode, run, step_count)
from .tableau import MAX_ORDER, tableau

__all__ = ["RunConfig", "ConfigError", "parse_config", "execute", "main", "console_main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_DIVERGENCE = 3

#: The settable keys each experiment reads, besides `experiment` and `out`.
#: An experiment that reads `problem` also reads that problem's keys; the
#: burgers experiment always runs the burgers problem and reads `nu` itself.
EXPERIMENTS = {
    "converge": ("problem", "order", "grid", "T", "dt_list", "eta_exponent"),
    "stability": ("problem", "order", "grid", "dt", "n_steps", "seed", "eta_exponent"),
    "burgers": ("order", "grid", "nu", "dt", "dt_ref", "T", "eta_exponent"),
    "run": ("problem", "order", "grid", "dt", "T", "mode", "eta_exponent"),
}
#: The settable keys each problem reads.
PROBLEMS = {
    "allen_cahn": ("alpha", "stabilization", "c_shift"),
    "cahn_hilliard": ("alpha", "stabilization", "c_shift", "m0"),
    "burgers": ("nu", "c_shift"),
}
MODES = tuple(m.value for m in StepMode)

#: argparse options of the flag --key ('_' spelled '-') of each settable key
#: but grid and dt_list; a `type` is also the type a config-file value must have
_FLAGS = {
    "problem": {"choices": tuple(PROBLEMS)},
    "mode": {"choices": MODES},
    "out": {"type": str, "metavar": "DIR"},
    **dict.fromkeys(("order", "eta_exponent", "seed", "n_steps"), {"type": int}),
    **dict.fromkeys(("alpha", "m0", "nu", "stabilization", "c_shift", "dt", "T", "dt_ref"),
                    {"type": float}),
}

TRACE_HEADER = "step,t,r,xi,eta,energy,principal_norm_sq,err_l2,err_h1,err_h2"


class ConfigError(ValueError):
    """Invalid or unknown configuration; message names the offending key."""


@dataclass
class RunConfig:
    experiment: str
    problem: str = "allen_cahn"
    order: int = 2
    alpha: Optional[float] = None
    m0: float = 0.005
    nu: float = 1.0 / 314.0
    stabilization: float = 0.0
    c_shift: Optional[float] = None
    eta_exponent: Optional[int] = None
    dt: Optional[float] = None
    dt_list: Optional[tuple[float, ...]] = None
    T: float = 1.0
    grid: tuple[int, ...] = ()
    mode: str = "sav"
    seed: int = 0
    n_steps: int = 200
    dt_ref: float = 1e-4
    out: str = "out"


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _settable_keys(experiment: str, problems) -> list[str]:
    """The keys besides `experiment` that `experiment` reads on any of `problems`."""
    keys = list(EXPERIMENTS[experiment])
    if "problem" in keys:
        for problem in problems:
            keys += [k for k in PROBLEMS[problem] if k not in keys]
    return keys + ["out"]


def _parse_list(key: str, raw, kind) -> tuple:
    """A list setting: a JSON list, or a string split at ',' (grid: also at 'x', or one integer)."""
    items = raw
    if isinstance(raw, str):
        text = raw.lower().replace("x", ",") if key == "grid" else raw
        items = [p for p in text.split(",") if p]
    elif key == "grid" and isinstance(raw, int) and not isinstance(raw, bool):
        items = [raw]
    try:
        return tuple(kind(v) for v in items)
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}': cannot interpret {raw!r}") from None


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge a flat JSON config file with flag overrides (flags win) and validate.

    A null value leaves a key unset.  A key that the experiment or its
    problem does not read (see EXPERIMENTS and PROBLEMS) is a ConfigError.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a flat JSON object")
    merged = {k: v for source in (data, overrides or {}) for k, v in source.items() if v is not None}

    if "experiment" not in merged:
        raise ConfigError(f"key 'experiment' is required; allowed values: {', '.join(EXPERIMENTS)}")
    experiment = merged["experiment"]
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(f"key 'experiment': {experiment!r} not one of {', '.join(EXPERIMENTS)}")
    reads_problem = "problem" in EXPERIMENTS[experiment]
    problem = merged.get("problem", RunConfig.problem) if reads_problem else "burgers"
    if not isinstance(problem, str) or problem not in PROBLEMS:
        raise ConfigError(f"key 'problem': {problem!r} not one of {', '.join(PROBLEMS)}")
    if experiment == "converge" and problem == "burgers":
        raise ConfigError(
            "key 'problem': converge needs a manufactured solution; use allen_cahn or cahn_hilliard"
        )
    allowed = ["experiment", *_settable_keys(experiment, (problem,))]
    unread = sorted(set(merged) - set(allowed))
    if unread:
        key = unread[0]
        reader = f"{experiment} on {problem}" if reads_problem else experiment
        head = f"key '{key}' is not read by {reader}" if key in _CONFIG_KEYS else f"unknown key '{key}'"
        raise ConfigError(f"{head}; it reads: {', '.join(allowed)}")
    for key, value in merged.items():
        kind = _FLAGS.get(key, {}).get("type")
        expected = (int, float) if kind is float else kind
        if kind is not None and (isinstance(value, bool) or not isinstance(value, expected)):
            raise ConfigError(f"key '{key}': expected {kind.__name__}, got {value!r}")

    for key, kind in (("grid", int), ("dt_list", float)):
        if key in merged:
            merged[key] = _parse_list(key, merged[key], kind)

    cfg = RunConfig(**merged)
    cfg.problem = problem
    if not 1 <= cfg.order <= MAX_ORDER:
        raise ConfigError(f"key 'order': {cfg.order!r} must be an integer in 1..{MAX_ORDER}")
    if cfg.mode not in MODES:
        raise ConfigError(f"key 'mode': {cfg.mode!r} not one of {', '.join(MODES)}")

    # problem-dependent defaults
    if cfg.alpha is None:
        cfg.alpha = 1e-4 if cfg.problem == "allen_cahn" else 0.04
    if not cfg.grid:
        cfg.grid = (320,) if cfg.problem == "burgers" else (64, 64)
    if cfg.dt is None:
        cfg.dt = 8.5e-3 if cfg.experiment == "burgers" else 0.1
    if cfg.dt_list is None and cfg.experiment == "converge":
        cfg.dt_list = default_dt_ladder(cfg.order)

    fourier = cfg.problem != "burgers"
    if len(cfg.grid) > (2 if fourier else 1):
        takes = "one or two entries" if fourier else "one entry"
        raise ConfigError(f"key 'grid': {cfg.problem} takes {takes}, got {cfg.grid!r}")
    if any(n < 1 or (fourier and n % 2) for n in cfg.grid):
        needs = "even positive extents (real transforms)" if fourier else "a positive mode count"
        raise ConfigError(f"key 'grid': {cfg.problem} needs {needs}, got {cfg.grid!r}")
    positive = ("alpha", "m0", "nu", "T", "dt", "dt_ref") + (("c_shift",) if cfg.c_shift is not None else ())
    for key in positive:
        value = getattr(cfg, key)
        if not 0 < value < math.inf:
            raise ConfigError(f"key '{key}': must be positive and finite, got {value!r}")
    if not 0 <= cfg.stabilization < math.inf:
        raise ConfigError(
            f"key 'stabilization': must be non-negative and finite, got {cfg.stabilization!r}"
        )
    if cfg.n_steps < cfg.order:
        raise ConfigError(
            f"key 'n_steps': must cover the order-{cfg.order} startup, at least {cfg.order}; "
            f"got {cfg.n_steps!r}"
        )
    if cfg.seed < 0:
        raise ConfigError(f"key 'seed': must be non-negative, got {cfg.seed!r}")
    if cfg.eta_exponent is not None and cfg.eta_exponent < cfg.order + 1:
        raise ConfigError(
            f"key 'eta_exponent': must be at least order + 1 = {cfg.order + 1}, the smallest "
            f"exponent that keeps order {cfg.order}; got {cfg.eta_exponent!r}"
        )
    # the step counts the experiment's runs will take, checked before any output exists
    key = "dt_list" if cfg.experiment == "converge" else "dt"
    try:
        if cfg.experiment == "converge":
            check_dt_ladder(cfg.dt_list, cfg.T, cfg.order)
        elif cfg.experiment == "run":
            step_count(cfg.dt, cfg.T, cfg.order)
        elif cfg.experiment == "stability":
            step_count(cfg.dt, cfg.n_steps * cfg.dt, cfg.order)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from None
    return cfg


def _build_problem(cfg: RunConfig, forced: bool):
    if cfg.problem == "burgers":
        grid = Grid.sine1d(cfg.grid[0])
        return burgers(grid, cfg.nu, c_shift=cfg.c_shift)
    nx = cfg.grid[0]
    ny = cfg.grid[1] if len(cfg.grid) > 1 else nx
    grid = Grid.fourier2d(nx, ny)
    if cfg.problem == "allen_cahn":
        p = allen_cahn(grid, alpha=cfg.alpha, stabilization=cfg.stabilization, c_shift=cfg.c_shift)
    else:
        p = cahn_hilliard(grid, alpha=cfg.alpha, mobility=cfg.m0,
                          stabilization=cfg.stabilization, c_shift=cfg.c_shift)
    if forced:
        p = with_manufactured_forcing(p)
    return p


# -- deterministic serialization ----------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json_dumps(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_dumps(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_trace(path: Path, report: RunReport):
    lines = [TRACE_HEADER]
    for rec in report.records:
        lines.append(",".join([
            str(rec.step), _fmt(rec.t), _fmt(rec.r), _fmt(rec.xi), _fmt(rec.eta),
            _fmt(rec.energy), _fmt(rec.principal_norm_sq),
            _fmt(rec.err_l2), _fmt(rec.err_h1), _fmt(rec.err_h2),
        ]))
    _write_text(path, "\n".join(lines) + "\n")


def _write_snapshot(path: Path, x: np.ndarray, u: np.ndarray):
    lines = ["x,u"]
    lines.extend(f"{_fmt(float(xi))},{_fmt(float(ui))}" for xi, ui in zip(x, u))
    _write_text(path, "\n".join(lines) + "\n")


# -- experiment execution -------------------------------------------------------------


def _execute_converge(cfg: RunConfig, out: Path) -> int:
    problem = _build_problem(cfg, forced=True)
    report = convergence_study(problem, cfg.order, cfg.dt_list, cfg.T,
                               eta_exponent=cfg.eta_exponent)
    lines = ["dt,err_l2,err_h1,err_h2"]
    for e in report.entries:
        lines.append(f"{_fmt(e.dt)},{_fmt(e.err_l2)},{_fmt(e.err_h1)},{_fmt(e.err_h2)}")
    _write_text(out / "convergence.csv", "\n".join(lines) + "\n")
    _write_text(out / "summary.json", _json_dumps({
        "slope_l2": report.slopes["l2"],
        "slope_h1": report.slopes["h1"],
        "slope_h2": report.slopes["h2"],
    }) + "\n")
    fitted = [s for s in report.slopes.values() if s is not None]
    if len(fitted) < 3:
        print("converge: too few finite error points to fit all slopes", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _execute_stability(cfg: RunConfig, out: Path) -> int:
    problem = _build_problem(cfg, forced=False)
    result = stability_probe(problem, cfg.order, cfg.dt, cfg.n_steps,
                             seed=cfg.seed, eta_exponent=cfg.eta_exponent)
    report = result.report
    _write_trace(out / "trace.csv", report)
    _write_text(out / "summary.json", _json_dumps({
        "violations": list(result.violations),
        "monotone_violations": report.monotone_violations,
        "min_r": report.min_r,
        "min_xi": report.min_xi,
        "sup_principal_norm_sq": report.sup_principal,
        "sup_principal_norm_sq_first10": report.sup_principal_first(10),
        "mean_drift": report.mean_drift,
    }) + "\n")
    if not result.passed:
        for v in result.violations:
            print(f"stability violation: {v}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _execute_burgers(cfg: RunConfig, out: Path) -> int:
    comparison = burgers_compare(nu=cfg.nu, n_modes=cfg.grid[0], dt=cfg.dt,
                                 dt_ref=cfg.dt_ref, T=cfg.T, order=cfg.order,
                                 eta_exponent=cfg.eta_exponent)
    _write_snapshot(out / "snapshot_ref.csv", comparison.x, comparison.u_ref)
    _write_snapshot(out / "snapshot_sav.csv", comparison.x, comparison.u_sav)
    if comparison.u_imex is not None:
        _write_snapshot(out / "snapshot_imex.csv", comparison.x, comparison.u_imex)
    _write_trace(out / "trace.csv", comparison.sav_report)
    _write_text(out / "summary.json", _json_dumps({
        "deviation_sav": comparison.deviation_sav,
        "deviation_imex": None if comparison.imex_diverged else comparison.deviation_imex,
        "overshoot_sav": comparison.overshoot_sav,
        "overshoot_imex": None if comparison.imex_diverged else comparison.overshoot_imex,
        "imex_diverged": comparison.imex_diverged,
        "min_eta_sav": comparison.sav_report.min_eta,
        "max_eta_sav": comparison.sav_report.max_eta,
    }) + "\n")
    return EXIT_OK


def _execute_run(cfg: RunConfig, out: Path) -> int:
    if cfg.problem == "burgers":
        problem = _build_problem(cfg, forced=False)
        (x,) = problem.grid.points
        u0 = Field.from_physical(problem.grid, -np.sin(np.pi * x))
    else:
        # phase-field single runs track the manufactured solution so the
        # error columns of the trace are populated
        problem = _build_problem(cfg, forced=True)
        u0 = None
    tab = tableau(cfg.order, cfg.eta_exponent)
    report = run(problem, tab, cfg.dt, cfg.T, mode=StepMode(cfg.mode), u0=u0)
    _write_trace(out / "trace.csv", report)
    summary = {
        "problem": report.problem,
        "order": report.order,
        "dt": report.dt,
        "mode": cfg.mode,
        "max_xi_deviation": report.max_xi_deviation,
        "min_eta": report.min_eta,
        "max_eta": report.max_eta,
        "final_r": report.final.r,
        "final_energy": report.final.energy,
    }
    if report.final_errors is not None:
        summary["final_err_l2"], summary["final_err_h1"], summary["final_err_h2"] = report.final_errors
    _write_text(out / "summary.json", _json_dumps(summary) + "\n")
    return EXIT_OK


def execute(cfg: RunConfig) -> int:
    """Dispatch the configured experiment and write its artifacts."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if cfg.experiment == "converge":
            return _execute_converge(cfg, out)
        if cfg.experiment == "stability":
            return _execute_stability(cfg, out)
        if cfg.experiment == "burgers":
            return _execute_burgers(cfg, out)
        return _execute_run(cfg, out)
    except DivergenceError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (EnergyPositivityError, MonotonicityError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except ValueError as exc:
        print(f"invalid setting: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, not exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="savbdf",
        description="Energy-stable semi-implicit BDFk experiments on spectral grids.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="|".join(EXPERIMENTS))
    for name in EXPERIMENTS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="flat JSON config file; flags override it")
        for key in _settable_keys(name, PROBLEMS):
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, **_FLAGS.get(key, {}))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k != "config"}
        cfg = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return execute(cfg)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

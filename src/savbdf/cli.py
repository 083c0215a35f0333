"""Command-line entry point.

Subcommands: converge, stability, burgers, run.  A flat JSON config file can
supply any setting; command-line flags override it.  All artifacts are plain
CSV/JSON with '.'-decimal floats printed to 17 significant digits, no
timestamps, and fixed row order, so a repeated invocation is byte-identical.

Exit codes: 0 success, 1 usage or I/O failure (including a ValueError the
library raises on a bad setting), 2 invariant-check failure (also
EnergyPositivityError and MonotonicityError), 3 divergence in an experiment
that does not tolerate it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .harness import (
    burgers_compare,
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

EXPERIMENTS = ("converge", "stability", "burgers", "run")
PROBLEMS = ("allen_cahn", "cahn_hilliard", "burgers")
MODES = ("sav", "imex")

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


def _parse_grid(raw) -> tuple[int, ...]:
    if isinstance(raw, int):
        return (raw,)
    if isinstance(raw, (list, tuple)):
        return tuple(int(v) for v in raw)
    if isinstance(raw, str):
        parts = raw.lower().replace("x", ",").split(",")
        return tuple(int(p) for p in parts if p)
    raise ConfigError(f"key 'grid': cannot interpret {raw!r}")


def _parse_dt_list(raw) -> tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(float(v) for v in raw)
    if isinstance(raw, str):
        return tuple(float(p) for p in raw.split(",") if p)
    raise ConfigError(f"key 'dt_list': cannot interpret {raw!r}")


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge a flat JSON config file with flag overrides (flags win) and validate."""
    merged: dict = {}
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
        merged.update(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    unknown = sorted(set(merged) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}'; allowed keys: {', '.join(sorted(_CONFIG_KEYS))}"
        )
    if "experiment" not in merged:
        raise ConfigError(f"key 'experiment' is required; allowed values: {', '.join(EXPERIMENTS)}")

    if "grid" in merged:
        merged["grid"] = _parse_grid(merged["grid"])
    if "dt_list" in merged and merged["dt_list"] is not None:
        merged["dt_list"] = _parse_dt_list(merged["dt_list"])

    cfg = RunConfig(**merged)

    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"key 'experiment': {cfg.experiment!r} not one of {', '.join(EXPERIMENTS)}")
    if cfg.problem not in PROBLEMS:
        raise ConfigError(f"key 'problem': {cfg.problem!r} not one of {', '.join(PROBLEMS)}")
    if not isinstance(cfg.order, int) or not 1 <= cfg.order <= MAX_ORDER:
        raise ConfigError(f"key 'order': {cfg.order!r} must be an integer in 1..{MAX_ORDER}")
    if cfg.mode not in MODES:
        raise ConfigError(f"key 'mode': {cfg.mode!r} not one of {', '.join(MODES)}")
    if cfg.experiment == "burgers":
        if "problem" in merged and merged["problem"] != "burgers":
            raise ConfigError("key 'problem': the burgers experiment only runs on 'burgers'")
        cfg.problem = "burgers"
    if cfg.experiment == "converge" and cfg.problem == "burgers":
        raise ConfigError(
            "key 'problem': converge needs a manufactured solution; use allen_cahn or cahn_hilliard"
        )

    # problem-dependent defaults
    if cfg.alpha is None:
        cfg.alpha = 1e-4 if cfg.problem == "allen_cahn" else 0.04
    if not cfg.grid:
        cfg.grid = (320,) if cfg.problem == "burgers" else (64, 64)
    if cfg.dt is None:
        cfg.dt = 8.5e-3 if cfg.experiment == "burgers" else 0.1
    if cfg.dt_list is None and cfg.experiment == "converge":
        cfg.dt_list = default_dt_ladder(cfg.order)

    positive = ("alpha", "m0", "nu", "T", "dt") + (("c_shift",) if cfg.c_shift is not None else ())
    for key in positive:
        value = getattr(cfg, key)
        if not value > 0:
            raise ConfigError(f"key '{key}': must be positive, got {value!r}")
    if cfg.stabilization < 0:
        raise ConfigError(f"key 'stabilization': must be non-negative, got {cfg.stabilization!r}")
    if cfg.n_steps < 1:
        raise ConfigError(f"key 'n_steps': must be at least 1, got {cfg.n_steps!r}")
    if cfg.eta_exponent is not None and cfg.eta_exponent < 1:
        raise ConfigError(f"key 'eta_exponent': must be a positive integer, got {cfg.eta_exponent!r}")
    if cfg.dt_list is not None and any(d <= 0 for d in cfg.dt_list):
        raise ConfigError("key 'dt_list': all entries must be positive")
    if cfg.experiment == "run":
        try:
            step_count(cfg.dt, cfg.T, cfg.order)
        except ValueError as exc:
            raise ConfigError(f"key 'dt': {exc}") from None
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
    _write_trace(out / "trace.csv", result.report)
    _write_text(out / "summary.json", _json_dumps({
        "violations": list(result.violations),
        "monotone_violations": result.report.monotone_violations,
        "min_r": result.report.min_r,
        "min_xi": result.report.min_xi,
        "sup_principal_norm_sq": result.sup_principal,
        "sup_principal_norm_sq_first10": result.sup_principal_first10,
        "mean_drift": result.mean_drift,
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
    mode = StepMode.SAV if cfg.mode == "sav" else StepMode.IMEX
    report = run(problem, tab, cfg.dt, cfg.T, mode=mode, u0=u0)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="savbdf",
        description="Energy-stable semi-implicit BDFk experiments on spectral grids.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="|".join(EXPERIMENTS))
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", help="flat JSON config file; flags override it")
        p.add_argument("--problem", choices=PROBLEMS)
        p.add_argument("--order", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--m0", type=float)
        p.add_argument("--nu", type=float)
        p.add_argument("--stabilization", type=float)
        p.add_argument("--c-shift", dest="c_shift", type=float)
        p.add_argument("--eta-exponent", dest="eta_exponent", type=int)
        p.add_argument("--dt", type=float)
        p.add_argument("--dt-list", dest="dt_list")
        p.add_argument("--T", dest="T", type=float)
        p.add_argument("--grid")
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--seed", type=int)
        p.add_argument("--n-steps", dest="n_steps", type=int)
        p.add_argument("--dt-ref", dest="dt_ref", type=float)
        p.add_argument("--out", metavar="DIR")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return execute(cfg)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

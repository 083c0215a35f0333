"""Command-line entry point.

Subcommands: converge, stability, burgers, run.  Each accepts only the
settings it reads (EXPERIMENTS, PROBLEMS), as flags or as keys of a flat
JSON config file; flags override the file.  All artifacts are plain
CSV/JSON with '.'-decimal floats printed to 17 significant digits, no
timestamps, and fixed row order, so a repeated invocation is byte-identical.
A non-finite float is null in summary.json, strict JSON, and inf or nan in a CSV.

A value's range is checked once, by the library function that uses it,
whose SettingError is reported under the value's key; the output
directory appears with the first artifact, so a failure before it leaves
no --out.  `main` is the one failure gate: it parses and runs inside one
`try` and prints each failure as one stderr line.  A SavError exits with
its `exit_code`: 1 usage (ConfigError, SettingError), 2 a failed check
(CheckFailed), 3 divergence (DivergenceError); an OSError (I/O failure)
or a MemoryError (out of memory) exits 1, and success 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .harness import burgers_compare, convergence_study, default_dt_ladder, stability_probe
from .problems import allen_cahn, burgers, cahn_hilliard, with_manufactured_forcing
from .spectral import Field, Grid, SavError, SettingError
from .stepper import StepMode, run
from .tableau import tableau

__all__ = ["RunConfig", "ConfigError", "CheckFailed", "parse_config", "execute", "main", "console_main"]

EXIT_OK = 0
EXIT_USAGE = 1

#: The settable keys each experiment reads, besides `experiment` and `out`.
#: An experiment that reads `problem` also reads that problem's keys; the
#: burgers experiment always runs the burgers problem and reads `nu` itself.
EXPERIMENTS = {
    "converge": ("problem", "order", "grid", "T", "dt_list"),
    "stability": ("problem", "order", "grid", "dt", "n_steps", "seed"),
    "burgers": ("order", "grid", "nu", "dt", "dt_ref", "T"),
    "run": ("problem", "order", "grid", "dt", "T", "mode"),
}
#: The settable keys each problem reads.
PROBLEMS = {
    "allen_cahn": ("alpha", "stabilization", "c_shift"),
    "cahn_hilliard": ("alpha", "stabilization", "c_shift", "m0"),
    "burgers": ("nu", "c_shift"),
}
MODES = tuple(m.value for m in StepMode)
#: the key of each library parameter whose name differs from it
_KEY_OF_SETTING = {"extents": "grid", "mobility": "m0"}

#: argparse options of the flag --key ('_' spelled '-') of each settable key
#: but grid and dt_list; a `type` is also the type a config-file value must have
_FLAGS = {
    "problem": {"choices": tuple(PROBLEMS)},
    "mode": {"choices": MODES},
    "out": {"type": str, "metavar": "DIR"},
    **dict.fromkeys(("order", "seed", "n_steps"), {"type": int}),
    **dict.fromkeys(("alpha", "m0", "nu", "stabilization", "c_shift", "dt", "T", "dt_ref"),
                    {"type": float}),
}

TRACE_COLUMNS = ("step", "t", "r", "xi", "eta", "energy", "principal_norm_sq",
                 "err_l2", "err_h1", "err_h2")
_trace_row = attrgetter(*TRACE_COLUMNS)


class ConfigError(SavError, ValueError):
    """Invalid or unknown configuration; message names the offending key."""


class CheckFailed(SavError):
    """A completed experiment failed its own check, after writing its artifacts."""

    exit_code = 2


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
    """A non-empty list setting: a string split at ',' (grid: also at 'x'), or a
    JSON list (grid: or one integer) whose entries follow the scalar type rule."""
    if isinstance(raw, str):
        text = raw.lower().replace("x", ",") if key == "grid" else raw
        items = [p for p in text.split(",") if p]
    else:
        items = [raw] if key == "grid" and isinstance(raw, int) else raw
        expected = (int, float) if kind is float else kind
        if not isinstance(items, (list, tuple)) or any(
                isinstance(v, bool) or not isinstance(v, expected) for v in items):
            raise ConfigError(f"key '{key}': expected a list of {kind.__name__}, got {raw!r}")
    try:
        values = tuple(kind(v) for v in items)
    except (ValueError, OverflowError):
        raise ConfigError(f"key '{key}': cannot interpret {raw!r}") from None
    if not values:
        raise ConfigError(f"key '{key}': expected at least one entry, got {raw!r}")
    return values


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge a flat JSON config file with flag overrides (flags win) and validate.

    A null value leaves a key unset.  A key that the experiment or its
    problem does not read (see EXPERIMENTS and PROBLEMS) is a ConfigError, as
    are a wrong type and too many grid entries.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # not JSON, not UTF-8, or an int of too many digits
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

    if len(cfg.grid) > (1 if cfg.problem == "burgers" else 2):
        takes = "one entry" if cfg.problem == "burgers" else "one or two entries"
        raise ConfigError(f"key 'grid': {cfg.problem} takes {takes}, got {cfg.grid!r}")
    return cfg


def _build_problem(cfg: RunConfig):
    """The configured problem; `converge` and `run` on a phase field track the
    manufactured solution, so their error columns are populated."""
    if cfg.problem == "burgers":
        grid = Grid.sine1d(cfg.grid[0])
        return burgers(grid, cfg.nu, c_shift=cfg.c_shift)
    grid = Grid.fourier2d(*cfg.grid)
    if cfg.problem == "allen_cahn":
        p = allen_cahn(grid, alpha=cfg.alpha, stabilization=cfg.stabilization, c_shift=cfg.c_shift)
    else:
        p = cahn_hilliard(grid, alpha=cfg.alpha, mobility=cfg.m0,
                          stabilization=cfg.stabilization, c_shift=cfg.c_shift)
    if cfg.experiment in ("converge", "run"):
        p = with_manufactured_forcing(p)
    return p


# -- deterministic serialization ----------------------------------------------------


def _write_text(path: Path, text: str):
    # the output directory appears with the first artifact, so a run that
    # fails before writing leaves none behind
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_summary(out: Path, summary: dict):
    """summary.json: one key per line of a flat object of scalars and lists of strings;
    JSON has no inf or nan, so a non-finite float is null."""
    summary = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in summary.items()}
    items = ",\n".join(f'  "{k}": {"%.17g" % v if isinstance(v, float) else json.dumps(v)}'
                        for k, v in summary.items())
    _write_text(out / "summary.json", "{\n" + items + "\n}\n")


@functools.cache
def _row_format(width: int, blanks: int) -> str:
    """The %-format of a CSV row of `width` values whose last `blanks` are None: each
    value to 17 significant digits, a None an empty field."""
    return ",".join(["%.17g"] * (width - blanks) + [""] * blanks)


def _write_csv(path: Path, header, rows):
    """A line of column names, then one line of formatted values per row; a row's None
    values end it (a None before a value fails the format)."""
    lines = [",".join(header)]
    for row in rows:
        blanks = row.count(None)
        lines.append(_row_format(len(row), blanks) % row[:len(row) - blanks])
    _write_text(path, "\n".join(lines) + "\n")


# -- experiment execution -------------------------------------------------------------


def _execute_converge(cfg: RunConfig, out: Path) -> None:
    problem = _build_problem(cfg)
    report = convergence_study(problem, cfg.order, cfg.dt_list, cfg.T)
    columns = ("dt", "err_l2", "err_h1", "err_h2")
    _write_csv(out / "convergence.csv", columns, map(attrgetter(*columns), report.entries))
    _write_summary(out, {f"slope_{norm}": slope for norm, slope in report.slopes.items()})
    fitted = [s for s in report.slopes.values() if s is not None]
    if len(fitted) < 3:
        raise CheckFailed("converge: too few finite error points to fit all slopes")


def _execute_stability(cfg: RunConfig, out: Path) -> None:
    problem = _build_problem(cfg)
    result = stability_probe(problem, cfg.order, cfg.dt, cfg.n_steps, seed=cfg.seed)
    report = result.report
    _write_csv(out / "trace.csv", TRACE_COLUMNS, map(_trace_row, report.records))
    _write_summary(out, {
        "violations": list(result.violations),
        "monotone_violations": report.monotone_violations,
        "min_r": report.min_r,
        "min_xi": report.min_xi,
        "sup_principal_norm_sq": report.sup_principal,
        "sup_principal_norm_sq_first10": report.sup_principal_first10,
        "mean_drift": report.mean_drift,
    })
    if result.violations:
        raise CheckFailed("\n".join(f"stability violation: {v}" for v in result.violations))


def _execute_burgers(cfg: RunConfig, out: Path) -> None:
    comparison = burgers_compare(_build_problem(cfg), cfg.dt, cfg.dt_ref, cfg.T, cfg.order)
    for name, u in (("ref", comparison.u_ref), ("sav", comparison.u_sav), ("imex", comparison.u_imex)):
        if u is not None:
            _write_csv(out / f"snapshot_{name}.csv", ("x", "u"), zip(comparison.x, u))
    _write_csv(out / "trace.csv", TRACE_COLUMNS, map(_trace_row, comparison.sav_report.records))
    _write_summary(out, {
        "deviation_sav": comparison.deviation_sav,
        "deviation_imex": comparison.deviation_imex,
        "overshoot_sav": comparison.overshoot_sav,
        "overshoot_imex": comparison.overshoot_imex,
        "imex_diverged": comparison.u_imex is None,
        "min_eta_sav": comparison.sav_report.min_eta,
        "max_eta_sav": comparison.sav_report.max_eta,
    })


def _execute_run(cfg: RunConfig, out: Path) -> None:
    problem = _build_problem(cfg)
    u0 = None
    if problem.exact is None:
        (x,) = problem.grid.points
        u0 = Field.from_physical(problem.grid, -np.sin(np.pi * x))
    tab = tableau(cfg.order)
    report = run(problem, tab, cfg.dt, cfg.T, mode=StepMode(cfg.mode), u0=u0)
    _write_csv(out / "trace.csv", TRACE_COLUMNS, map(_trace_row, report.records))
    summary = {
        "problem": cfg.problem,
        "order": cfg.order,
        "dt": cfg.dt,
        "mode": cfg.mode,
        "max_xi_deviation": report.max_xi_deviation,
        "min_eta": report.min_eta,
        "max_eta": report.max_eta,
        "final_r": report.final.r,
        "final_energy": report.final.energy,
    }
    if report.final_errors is not None:
        summary["final_err_l2"], summary["final_err_h1"], summary["final_err_h2"] = report.final_errors
    _write_summary(out, summary)


def _failed(exc: SavError) -> int:
    """Print a failure's message on stderr and return its exit code; a bad
    setting is a configuration error under the key that carries it."""
    if isinstance(exc, SettingError):
        exc = ConfigError(f"key '{_KEY_OF_SETTING.get(exc.setting, exc.setting)}': {exc}")
    print(f"config error: {exc}" if isinstance(exc, ConfigError) else exc, file=sys.stderr)
    return exc.exit_code


def execute(cfg: RunConfig) -> None:
    """Run the configured experiment and write its artifacts; a failure is raised,
    for `main` to report."""
    executor = {"converge": _execute_converge, "stability": _execute_stability,
                "burgers": _execute_burgers}.get(cfg.experiment, _execute_run)
    executor(cfg, Path(cfg.out))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, not exit 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; parsing leaves it unchanged."""
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
    """Parse, run and return the exit code: the one place a failure is reported."""
    try:
        args = _parser().parse_args(argv)
        execute(parse_config(args.config, {k: v for k, v in vars(args).items() if k != "config"}))
    except SavError as exc:
        return _failed(exc)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

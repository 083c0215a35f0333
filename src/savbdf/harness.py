"""Experiment drivers: convergence studies, stability probes, scheme comparison.

A convergence study integrates a manufactured problem over a ladder of step
sizes and fits the slope of log(error) against log(dt) per Sobolev norm.
A stability probe hammers an unforced problem with large steps from seeded
random smooth data and checks the scalar-variable invariants.  The Burgers
comparison pits the corrected scheme against its plain implicit-explicit
baseline on an under-resolved shock layer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import ProblemDefinition
from .spectral import Basis, Field, Grid, SettingError, _check_positive, _integer, _real
from .stepper import (MAX_STEPS, DivergenceError, RunReport, Scheme, StepMode, advance, exact_errors,
                      run, step_count)
from .tableau import tableau

__all__ = [
    "ConvergenceEntry",
    "ConvergenceReport",
    "StabilityResult",
    "BurgersComparison",
    "fit_rate",
    "default_dt_ladder",
    "check_dt_ladder",
    "burgers_horizon",
    "convergence_study",
    "stability_probe",
    "burgers_compare",
    "random_smooth_field",
    "ERROR_FLOOR",
]

#: errors at or below this are treated as rounding floor and excluded from fits
ERROR_FLOOR = 1e-11

#: largest band-limited mode index of the random probe data
RANDOM_FIELD_MAX_MODE = 8


def fit_rate(points) -> float:
    """Least-squares slope of log(err) vs log(dt) over (dt, err) pairs."""
    pts = [(_real("points", dt), _real("points", err)) for dt, err in points]
    if len(pts) < 2:
        raise SettingError("points", "rate fit needs at least two points")
    if not all(0 < dt < math.inf and 0 < err < math.inf for dt, err in pts):  # false for nan too
        raise SettingError("points", "rate fit needs finite positive dt and err values")
    if len({dt for dt, _ in pts}) != len(pts):
        raise SettingError("points", "rate fit needs distinct dt values")
    log_dt, log_err = np.log(pts).T
    return float(np.polyfit(log_dt, log_err, 1)[0])


def default_dt_ladder(order: int) -> tuple[float, ...]:
    """Step-size ladders used for the order-verification studies.

    High orders hit the rounding floor quickly, so they get coarser ladders;
    order 5 starts one halving below order 4 because its dt = 1/10 point is
    still pre-asymptotic in the second-derivative norm.
    """
    if (order := _integer("order", order)) <= 3:
        return (1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640)
    if order == 4:
        return (1 / 10, 1 / 20, 1 / 40, 1 / 80)
    return (1 / 20, 1 / 40, 1 / 80)


def check_dt_ladder(dt_list, T: float, order: int) -> tuple[float, ...]:
    """The ladder as floats; raises SettingError on `dt_list` (on `T` for a bad T)
    unless it has at least three strictly decreasing entries, each dividing T
    into at least `order` steps."""
    dts = tuple(_real("dt_list", dt) for dt in dt_list)
    if len(dts) < 3:
        raise SettingError("dt_list", "a convergence study needs at least three dt values")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise SettingError("dt_list", "dt ladder must be strictly decreasing")
    for dt in dts:
        _step_count_on("dt_list", dt, T, order)
    return dts


def _step_count_on(name: str, dt: float, T: float, order: int) -> int:
    """`step_count`, its SettingError on `dt` raised again on `name`."""
    try:
        return step_count(dt, T, order)
    except SettingError as exc:
        if exc.setting != "dt":
            raise
        raise SettingError(name, str(exc)) from None


@dataclass(frozen=True)
class ConvergenceEntry:
    """One rung of a study: its errors at T, all None where the rung diverged."""

    dt: float
    err_l2: Optional[float]
    err_h1: Optional[float]
    err_h2: Optional[float]


@dataclass
class ConvergenceReport:
    entries: list[ConvergenceEntry]
    slopes: dict[str, Optional[float]]


def _fit_norm(entries: list[ConvergenceEntry], attr: str) -> Optional[float]:
    pts = [(e.dt, err) for e in entries  # a diverged entry's errors are None
           if (err := getattr(e, attr)) is not None and math.isfinite(err) and err > ERROR_FLOOR]
    return fit_rate(pts) if len(pts) >= 2 else None


def convergence_study(problem: ProblemDefinition, order: int, dt_list=None,
                      T: float = 1.0) -> ConvergenceReport:
    """Run the order-`order` scheme over a dt ladder and fit error slopes.

    Requires an attached exact solution; an entry that diverges holds None
    errors and is excluded from the fit, as are errors at the rounding floor.
    A rung is an unrecorded `advance`, measured at T alone:
    `run(...).final_errors` bit for bit.
    """
    if problem.exact is None:
        raise SettingError("problem", "convergence_study requires a problem with an exact solution")
    tab = tableau(order)
    dts = check_dt_ladder(dt_list if dt_list is not None else default_dt_ladder(order), T, order)

    def one_case(dt: float) -> ConvergenceEntry:
        try:
            final = advance(problem, Scheme(tab, dt), T)
        except DivergenceError:
            return ConvergenceEntry(dt, None, None, None)
        return ConvergenceEntry(dt, *exact_errors(problem, final))

    entries = [one_case(dt) for dt in dts]
    slopes = {norm: _fit_norm(entries, f"err_{norm}") for norm in ("l2", "h1", "h2")}
    return ConvergenceReport(entries, slopes)


def random_smooth_field(grid: Grid, seed: int = 0) -> Field:
    """Seeded zero-mean band-limited random field, normalized to unit variance.

    Coefficients on modes up to RANDOM_FIELD_MAX_MODE are drawn with unit variance, then
    the sampled field is rescaled to pointwise standard deviation one, which
    keeps the stress data at phase-field amplitudes.  Zero mean by
    construction, so a conserved mean stays at exactly zero.
    """
    if (seed := _integer("seed", seed)) < 0:
        raise SettingError("seed", f"seed must be non-negative, got {seed!r}")
    rng = np.random.default_rng(seed)
    if grid.basis is Basis.FOURIER2D:
        nx, ny = grid.extents
        coeffs = np.zeros((nx, ny // 2 + 1), dtype=complex)
        span = min(RANDOM_FIELD_MAX_MODE, nx // 2 - 1, ny // 2 - 1)
        re = rng.normal(0.0, math.sqrt(0.5), size=(2 * span + 1, span + 1))
        im = rng.normal(0.0, math.sqrt(0.5), size=(2 * span + 1, span + 1))
        coeffs[np.arange(-span, span + 1) % nx, : span + 1] = re + 1j * im  # row mx: mode mx
        coeffs[0, 0] = 0.0
        # Hermitian symmetry of the self-conjugate column
        coeffs[nx - np.arange(1, span + 1), 0] = np.conj(coeffs[1 : span + 1, 0])
    else:
        n = grid.extents[0]
        span = min(RANDOM_FIELD_MAX_MODE, n)
        coeffs = np.zeros(n)
        coeffs[:span] = rng.normal(0.0, 1.0, size=span)
    raw = Field.from_spectral(grid, coeffs)
    sd = float(np.std(raw.values))
    return raw if sd == 0.0 else (1.0 / sd) * raw


@dataclass
class StabilityResult:
    """Outcome of a large-step stress run of an unforced problem; it passed when
    `violations` is empty."""

    report: RunReport
    violations: list[str]


def stability_probe(problem: ProblemDefinition, order: int, dt: float, n_steps: int,
                    seed: int = 0, u0: Field | None = None) -> StabilityResult:
    """Run n_steps at a deliberately large dt and check the scheme invariants.

    The scalar invariants hold by construction: on an unforced problem the
    step's closed form cannot grow r or turn it negative (`_sav_update`), and
    xi = r / E with E > 0.  The probe checks what the step does not: the
    principal quadratic (L u, u) staying within 10x the largest value seen
    over the first ten steps, a rule that a zero early value holds to as well:
    any growth from it is a violation.  Settings are checked before any work.
    """
    if problem.forcing is not None:
        raise SettingError("problem", "stability_probe requires an unforced problem")
    tab = tableau(order)
    if not order <= (n_steps := _integer("n_steps", n_steps)) <= MAX_STEPS:
        raise SettingError("n_steps", f"n_steps must cover the order-{order} startup and stay "
                                      f"within the step cap, {order}..{MAX_STEPS}; got {n_steps!r}")
    if not 0 < n_steps * _real("dt", dt) < math.inf:  # n_steps >= 1, so dt too; false for nan
        raise SettingError("dt", f"dt and n_steps * dt must be positive and finite, got {dt!r}")
    if u0 is None:
        u0 = random_smooth_field(problem.grid, seed=seed)
    report = run(problem, Scheme(tab, dt), n_steps * dt, u0)

    violations: list[str] = []
    sup_all = report.sup_principal
    sup_head = report.sup_principal_first10
    if sup_all > 10.0 * sup_head:
        violations.append(
            f"principal norm grew beyond 10x its early value: {sup_all:g} vs {sup_head:g}"
        )

    return StabilityResult(report=report, violations=violations)


@dataclass
class BurgersComparison:
    """Corrected vs plain implicit-explicit scheme against a fine reference;
    `u_imex` is None where the baseline diverged."""

    x: np.ndarray
    u_ref: np.ndarray
    u_sav: np.ndarray
    u_imex: Optional[np.ndarray]
    deviation_sav: float
    deviation_imex: float
    overshoot_sav: float
    overshoot_imex: float
    sav_report: RunReport


def burgers_horizon(dt: float, dt_ref: float, T: float, order: int) -> tuple[float, float]:
    """The Burgers comparison's end time and its reference's step size.

    dt need not divide T (the benchmark step does not): the compared runs
    end at the step boundary nearest T, at least `order` steps in, and the
    reference takes the step nearest dt_ref, no coarser than dt, that lands
    on the same endpoint.  Both step counts go through `step_count` (the
    reference's named `dt_ref`), so a bad step raises SettingError before any run starts.
    """
    # an infinite dt_ref would round to the compared run, its own reference
    for name, value in (("dt", dt), ("T", T), ("dt_ref", dt_ref)):
        _check_positive(name, value)
    # an infinite ratio cannot be rounded: clamped, it fails the cap instead
    order = tableau(order).order  # a bad order is its SettingError, before n_cmp can take it
    n_cmp = max(round(min(T / dt, sys.float_info.max)), order)
    t_end = n_cmp * dt
    step_count(dt, t_end, order)
    n_ref = max(round(min(t_end / dt_ref, sys.float_info.max)), n_cmp)
    dt_ref_eff = t_end / n_ref
    _step_count_on("dt_ref", dt_ref_eff, t_end, order)
    return t_end, dt_ref_eff


def burgers_compare(problem: ProblemDefinition, dt: float = 8.5e-3, dt_ref: float = 1e-4,
                    T: float = 1.0, order: int = 2) -> BurgersComparison:
    """Shock-layer comparison of `problem`, on a SINE1D grid, from u(x, 0) = -sin(pi x).

    The reference is the corrected scheme at dt_ref (see `burgers_horizon`).
    Divergence of the baseline is an admissible outcome, not raised: `u_imex`
    is None and its deviation and overshoot are inf.  The reference and the
    baseline, read only at T, `advance` with no records; the corrected run's
    trace is `sav_report`.  The overshoots are relative to the reference's
    peak, which needs at least 2 modes (the one interior point of a 1-mode
    grid is x = 0, where the data and the reference are 0) and must not decay
    to exactly zero (a huge nu): else SettingError.
    """
    grid = problem.grid
    if grid.basis is not Basis.SINE1D:
        raise SettingError("problem", "the comparison needs a problem on a SINE1D grid")
    if grid.extents[0] < 2:
        raise SettingError("grid", f"the comparison needs at least 2 modes, got {grid.extents[0]}")
    tab = tableau(order)
    t_end, dt_ref_eff = burgers_horizon(dt, dt_ref, T, order)
    (x,) = grid.points
    u0 = Field.from_physical(grid, -np.sin(np.pi * x))

    u_ref = advance(problem, Scheme(tab, dt_ref_eff), t_end, u0).u_history[0].values
    ref_peak = float(np.max(np.abs(u_ref)))
    if ref_peak == 0.0:
        raise SettingError("nu", "the reference decayed to zero, so the overshoots are undefined")
    sav = run(problem, Scheme(tab, dt), t_end, u0)
    u_sav = sav.final_state.u_history[0].values
    dev_sav = float(np.max(np.abs(u_sav - u_ref)))
    over_sav = float(np.max(np.abs(u_sav))) / ref_peak

    # the baseline diverges by raising, or by finite coefficients within a
    # factor of the mode count of the largest float, whose transform overflows
    try:
        u_imex = advance(problem, Scheme(tab, dt, StepMode.IMEX), t_end, u0).u_history[0].values
    except DivergenceError:
        u_imex = None
    if u_imex is None or not np.all(np.isfinite(u_imex)):
        u_imex, dev_imex, over_imex = None, math.inf, math.inf
    else:
        dev_imex = float(np.max(np.abs(u_imex - u_ref)))
        over_imex = float(np.max(np.abs(u_imex))) / ref_peak

    return BurgersComparison(
        x=x,
        u_ref=u_ref,
        u_sav=u_sav,
        u_imex=u_imex,
        deviation_sav=dev_sav,
        deviation_imex=dev_imex,
        overshoot_sav=over_sav,
        overshoot_imex=over_imex,
        sav_report=sav,
    )

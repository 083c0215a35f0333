"""The semi-implicit BDFk time loop with the scalar-auxiliary-variable correction.

One step advances (u^n histories, r^n) by, in order:

1. linear solve for the uncorrected update
       (alpha_k/dt + A) ubar^{n+1} = A_k(u^n)/dt - g[B_k(u^n)] + f(t^{n+1})
2. scalar update (closed form, division preserves positivity in floating point)
       r^{n+1} = (r^n + dt * (dE/du(ubar^{n+1}), f(t^{n+1})))
                 / (1 + dt * K(ubar^{n+1}) / E(ubar^{n+1}))
   The work term vanishes for unforced problems, where the update is exactly
   the discrete energy law and is monotone:  r^{n+1} <= r^n,  r^{n+1} >= 0.
3. xi^{n+1} = r^{n+1} / E(ubar^{n+1})
4. u^{n+1} = eta * ubar^{n+1}  with  eta = 1 - (1 - xi^{n+1})**p.

IMEX mode skips 2-4 (eta == 1), giving the classical implicit-explicit BDFk
baseline.  The extrapolated nonlinear term consumes the corrected history:
of the two interchangeable variants (feeding g with ubar- or with u-history,
identical order and identical scalar stability), only the corrected one keeps
the uncorrected iterate representable in floating point at very large steps,
because the solution correction then bounds what enters the cubic term.  The
state keeps the last uncorrected iterate ubar for diagnostics only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .problems import ProblemDefinition
from .spectral import Field, sobolev_norm, solve_shifted
from .tableau import MAX_ORDER, BdfTableau, combine_history, tableau

__all__ = [
    "StepMode",
    "SavState",
    "StepRecord",
    "RunReport",
    "DivergenceError",
    "EnergyPositivityError",
    "MonotonicityError",
    "step",
    "initialize",
    "run",
    "step_count",
]

#: relative slack for the floating-point monotonicity check of r
MONOTONE_RTOL = 1e-14

#: substeps per startup level in the cascade initialization
CASCADE_SUBSTEPS = 8

#: the most steps one run may take; a step costs hundreds of microseconds,
#: so a run at the cap takes hours, while a tiny dt would otherwise step forever
MAX_STEPS = 10 ** 7


class StepMode(enum.Enum):
    SAV = "sav"
    IMEX = "imex"


class DivergenceError(RuntimeError):
    """A non-finite value appeared in the solution."""

    def __init__(self, step_index: int, what: str = "solution"):
        super().__init__(f"divergence detected at step {step_index}: non-finite {what}")
        self.step_index = step_index


class EnergyPositivityError(RuntimeError):
    """E(ubar) <= 0; impossible for well-formed problems (c_shift > 0)."""


class MonotonicityError(RuntimeError):
    """The unforced scalar update increased; impossible for the closed form."""

    def __init__(self, step_index: int, r_old: float, r_new: float):
        super().__init__(
            f"r increased at step {step_index}: {r_old!r} -> {r_new!r}"
        )
        self.step_index = step_index


class SavState(NamedTuple):
    """State after step n: corrected history (most recent first), last ubar, r.

    `u_history` keeps the newest MAX_ORDER levels whatever the order; a step
    of order k reads only the first k.  At a startup level `ubar` is that
    level's u.  Immutable; a tuple, so a step builds it cheaply.
    """

    step_index: int
    time: float
    u_history: tuple[Field, ...]
    ubar: Field
    r: float
    last_xi: float = 1.0
    last_eta: float = 1.0


def _sav_update(problem: ProblemDefinition, tab: BdfTableau, r: float, ubar: Field,
                t: float, dt: float, index: int) -> tuple[float, float, float]:
    """The closed-form scalar update along ubar at time t; returns (r, xi, eta)."""
    energy = problem.energy(ubar)
    if not energy > 0.0:
        raise EnergyPositivityError(
            f"E(ubar) = {energy!r} <= 0 at step {index}; check c_shift/potential"
        )
    kappa = problem.dissipation(ubar)
    work = problem.forcing_power(ubar, t)
    r_new = (r + dt * work) / (1.0 + dt * kappa / energy)
    if not math.isfinite(r_new):
        raise DivergenceError(index, "scalar variable")
    if not problem.is_forced and not 0.0 <= r_new <= r * (1.0 + MONOTONE_RTOL):
        raise MonotonicityError(index, r, r_new)
    xi = r_new / energy
    return r_new, xi, 1.0 - (1.0 - xi) ** tab.eta_exponent


def step(state: SavState, problem: ProblemDefinition, tab: BdfTableau, dt: float,
         mode: StepMode = StepMode.SAV) -> SavState:
    """Advance one step of size dt; returns the new state."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k = tab.order
    if len(state.u_history) < k:
        raise ValueError(
            f"order-{k} step needs {k} history levels, have {len(state.u_history)}"
        )
    next_index = state.step_index + 1
    t_next = state.time + dt

    # overflow in a diverging trajectory is detected by the finiteness
    # guards below, not reported as arithmetic warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # each history level holds values and coefficients (E(ubar) evaluated
        # ubar's values), so the drift combines coefficients, the input of the
        # solve, and the extrapolation values, the input of the pointwise F'
        alpha, a, b = tab.floats
        history = state.u_history[:k]
        drift = combine_history(a, [u.coeffs for u in history])
        extrapolated = Field(problem.grid, physical=combine_history(b, [u.values for u in history]))
        explicit = problem.nonlinear(extrapolated, t_next)
        rhs = Field(problem.grid, spectral=(1.0 / dt) * drift - explicit.coeffs)
        ubar = solve_shifted(alpha / dt, problem.linear_symbol, rhs)
        if not ubar.all_finite():
            raise DivergenceError(next_index, "uncorrected solution")

        if mode is StepMode.IMEX:
            u_new, r_new, xi, eta = ubar, state.r, 1.0, 1.0
        else:
            r_new, xi, eta = _sav_update(problem, tab, state.r, ubar, t_next, dt, next_index)
            u_new = eta * ubar
            if not u_new.all_finite():
                raise DivergenceError(next_index, "corrected solution")

    return SavState(next_index, t_next, (u_new,) + state.u_history[: MAX_ORDER - 1],
                    ubar, r_new, xi, eta)


def initialize(problem: ProblemDefinition, tab: BdfTableau, dt: float,
               u0: Field | None = None, mode: StepMode = StepMode.SAV,
               record_sink: Optional[list] = None) -> SavState:
    """Build a state with the k-1 startup levels filled.

    With an exact solution attached, startup levels are exact samples
    (u^i = ubar^i = u(t^i)) and r is advanced through the scalar update along
    them.  Otherwise a cascade start is used: level i is produced by
    CASCADE_SUBSTEPS substeps of size dt/CASCADE_SUBSTEPS at order i, run as
    one continuous fine trajectory so each stage has enough fine history.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if u0 is None:
        if problem.exact is None:
            raise ValueError("u0 is required for problems without an exact solution")
        u0 = problem.exact.field(0.0)
    r = problem.energy(u0)
    state = fine = SavState(0, 0.0, (u0,), u0, r)
    if record_sink is not None:
        record_sink.append(_make_record(problem, state))
    for level in range(1, tab.order):
        t = level * dt
        if problem.exact is not None:
            u = problem.exact.field(t)
            r, xi, eta = state.r, 1.0, 1.0
            if mode is StepMode.SAV:
                r, xi, eta = _sav_update(problem, tab, r, u, t, dt, level)
        else:
            sub_tab = tableau(level)
            for _ in range(CASCADE_SUBSTEPS):
                fine = step(fine, problem, sub_tab, dt / CASCADE_SUBSTEPS, mode)
            u, r, xi, eta = fine.u_history[0], fine.r, fine.last_xi, fine.last_eta
        state = SavState(level, t, (u,) + state.u_history, u, r, xi, eta)
        if record_sink is not None:
            record_sink.append(_make_record(problem, state))
    return state


class StepRecord(NamedTuple):
    """Per-step diagnostics; error columns are None without an exact solution.

    Immutable; a tuple, so the record costs little to build.
    """

    step: int
    t: float
    r: float
    xi: float
    eta: float
    energy: float
    principal_norm_sq: float
    mean: float
    err_l2: Optional[float] = None
    err_h1: Optional[float] = None
    err_h2: Optional[float] = None


def _make_record(problem: ProblemDefinition, state: SavState) -> StepRecord:
    u = state.u_history[0]
    # near an impending divergence the diagnostics may overflow to inf;
    # they are trace data, not control flow
    with np.errstate(over="ignore", invalid="ignore"):
        err_l2 = err_h1 = err_h2 = None
        if problem.exact is not None:
            diff = u - problem.exact.field(state.time)
            err_l2 = sobolev_norm(diff, 0.0)
            err_h1 = sobolev_norm(diff, 1.0)
            err_h2 = sobolev_norm(diff, 2.0)
        return StepRecord(
            step=state.step_index,
            t=state.time,
            r=state.r,
            xi=state.last_xi,
            eta=state.last_eta,
            energy=problem.energy(u),
            principal_norm_sq=problem.principal_norm_sq(u),
            mean=u.mean(),
            err_l2=err_l2,
            err_h1=err_h1,
            err_h2=err_h2,
        )


@dataclass
class RunReport:
    """Trace and summary of one run; records are monotone in t."""

    problem: str
    order: int
    dt: float
    records: list[StepRecord]
    final_state: SavState

    @property
    def final(self) -> StepRecord:
        return self.records[-1]

    @property
    def max_xi_deviation(self) -> float:
        return max(abs(1.0 - rec.xi) for rec in self.records)

    @property
    def min_eta(self) -> float:
        return min(rec.eta for rec in self.records)

    @property
    def max_eta(self) -> float:
        return max(rec.eta for rec in self.records)

    @property
    def min_r(self) -> float:
        return min(rec.r for rec in self.records)

    @property
    def min_xi(self) -> float:
        return min(rec.xi for rec in self.records)

    @property
    def sup_principal(self) -> float:
        return max(rec.principal_norm_sq for rec in self.records)

    def sup_principal_first(self, n: int = 10) -> float:
        return max(rec.principal_norm_sq for rec in self.records[: max(n, 1)])

    @property
    def monotone_violations(self) -> int:
        """Steps where r grew beyond the floating-point slack."""
        count = 0
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.r > prev.r * (1.0 + MONOTONE_RTOL):
                count += 1
        return count

    @property
    def mean_drift(self) -> float:
        """Largest excursion of the field mean from its initial value."""
        base = self.records[0].mean
        return max(abs(rec.mean - base) for rec in self.records)

    @property
    def final_errors(self) -> Optional[tuple[float, float, float]]:
        rec = self.final
        if rec.err_l2 is None:
            return None
        return (rec.err_l2, rec.err_h1, rec.err_h2)


def step_count(dt: float, T: float, order: int) -> int:
    """Steps of size dt to reach T; T must be a whole number of steps of dt,
    enough to host the order-`order` startup and at most MAX_STEPS."""
    if not (math.isfinite(dt) and math.isfinite(T)):
        raise ValueError(f"dt and T must be finite, got dt = {dt!r}, T = {T!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T <= 0:
        raise ValueError("T must be positive")
    if T / dt >= MAX_STEPS + 0.5:  # round(T / dt) > MAX_STEPS, with no rounding of an inf
        raise ValueError(f"dt = {dt} takes more than MAX_STEPS = {MAX_STEPS} steps to reach T = {T}")
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(abs(T), 1.0):
        raise ValueError(f"dt = {dt} does not divide T = {T} into whole steps")
    if n_steps < order:
        raise ValueError(f"run of {n_steps} steps cannot host an order-{order} startup")
    return n_steps


def run(problem: ProblemDefinition, tab: BdfTableau, dt: float, T: float,
        mode: StepMode = StepMode.SAV, u0: Field | None = None) -> RunReport:
    """Integrate to t = T, recording per-step diagnostics.

    T must be an integer multiple of dt covering at least the startup levels.
    Returns the report of a finished run; a non-finite value raises
    DivergenceError, whose step_index is the step it appeared in.
    """
    n_steps = step_count(dt, T, tab.order)
    records: list[StepRecord] = []
    state = initialize(problem, tab, dt, u0=u0, mode=mode, record_sink=records)
    while state.step_index < n_steps:
        state = step(state, problem, tab, dt, mode)
        records.append(_make_record(problem, state))
    return RunReport(problem.name, tab.order, dt, records, state)

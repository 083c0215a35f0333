"""The semi-implicit BDFk time loop with the scalar-auxiliary-variable correction.

One step advances (u^n histories, r^n) by, in order:

1. linear solve for the uncorrected update
       (alpha_k/dt + A) ubar^{n+1} = A_k(u^n)/dt - g[B_k(u^n)] + f(t^{n+1})
2. scalar update (closed form, division preserves positivity in floating point)
       r^{n+1} = (r^n + dt * (dE/du(ubar^{n+1}), f(t^{n+1})))
                 / (1 + dt * K(ubar^{n+1}) / E(ubar^{n+1}))
   The work term vanishes for unforced problems, where the update is exactly
   the discrete energy law and is monotone:  r^{n+1} <= r^n,  r^{n+1} >= 0.
   Where E(ubar) overflows there, r^{n+1} takes its limit 0, so xi = eta = 0 and u = 0.
3. xi^{n+1} = r^{n+1} / E(ubar^{n+1})
4. u^{n+1} = eta * ubar^{n+1}  with  eta = 1 - (1 - xi^{n+1})**p.

IMEX mode skips 2-4 (eta == 1), giving the classical implicit-explicit BDFk
baseline.  The extrapolated nonlinear term consumes the corrected history:
of the two interchangeable variants (feeding g with ubar- or with u-history,
identical order and identical scalar stability), only the corrected one keeps
the uncorrected iterate representable in floating point at very large steps,
because the solution correction then bounds what enters the cubic term.  The
state keeps the last uncorrected iterate ubar for diagnostics only.
Every level, u0 and the exact startup samples included, enters the state through one guard:
a non-finite level raises DivergenceError at its index, and a level below ZERO_LEVEL in
magnitude is stored as the problem's one zero level, `ProblemDefinition.zero_update`'s, with
the same records.  A step whose levels are all that object, unforced and without transport,
is at the equilibrium u = 0: no solve, and the test is an identity check.  Its r, xi and eta
still come from the scalar update, bit for bit the full step's, since the cascade start
switches tableau between levels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .problems import ProblemDefinition
from .spectral import (Field, GridMismatchError, SavError, SettingError, _check_positive,
                       sobolev_norm, solve_shifted)
from .tableau import MAX_ORDER, BdfTableau, combine_history, tableau

__all__ = [
    "StepMode",
    "SavState",
    "StepRecord",
    "RunReport",
    "DivergenceError",
    "step",
    "initialize",
    "advance",
    "run",
    "exact_errors",
    "step_count",
]

#: relative slack with which `RunReport.monotone_violations` counts a growth of r
MONOTONE_RTOL = 1e-14

#: substeps per startup level in the cascade initialization
CASCADE_SUBSTEPS = 8

#: the most steps one run may take; a step costs hundreds of microseconds,
#: so a run at the cap takes hours, while a tiny dt would otherwise step forever
MAX_STEPS = 10 ** 7

#: a new level below this magnitude (2^-970, the smallest normal over eps) is stored as
#: exact zeros: its quadratic terms underflow to 0 anyway, and no later step meets a subnormal
ZERO_LEVEL = float(np.finfo(float).tiny / np.finfo(float).eps)


class StepMode(enum.Enum):
    SAV = "sav"
    IMEX = "imex"


class DivergenceError(SavError, RuntimeError):
    """A non-finite value appeared in the solution."""

    exit_code = 3

    def __init__(self, step_index: int, what: str = "solution"):
        super().__init__(f"divergence detected at step {step_index}: non-finite {what}")
        self.step_index = step_index


class SavState(NamedTuple):
    """State after step n: corrected history (most recent first), last ubar, r,
    the last update's xi and eta, and E(u) and (L u, u) of the newest level u.

    `u_history` keeps the newest MAX_ORDER levels whatever the order; a step
    of order k reads only the first k.  At a startup level `ubar` is that
    level's u.  Immutable; a tuple, so a step builds it cheaply.
    """

    step_index: int
    time: float
    u_history: tuple[Field, ...]
    ubar: Field
    r: float
    last_xi: float
    last_eta: float
    energy: float
    principal_norm_sq: float


def _sav_update(problem: ProblemDefinition, tab: BdfTableau, r: float, update: tuple,
                dt: float, index: int) -> tuple[float, float, float, tuple]:
    """The closed-form scalar update from `ProblemDefinition.update_terms` along ubar;
    returns (r, xi, eta) and ubar's terms for `ProblemDefinition.scaled_energy`.

    Unforced, the work is 0 and r^{n+1} = r^n / (1 + dt K / E) lies in [0, r^n] for any dt
    with no check.  K is a weighted sum of w |c|^2 with w >= 0, so it is >= 0, inf or nan.
    E(ubar) is read only after ubar passed its finiteness scan, so it lies in
    [c_shift |Omega|, inf].  So the divisor is >= 1 or nan: a non-negative r divided by a
    float >= 1 does not grow in IEEE arithmetic, and a nan r^{n+1} raises
    DivergenceError("scalar variable").
    """
    energy, kappa, work, terms = update
    r_new = (r + dt * work) / (1.0 + dt * kappa / energy)
    if not math.isfinite(r_new):
        if problem.forcing is not None or energy != math.inf:
            raise DivergenceError(index, "scalar variable")
        r_new = 0.0  # inf/inf at an overflowed E: xi = 0 for any r_new in [0, r]; 0 is the limit
    xi = r_new / energy
    try:  # a huge finite xi overflows the float power, which raises rather than give inf
        return r_new, xi, 1.0 - (1.0 - xi) ** tab.eta_exponent, terms
    except OverflowError:
        raise DivergenceError(index, "correction factor") from None


def _checked_level(problem: ProblemDefinition, u: Field, s: float, peak: float, index: int,
                   what: str) -> Field:
    """s u given its largest |entry| `peak`: the problem's zero level below ZERO_LEVEL,
    DivergenceError if not finite."""
    if not math.isfinite(peak):
        raise DivergenceError(index, what)
    return problem.zero_update[0] if peak < ZERO_LEVEL else u if s == 1.0 else s * u


@np.errstate(over="ignore", invalid="ignore")
def step(state: SavState, problem: ProblemDefinition, tab: BdfTableau, dt: float,
         mode: StepMode = StepMode.SAV) -> SavState:
    """Advance one step of size dt; returns the new state.  Overflow in a diverging
    trajectory raises DivergenceError at a finiteness guard, not an arithmetic warning."""
    _check_positive("dt", dt)
    k = tab.order
    if len(state.u_history) < k:
        raise SettingError("state", f"order-{k} step needs {k} history levels, have {len(state.u_history)}")
    next_index = state.step_index + 1
    t_next = state.time + dt
    alpha, a, b = tab.floats
    if (shift := alpha / dt) == math.inf:  # the solve's; then 1/dt <= shift is finite too
        raise SettingError("dt", f"a step of {dt!r} is too small: alpha_k/dt overflows")

    history = state.u_history[:k]
    if (state.principal_norm_sq == 0.0 and problem.forcing is None and problem.transport is None
            and all(u is problem.zero_update[0] for u in history)):
        # the equilibrium u = 0, as F'(0) = 0 and lam 0 = 0: ubar is the problem's zero
        # level, whose update terms it built once, and the new level is zeros again
        (ubar, update), peak = problem.zero_update, 0.0
    else:
        # each history level holds values and coefficients (E(ubar) evaluated
        # ubar's values), so the drift combines coefficients, the input of the
        # solve, and the extrapolation values, the input of the pointwise F'
        f = None if problem.forcing is None else problem.forcing(t_next)  # for g - f and the work
        if k == 1:  # a = b = (1,): no combination; u's values are read without a copy, into a
            # values-only field, so that a transport transforms them as it does a combination
            drift = history[0].coeffs * (1.0 / dt)
            extrapolated = Field(problem.grid, physical=history[0].values)
        else:
            drift = combine_history(a, [u.coeffs for u in history])
            extrapolated = Field(problem.grid, physical=combine_history(b, [u.values for u in history]))
            drift *= 1.0 / dt  # the combination is a new array: the right-hand side in place
        drift -= problem.nonlinear(extrapolated, f).coeffs
        ubar = solve_shifted(shift, problem.linear_symbol, Field(problem.grid, spectral=drift),
                             overwrite_rhs=True)
        update = None if mode is StepMode.IMEX else problem.update_terms(ubar, f)
        peak = ubar.max_abs()  # after the update: ubar's values on a phase field
    if not math.isfinite(peak):
        raise DivergenceError(next_index, "uncorrected solution")
    if mode is StepMode.IMEX:
        r_new, xi, eta = state.r, 1.0, 1.0
        terms = problem.energy_terms(ubar)[0] if update is None else update[3]
    else:
        r_new, xi, eta, terms = _sav_update(problem, tab, state.r, update, dt, next_index)
    # max|fl(eta v)| = fl(|eta| max|v|), as rounding is monotone and odd: no second scan
    u_new = _checked_level(problem, ubar, eta, abs(eta) * peak, next_index, "corrected solution")
    if eta == 0.0:  # u = 0: the zero level's terms, as 0 times an overflowed term of ubar is nan
        terms = problem.zero_update[1][3]
    energy, principal = problem.scaled_energy(terms, eta)  # of u = eta ubar, from ubar's terms

    return SavState(next_index, t_next, (u_new,) + state.u_history[: MAX_ORDER - 1],
                    ubar, r_new, xi, eta, energy, principal)


@np.errstate(over="ignore", invalid="ignore")
def initialize(problem: ProblemDefinition, tab: BdfTableau, dt: float,
               u0: Field | None = None, mode: StepMode = StepMode.SAV,
               record_sink: Optional[list] = None) -> SavState:
    """Build a state with the k-1 startup levels filled.

    With an exact solution attached, startup levels are exact samples
    (u^i = ubar^i = u(t^i)) and r is advanced through the scalar update along
    them.  Otherwise a cascade start is used: level i is produced by
    CASCADE_SUBSTEPS substeps of size dt/CASCADE_SUBSTEPS at order i, run as
    one continuous fine trajectory so each stage has enough fine history.
    Every level's E(u) and (L u, u) are evaluated on that level.  As in `step`,
    overflow reads inf or raises DivergenceError, not an arithmetic warning.
    """
    _check_positive("dt", dt)
    if u0 is None:
        if problem.exact is None:
            raise SettingError("u0", "u0 is required for problems without an exact solution")
        u0 = problem.exact.field(0.0)
    elif u0.grid != problem.grid:
        raise GridMismatchError(f"u0 lives on {u0.grid}, the problem on {problem.grid}")
    u0 = _checked_level(problem, u0, 1.0, u0.max_abs(), 0, "solution")
    r, principal = problem.scaled_energy(problem.energy_terms(u0)[0], 1.0)
    state = fine = SavState(0, 0.0, (u0,), u0, r, 1.0, 1.0, r, principal)
    if record_sink is not None:
        record_sink.append(_make_record(problem, state))
    for level in range(1, tab.order):
        t = level * dt
        if problem.exact is not None:
            u = problem.exact.field(t)
            u = _checked_level(problem, u, 1.0, u.max_abs(), level, "solution")
            r, xi, eta, terms = state.r, 1.0, 1.0, None
            if mode is StepMode.SAV:  # the update's terms are u's own: eta is not applied to u
                f = None if problem.forcing is None else problem.forcing(t)
                r, xi, eta, terms = _sav_update(problem, tab, r, problem.update_terms(u, f), dt, level)
        else:
            sub_tab = tableau(level)
            for _ in range(CASCADE_SUBSTEPS):  # a substep's error names the level it builds
                fine = step(fine._replace(step_index=level - 1), problem, sub_tab,
                            dt / CASCADE_SUBSTEPS, mode)
            u, r, xi, eta, terms = fine.u_history[0], fine.r, fine.last_xi, fine.last_eta, None
        energy, principal = problem.scaled_energy(terms or problem.energy_terms(u)[0], 1.0)
        state = SavState(level, t, (u,) + state.u_history, u, r, xi, eta, energy, principal)
        if record_sink is not None:
            record_sink.append(_make_record(problem, state))
    return state


class StepRecord(NamedTuple):
    """Per-step diagnostics, an immutable tuple that costs little to build;
    the error columns are None without an exact solution."""

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


def exact_errors(problem: ProblemDefinition, state: SavState) -> Optional[tuple[float, float, float]]:
    """(L2, H1, H2) norms of u - exact(t) at the state; None without an exact solution."""
    if problem.exact is None:
        return None
    # near an impending divergence the diagnostics may overflow to inf;
    # they are trace data, not control flow
    with np.errstate(over="ignore", invalid="ignore"):
        diff = state.u_history[0] - problem.exact.field(state.time)
        return sobolev_norm(diff, 0.0), sobolev_norm(diff, 1.0), sobolev_norm(diff, 2.0)


def _make_record(problem: ProblemDefinition, state: SavState) -> StepRecord:
    """The state's record: its scalars, the mean of its newest level and its exact errors."""
    index, time, history, _, r, xi, eta, energy, principal = state
    errors = () if problem.exact is None else exact_errors(problem, state)
    return StepRecord(index, time, r, xi, eta, energy, principal, history[0].mean(), *errors)


@dataclass
class RunReport:
    """Trace and summary of one run; records are monotone in t."""

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

    @property
    def sup_principal_first10(self) -> float:
        """The largest (L u, u) over the first ten records: the stability probe's baseline."""
        return max(rec.principal_norm_sq for rec in self.records[:10])

    @property
    def monotone_violations(self) -> int:
        """Steps where r grew beyond the floating-point slack.  On an unforced run it reads 0
        by construction (`_sav_update`); it is kept for the summary's key."""
        return sum(cur.r > prev.r * (1.0 + MONOTONE_RTOL)
                   for prev, cur in zip(self.records, self.records[1:]))

    @property
    def mean_drift(self) -> float:
        """Largest excursion of the field mean from its initial value."""
        base = self.records[0].mean
        return max(abs(rec.mean - base) for rec in self.records)

    @property
    def final_errors(self) -> Optional[tuple[float, float, float]]:
        rec = self.final
        return None if rec.err_l2 is None else (rec.err_l2, rec.err_h1, rec.err_h2)


def step_count(dt: float, T: float, order: int) -> int:
    """Steps of size dt to reach T; T must be a whole number of steps of dt,
    enough to host the order-`order` startup and at most MAX_STEPS.  A
    SettingError names `T` for a bad T alone, else `dt`."""
    _check_positive("dt", dt)
    _check_positive("T", T)
    if T / dt >= MAX_STEPS + 0.5:  # round(T / dt) > MAX_STEPS, with no rounding of an inf
        raise SettingError("dt", f"dt = {dt} takes more than MAX_STEPS = {MAX_STEPS} steps "
                                 f"to reach T = {T}")
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * T:
        raise SettingError("dt", f"dt = {dt} does not divide T = {T} into whole steps")
    if n_steps < order:
        raise SettingError("dt", f"run of {n_steps} steps cannot host an order-{order} startup")
    return n_steps


def advance(problem: ProblemDefinition, tab: BdfTableau, dt: float, T: float,
            mode: StepMode = StepMode.SAV, u0: Field | None = None,
            record_sink: Optional[list] = None) -> SavState:
    """Integrate to t = T, a whole number (at least the order) of steps of dt.

    Every level's StepRecord, startup included, goes to record_sink if given;
    without one the loop computes no diagnostic.  Records never feed back into
    the state.  A non-finite value raises DivergenceError at its step_index.
    """
    n_steps = step_count(dt, T, tab.order)
    state = initialize(problem, tab, dt, u0=u0, mode=mode, record_sink=record_sink)
    while state.step_index < n_steps:
        state = step(state, problem, tab, dt, mode)
        if record_sink is not None:
            record_sink.append(_make_record(problem, state))
    return state


def run(problem: ProblemDefinition, tab: BdfTableau, dt: float, T: float,
        mode: StepMode = StepMode.SAV, u0: Field | None = None) -> RunReport:
    """`advance` to t = T, recording every level: for runs whose trace is read."""
    records: list[StepRecord] = []
    state = advance(problem, tab, dt, T, mode, u0, records)
    return RunReport(records, state)

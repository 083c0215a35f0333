"""The semi-implicit BDFk time loop with the scalar-auxiliary-variable correction.

One step advances (u^n histories, r^n) by, in order:

1. linear solve for the uncorrected update
       (alpha_k/dt + A) ubar^{n+1} = A_k(u^n)/dt - g[B_k(u^n)] + f(t^{n+1})
2. scalar update (closed form, division preserves positivity in floating point)
       r^{n+1} = (r^n + dt * (dE/du(ubar^{n+1}), f(t^{n+1})))
                 / (1 + dt * K(ubar^{n+1}) / E(ubar^{n+1}))
   The work term vanishes for unforced problems, where the update is exactly
   the discrete energy law and is monotone:  r^{n+1} <= r^n,  r^{n+1} >= 0.
   Where E(ubar) overflows there, r^{n+1} takes its limit 0, so xi = eta = 0 and u = 0,
   whose E(u) `ProblemDefinition.scaled_energy` forms at s = 0 without ubar's terms.
3. xi^{n+1} = r^{n+1} / E(ubar^{n+1})
4. u^{n+1} = eta * ubar^{n+1}  with  eta = 1 - (1 - xi^{n+1})**p.

A run's tableau, dt and mode are one `Scheme`, checked when it is built, so
a step reads them and checks none.

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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .problems import ProblemDefinition
from .spectral import Field, SavError, SettingError, _check_positive, _integer, sobolev_norm, solve_shifted
from .tableau import MAX_ORDER, BdfTableau, combine_history, tableau

__all__ = [
    "StepMode",
    "Scheme",
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


@dataclass(frozen=True)
class Scheme:
    """The scheme of a run: the order-k tableau `tab`, the step `dt`, the `mode`, and
    `shift` = alpha_k/dt, the shift of every solve.  Building one is the one place
    these settings are checked: tab a BdfTableau, dt positive and finite (held as a
    Python float, so the shift and every level's time are float64), the mode a StepMode
    member or its value "sav" or "imex" (held as its member), and a finite shift, else
    SettingError on `tab`, `dt` or `mode`.  So a step checks none of them.  Immutable;
    `dataclasses.replace` builds a new scheme through the same checks.
    """

    tab: BdfTableau
    dt: float
    mode: StepMode = StepMode.SAV
    shift: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.tab, BdfTableau):
            raise SettingError("tab", f"tab must be a BdfTableau, got {type(self.tab).__name__}")
        _check_positive("dt", self.dt)
        dt = float(self.dt)
        mode = StepMode(m) if isinstance(m := self.mode, str) and m in ("sav", "imex") else m
        if mode is not StepMode.SAV and mode is not StepMode.IMEX:
            raise SettingError("mode", "mode must be a StepMode or its value 'sav' or 'imex'")
        if (shift := self.tab.floats[0] / dt) == math.inf:  # then 1/dt <= shift is finite too
            raise SettingError("dt", f"a step of {self.dt!r} is too small: alpha_k/dt overflows")
        vars(self).update(dt=dt, mode=mode, shift=shift)  # the frozen class's own __setattr__ refuses


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


def _sav_update(problem: ProblemDefinition, scheme: Scheme, r: float, update: tuple,
                index: int) -> tuple[float, float, float, tuple]:
    """The closed-form scalar update from `ProblemDefinition.update_terms` along ubar, at
    the scheme's dt and p; returns (r, xi, eta) and ubar's terms for
    `ProblemDefinition.scaled_energy`.

    Unforced, the work is 0 and r^{n+1} = r^n / (1 + dt K / E) lies in [0, r^n] for any dt
    with no check.  K is a weighted sum of w |c|^2 with w >= 0, so it is >= 0, inf or nan.
    E(ubar) is read only after ubar passed its finiteness scan, so it lies in
    [c_shift |Omega|, inf].  So the divisor is >= 1 or nan: a non-negative r divided by a
    float >= 1 does not grow in IEEE arithmetic, and a nan r^{n+1} raises
    DivergenceError("scalar variable").
    """
    energy, kappa, work, terms = update
    r_new = (r + scheme.dt * work) / (1.0 + scheme.dt * kappa / energy)
    if not math.isfinite(r_new):
        if problem.forcing is not None or energy != math.inf:
            raise DivergenceError(index, "scalar variable")
        r_new = 0.0  # inf/inf at an overflowed E: xi = 0 for any r_new in [0, r]; 0 is the limit
    xi = r_new / energy
    try:  # a huge finite xi overflows the float power, which raises rather than give inf
        return r_new, xi, 1.0 - (1.0 - xi) ** scheme.tab.eta_exponent, terms
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
def step(state: SavState, problem: ProblemDefinition, scheme: Scheme) -> SavState:
    """Advance one step of the scheme; returns the new state.  The scheme's settings were
    checked when it was built, so the step checks only that the state holds k levels.
    At every order the drift and the extrapolation are `combine_history` combinations,
    new arrays, so the history the step reads stays unchanged.  Overflow in a diverging
    trajectory raises DivergenceError at a finiteness guard, not an arithmetic warning."""
    k, dt = scheme.tab.order, scheme.dt
    if len(state.u_history) < k:
        raise SettingError("state", f"order-{k} step needs {k} history levels, have {len(state.u_history)}")
    next_index = state.step_index + 1
    t_next = state.time + dt
    _, a, b = scheme.tab.floats

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
        drift = combine_history(a, [u.coeffs for u in history])
        extrapolated = Field(problem.grid, physical=combine_history(b, [u.values for u in history]))
        drift *= 1.0 / dt  # the combination is a new array: the right-hand side in place
        drift -= problem.nonlinear(extrapolated, f).coeffs
        ubar = solve_shifted(scheme.shift, problem.linear_symbol, Field(problem.grid, spectral=drift),
                             overwrite_rhs=True)
        update = (problem.energy_terms(ubar)[:1] if scheme.mode is StepMode.IMEX
                  else problem.update_terms(ubar, f))  # in both modes ending in ubar's terms
        peak = ubar.max_abs()  # after the terms: ubar's values on a phase field, in both modes
    if not math.isfinite(peak):
        raise DivergenceError(next_index, "uncorrected solution")
    if scheme.mode is StepMode.IMEX:
        r_new, xi, eta, terms = state.r, 1.0, 1.0, update[-1]
    else:
        r_new, xi, eta, terms = _sav_update(problem, scheme, state.r, update, next_index)
    # max|fl(eta v)| = fl(|eta| max|v|), as rounding is monotone and odd: no second scan
    u_new = _checked_level(problem, ubar, eta, abs(eta) * peak, next_index, "corrected solution")
    energy, principal = problem.scaled_energy(terms, eta)  # of u = eta ubar, from ubar's terms

    return SavState(next_index, t_next, (u_new,) + state.u_history[: MAX_ORDER - 1],
                    ubar, r_new, xi, eta, energy, principal)


@np.errstate(over="ignore", invalid="ignore")
def initialize(problem: ProblemDefinition, scheme: Scheme, u0: Field | None = None,
               record_sink: Optional[list] = None) -> SavState:
    """Build a state with the k-1 startup levels filled.

    With an exact solution attached, startup levels are exact samples
    (u^i = ubar^i = u(t^i)) and r is advanced through the scalar update along
    them.  Otherwise a cascade start is used: level i is produced by
    CASCADE_SUBSTEPS substeps of size dt/CASCADE_SUBSTEPS at order i, run as
    one continuous fine trajectory so each stage has enough fine history.
    Every level's E(u) and (L u, u) are evaluated on that level.  As in `step`,
    overflow reads inf or raises DivergenceError, not an arithmetic warning.
    The cascade's schemes, one per startup level, are built before any work, so a
    substep too small for its scheme is a SettingError on the dt given.
    """
    try:
        cascade = [Scheme(tableau(level), scheme.dt / CASCADE_SUBSTEPS, scheme.mode)
                   for level in range(1, scheme.tab.order)] if problem.exact is None else []
    except SettingError:
        raise SettingError("dt", f"a step of {scheme.dt!r} is too small: alpha_k/dt overflows in its "
                                 f"startup substeps of dt/{CASCADE_SUBSTEPS}") from None
    if u0 is None:
        if problem.exact is None:
            raise SettingError("u0", "u0 is required for problems without an exact solution")
        u0 = problem.exact.field(0.0)
    elif u0.grid != problem.grid:
        raise SettingError("u0", f"u0 lives on {u0.grid}, the problem on {problem.grid}")
    u0 = _checked_level(problem, u0, 1.0, u0.max_abs(), 0, "solution")
    r, principal = problem.scaled_energy(problem.energy_terms(u0)[0], 1.0)
    state = fine = SavState(0, 0.0, (u0,), u0, r, 1.0, 1.0, r, principal)
    if record_sink is not None:
        record_sink.append(_make_record(problem, state))
    for level in range(1, scheme.tab.order):
        t = level * scheme.dt
        if problem.exact is not None:
            u = problem.exact.field(t)
            u = _checked_level(problem, u, 1.0, u.max_abs(), level, "solution")
            r, xi, eta, terms = state.r, 1.0, 1.0, None
            if scheme.mode is not StepMode.IMEX:  # the update's terms are u's own: eta is not applied to u
                f = None if problem.forcing is None else problem.forcing(t)
                r, xi, eta, terms = _sav_update(problem, scheme, r, problem.update_terms(u, f), level)
        else:
            for _ in range(CASCADE_SUBSTEPS):  # a substep's error names the level it builds
                fine = step(fine._replace(step_index=level - 1), problem, cascade[level - 1])
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
    SettingError names `T` for a bad T alone, `order` for an order that is
    not an integer, else `dt`."""
    _check_positive("dt", dt)
    return _whole_steps(dt, T, order)


def _whole_steps(dt: float, T: float, order: int) -> int:
    """`step_count` for a dt already checked positive and finite."""
    _check_positive("T", T)
    if T / dt >= MAX_STEPS + 0.5:  # round(T / dt) > MAX_STEPS, with no rounding of an inf
        raise SettingError("dt", f"dt = {dt} takes more than MAX_STEPS = {MAX_STEPS} steps "
                                 f"to reach T = {T}")
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * T:
        raise SettingError("dt", f"dt = {dt} does not divide T = {T} into whole steps")
    if n_steps < _integer("order", order):
        raise SettingError("dt", f"run of {n_steps} steps cannot host an order-{order} startup")
    return n_steps


def advance(problem: ProblemDefinition, scheme: Scheme, T: float, u0: Field | None = None,
            record_sink: Optional[list] = None) -> SavState:
    """Integrate the scheme to t = T, a whole number (at least the order) of steps of dt.

    Every level's StepRecord, startup included, goes to record_sink if given;
    without one the loop computes no diagnostic.  Records never feed back into
    the state.  A non-finite value raises DivergenceError at its step_index.
    """
    n_steps = _whole_steps(scheme.dt, T, scheme.tab.order)
    state = initialize(problem, scheme, u0, record_sink)
    while state.step_index < n_steps:
        state = step(state, problem, scheme)
        if record_sink is not None:
            record_sink.append(_make_record(problem, state))
    return state


def run(problem: ProblemDefinition, scheme: Scheme, T: float, u0: Field | None = None) -> RunReport:
    """`advance` to t = T, recording every level: for runs whose trace is read."""
    records: list[StepRecord] = []
    state = advance(problem, scheme, T, u0, records)
    return RunReport(records, state)

"""Dissipative model problems in one general form.

Every problem is

    u_t + G (L u + F'(u)) + T(u) = f(t),

given by a few diagonal symbols and pointwise maps: the principal symbol
L >= 0, the mobility symbol G >= 0, the potential F (the double well
F(u) = (u^2 - 1)^2 / 4, or none) and an optional transport term T that is
energy-neutral, (dE/du, T(u)) = 0.  From these the class derives

    E(u)   = 1/2 (L u, u) + integral F(u) dx + c_shift * |Omega|  > 0,
    dE/du  = L u + F'(u),
    K(u)   = (G dE/du, dE/du) >= 0,

so the unforced energy law is dE/dt = -K(u), and a forcing feeds the
energy at the rate (dE/du, f).

The scheme uses the normalized splitting u_t + A u + g(u) = f with the
implicit A = G (L + lam) and the explicit g(u) = G (F'(u) - lam u) + T(u),
nonlinear terms dealiased.  The stabilization lam >= 0 appears in both and
cancels in their sum: it changes only the splitting, never E, dE/du or K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .spectral import (Basis, Field, Grid, SettingError, _check_non_negative, _check_positive,
                       _to_spectral, _weighted_sum, dealias, inner, sine_derivative_values)
# unused here; bound for perfbench's call-site hooks
from .spectral import apply_symbol, integrate, pointwise_map, quadratic_form  # noqa: F401

__all__ = [
    "ProblemDefinition",
    "ExactSolution",
    "allen_cahn",
    "cahn_hilliard",
    "burgers",
    "scalar_decay",
    "with_manufactured_forcing",
    "exp_sine_product_solution",
    "double_well",
    "double_well_prime",
]


def double_well(v: np.ndarray) -> np.ndarray:
    """F(v) = (v^2 - 1)^2 / 4, the canonical phase-field potential."""
    return 0.25 * (v * v - 1.0) ** 2


def double_well_prime(v: np.ndarray) -> np.ndarray:
    """F'(v) = v^3 - v, as v (v^2 - 1): two multiplies, no call to pow, one new array."""
    w = v * v
    w -= 1.0
    w *= v
    return w


@dataclass(frozen=True)
class ExactSolution:
    """A closed-form space-time solution sampled onto a grid."""

    field: Callable[[float], Field]
    time_derivative: Callable[[float], Field]


@dataclass(frozen=True, eq=False)
class ProblemDefinition:
    """One dissipative system, immutable after construction.

    The fields are the data of the general form (module docstring); the
    splitting and the energy law are derived from them here, so the two
    cannot drift apart.  `has_double_well` selects F = `double_well`.
    Problems compare and hash by identity: the symbols are arrays, made
    read-only at construction (so a symbol handed in becomes read-only too),
    which lets the solve and the weighted symbols below be built once.

    Construction checks `c_shift` > 0 with c_shift |Omega| finite (so E > 0) and
    `stabilization` >= 0 finite, and that each symbol is a real, finite, non-negative
    array of the grid's spectral shape, each with a SettingError on its field.

    `energy_terms` alone makes a field's array passes and `scaled_energy`
    is the one formula for E; `update_terms(u, f)` adds dE/du, built once,
    for K and the work (dE/du, f).  It and `nonlinear(u, f)` take the value
    of f, or None: the step evaluates f(t) once.  `energy`, `principal_norm_sq`,
    `dissipation` and `forcing_power` are projections of these.
    """

    grid: Grid
    principal_symbol: np.ndarray
    mobility_symbol: np.ndarray
    c_shift: float
    stabilization: float = 0.0
    has_double_well: bool = False
    transport: Optional[Callable[[Field], Field]] = None
    forcing: Optional[Callable[[float], Field]] = None
    exact: Optional[ExactSolution] = None

    def __post_init__(self):
        _check_positive("c_shift", self.c_shift)
        if math.isinf(float(self.c_shift) * self.grid.volume):  # E(u) >= c_shift * |Omega|
            raise SettingError("c_shift", f"c_shift * |Omega| overflows, got {self.c_shift!r}")
        _check_non_negative("stabilization", self.stabilization)
        for name in ("principal_symbol", "mobility_symbol"):
            _read_only(_check_symbol(name, getattr(self, name), self.grid))

    @cached_property
    def linear_symbol(self) -> np.ndarray:
        """The implicit operator A = G (L + lam)."""
        return _read_only(self.mobility_symbol * (self.principal_symbol + self.stabilization))

    @cached_property
    def _gradient_symbol(self) -> np.ndarray:
        # L in the coefficient dtype, as it multiplies coefficients in dE/du
        return _read_only(self.principal_symbol.astype(self.grid.coeff_dtype))

    @cached_property
    def _weighted_principal(self) -> np.ndarray:
        # L times the conjugate-pair multiplicity: (L u, u) is one dot product
        return _read_only(self.grid._mult * self.principal_symbol)

    @cached_property
    def _weighted_mobility(self) -> np.ndarray:
        return _read_only(self.grid._mult * self.mobility_symbol)

    @cached_property
    def _dealiased_mobility(self) -> np.ndarray:
        # G after the dealiasing projection, applied to F'(u) - lam u in one pass
        return _read_only(self.mobility_symbol * self.grid.dealias_mask)

    @cached_property
    def zero_update(self) -> tuple[Field, tuple]:
        """The problem's one zero level, which the step stores for every collapsed level, and
        its unforced `update_terms`, for steps at the equilibrium u = 0."""
        zero = Field.zeros(self.grid)
        return zero, self.update_terms(zero, None)

    def nonlinear(self, u: Field, f: Optional[Field]) -> Field:
        """The explicit term of the normalized equation, g(u) - f with
        g(u) = G dealias(F'(u) - lam u) + T(u), on a new array; g(u) when f is None."""
        if self.has_double_well or self.stabilization:
            v = u.values
            well = double_well_prime(v) if self.has_double_well else 0.0
            if self.stabilization:
                well = well - self.stabilization * v
            c = _to_spectral(self.grid, well)
            c *= self._dealiased_mobility
        else:
            c = np.zeros(self.grid.spectral_shape, self.grid.coeff_dtype)
        if self.transport is not None:
            c += self.transport(u).coeffs
        if f is not None:
            c -= f.coeffs
        return Field(self.grid, spectral=c)

    def energy_terms(self, u: Field) -> tuple[tuple[float, float, float], Optional[np.ndarray]]:
        """(((L u, u), sum w, sum w^2), F'(u)'s values or None) from one w = u^2 - 1:
        sum w^2 is one dot product, and F'(u) = u w, formed in w after the sums,
        has the bits of `double_well_prime`.  The terms feed `scaled_energy`."""
        quad = _weighted_sum(self.grid, u.coeffs, self._weighted_principal)
        if not self.has_double_well:
            return (quad, 0.0, 0.0), None
        v = u.values
        w = v * v
        w -= 1.0
        sum_w, sum_w2 = float(np.add.reduce(w, axis=None)), float(np.vdot(w, w))  # w.sum(), unwrapped
        w *= v
        return (quad, sum_w, sum_w2), w

    def scaled_energy(self, terms: tuple, s: float) -> tuple[float, float]:
        """(E(s u), (L s u, s u)) from u's `energy_terms` terms, with no array pass:
        the one formula for E = 1/2 (L u, u) + integral F(u) + c_shift * |Omega|.

        With w = u^2 - 1, (s u)^2 - 1 = s^2 w + d for d = s^2 - 1, so
        integral F(s u) = 1/4 (cell (s^4 sum w^2 + 2 s^2 d sum w) + |Omega| d^2).
        At d = 0 the sum w term is skipped: it is 0, or nan where sum w overflowed.
        """
        quad, sum_w, sum_w2 = terms
        s2 = s * s
        quad = s2 * quad
        e = 0.5 * quad + self.c_shift * self.grid.volume
        if self.has_double_well:
            d = s2 - 1.0
            well = s2 * s2 * sum_w2
            if d != 0.0:
                well += 2.0 * s2 * d * sum_w
            e += 0.25 * (self.grid.cell_volume * well + self.grid.volume * d * d)
        return e, quad

    def update_terms(self, u: Field, f: Optional[Field]) -> tuple[float, float, float, tuple]:
        """(E(u), K(u), (dE/du, f) or 0 if f is None, terms): the scalar update's inputs
        along u, from `energy_terms` and dE/du = L u + dealias(F'(u)) (for Cahn-Hilliard
        the chemical potential), built once; terms feeds `scaled_energy`."""
        terms, prime = self.energy_terms(u)
        gradient = self._gradient_symbol * u.coeffs
        if prime is not None:
            well = _to_spectral(self.grid, prime)
            well *= self.grid.dealias_mask
            gradient += well
        kappa = _weighted_sum(self.grid, gradient, self._weighted_mobility)
        if math.isnan(kappa) and prime is not None and not np.isnan(prime).any():
            kappa = math.inf  # F'(u) overflowed, its transform formed inf - inf: K >= 0 overflowed
        work = 0.0 if f is None else inner(Field(self.grid, spectral=gradient), f)
        return self.scaled_energy(terms, 1.0)[0], kappa, work, terms

    def energy(self, u: Field) -> float:
        """E(u) = 1/2 (L u, u) + integral F(u) + c_shift * |Omega|."""
        return self.scaled_energy(self.energy_terms(u)[0], 1.0)[0]

    def principal_norm_sq(self, u: Field) -> float:
        """(L u, u), the quadratic energy part controlled by the integrator."""
        return self.energy_terms(u)[0][0]

    def dissipation(self, u: Field) -> float:
        """K(u) = (G dE/du, dE/du) >= 0, the decay rate of the unforced energy law."""
        return self.update_terms(u, None)[1]

    def forcing_power(self, u: Field, t: float) -> float:
        """(dE/du, f(t)): rate at which the forcing feeds the energy, 0 when unforced."""
        return self.update_terms(u, None if self.forcing is None else self.forcing(t))[2]


def _check_symbol(name: str, symbol, grid: Grid) -> np.ndarray:
    """The symbol, if it is a real array of the grid's spectral shape, finite and >= 0."""
    if not (isinstance(symbol, np.ndarray) and symbol.dtype.kind in "iuf"
            and symbol.shape == grid.spectral_shape and np.isfinite(symbol).all()
            and (symbol >= 0).all()):
        raise SettingError(name, f"{name} must be a real, finite, non-negative array "
                                 f"of shape {grid.spectral_shape}")
    return symbol


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_scale(name: str, value: float, grid: Grid) -> None:
    """`value` positive and finite, and its symbol `value` |k|^2 finite on the grid,
    also weighted by the conjugate-pair multiplicity, as the quadratic forms read it."""
    _check_positive(name, value)
    if math.isinf(float(value) * float((grid._mult.real * grid.k2).max())):
        raise SettingError(name, f"{name} * |k|^2 overflows on this grid, got {value!r}")


def _default_shift(grid: Grid, c_shift: float | None) -> float:
    # normalized so the constant energy offset c_shift * |Omega| equals 1
    return 1.0 / grid.volume if c_shift is None else float(c_shift)


def _phase_field(name: str, grid: Grid, alpha: float, stabilization: float,
                 c_shift: float | None, mobility: float | None = None) -> ProblemDefinition:
    """L = alpha |k|^2 with the double well; G = 1, or mobility |k|^2 when given.
    An A = G (L + lam) that overflows is a SettingError on the mobility, or on
    the stabilization where G = 1."""
    if grid.basis is not Basis.FOURIER2D:
        raise SettingError("grid", f"{name} requires a FOURIER2D grid")
    _check_scale("alpha", alpha, grid)
    if mobility is not None:
        _check_scale("mobility", mobility, grid)
    k2 = grid.k2
    problem = ProblemDefinition(
        grid=grid,
        principal_symbol=alpha * k2,
        mobility_symbol=np.ones_like(k2) if mobility is None else float(mobility) * k2,
        c_shift=_default_shift(grid, c_shift),
        stabilization=float(stabilization),
        has_double_well=True,
    )
    with np.errstate(over="ignore"):  # A is built here, once per problem
        if not np.isfinite(problem.linear_symbol).all():
            owner, value = ("stabilization", stabilization) if mobility is None else ("mobility", mobility)
            raise SettingError(owner, f"A = G (L + lam) overflows on this grid, got {owner} = {value!r}")
    return problem


def allen_cahn(grid: Grid, alpha: float = 1e-4, stabilization: float = 0.0,
               c_shift: float | None = None) -> ProblemDefinition:
    """Allen-Cahn:  u_t - alpha*Lap(u) + F'(u) = 0  on the periodic square.

    L = -alpha*Lap, G = 1; K(u) = ||mu||^2 with mu = -alpha*Lap(u) + F'(u).
    """
    return _phase_field("allen_cahn", grid, alpha, stabilization, c_shift)


def cahn_hilliard(grid: Grid, alpha: float = 0.04, mobility: float = 0.005,
                  stabilization: float = 0.0, c_shift: float | None = None) -> ProblemDefinition:
    """Cahn-Hilliard:  u_t = -m0*Lap(alpha*Lap(u) - F'(u))  on the periodic square.

    L = -alpha*Lap, G = -m0*Lap; K(u) = m0*||grad mu||^2 with the chemical
    potential mu = -alpha*Lap(u) + F'(u).  G annihilates constants, so the
    mean is conserved.
    """
    return _phase_field("cahn_hilliard", grid, alpha, stabilization, c_shift, mobility)


def _burgers_transport(u: Field) -> Field:
    # u*u_x, pseudospectral and dealiased; (u, u*u_x) = 0 with the walls
    return dealias(Field(u.grid, physical=u.values * sine_derivative_values(u)))


def burgers(grid: Grid, nu: float, c_shift: float | None = None) -> ProblemDefinition:
    """Viscous Burgers:  u_t - nu*u_xx + u*u_x = 0  with Dirichlet walls.

    L = identity, G = -nu*d_xx, T(u) = u*u_x; E(u) = ||u||^2/2 + const and
    K(u) = nu*||u_x||^2.
    """
    if grid.basis is not Basis.SINE1D:
        raise SettingError("grid", "burgers requires a SINE1D grid")
    _check_scale("nu", nu, grid)
    return ProblemDefinition(
        grid=grid,
        principal_symbol=np.ones_like(grid.k2),
        mobility_symbol=nu * grid.k2,
        c_shift=_default_shift(grid, c_shift),
        transport=_burgers_transport,
    )


def scalar_decay(rate: float = 1.0) -> ProblemDefinition:
    """The one-unknown system u' + rate*u = 0 with E = u^2/2 + 1, K = rate*u^2.

    L = 1 and G = rate on a single-mode sine grid whose basis function has
    unit L2 norm, so the field is its coefficient.  Carries the exact
    solution exp(-rate*t), which makes it the reference oracle
    for integrator order checks.
    """
    _check_non_negative("rate", rate)
    grid = Grid.sine1d(1)

    def sample(t: float) -> Field:
        return Field.from_spectral(grid, np.array([math.exp(-rate * t)]))

    def sample_dt(t: float) -> Field:
        return Field.from_spectral(grid, np.array([-rate * math.exp(-rate * t)]))

    return ProblemDefinition(
        grid=grid,
        principal_symbol=np.ones(1),
        mobility_symbol=np.array([float(rate)]),
        c_shift=_default_shift(grid, None),
        exact=ExactSolution(field=sample, time_derivative=sample_dt),
    )


def exp_sine_product_solution(grid: Grid) -> ExactSolution:
    """The separable analytic family  exp(sin(pi x) sin(pi y)) * sin(t).

    Periodic on the (0, 2)^2 square; zero at t = 0.  The profile's
    coefficients are computed once, so every sample carries both its values
    and its coefficients and costs no transform.
    """
    if grid.basis is not Basis.FOURIER2D:
        raise SettingError("grid", "this solution family lives on a FOURIER2D grid")
    x, y = grid.points
    profile = Field.from_physical(grid, np.exp(np.sin(np.pi * x) * np.sin(np.pi * y)))
    profile.coeffs  # the one transform; scalar multiples keep both representations

    def field(t: float) -> Field:
        return math.sin(t) * profile

    def time_derivative(t: float) -> Field:
        return math.cos(t) * profile

    return ExactSolution(field=field, time_derivative=time_derivative)


def with_manufactured_forcing(problem: ProblemDefinition) -> ProblemDefinition:
    """Attach `exp_sine_product_solution` and the forcing that makes it solve the system.

    The forcing is f(t) = u_t + A u + g(u) at the exact sample, through the
    scheme's own discrete operators, so the sampled trajectory satisfies the
    semidiscrete equation to rounding.  With u = sin t p, F' cubic and Gd the
    dealiased mobility, f(t) = cos t P + sin t (A - (lam + 1) Gd) P
    + sin^3 t Gd (p^3)^, P the profile's coefficients (no cubic term and no 1
    without the double well).  Both products are built once per problem, so
    f(t), a pure function of t, costs no transform.  Raises ValueError for a
    problem with transport, which does not separate so, and on a grid other
    than FOURIER2D, where the solution family does not live.
    """
    if problem.transport is not None:
        raise SettingError("problem", "manufactured forcing needs a problem without transport")
    exact = exp_sine_product_solution(problem.grid)
    profile = exact.time_derivative(0.0)  # cos 0 = 1: the profile itself
    gd, well = problem._dealiased_mobility, float(problem.has_double_well)
    linear = (problem.linear_symbol - (problem.stabilization + well) * gd) * profile.coeffs
    cubic = gd * Field.from_physical(problem.grid, profile.values ** 3).coeffs if well else None

    def forcing(t: float) -> Field:
        s = math.sin(t)
        c = math.cos(t) * profile.coeffs + s * linear
        if cubic is not None:
            c += s ** 3 * cubic
        return Field(problem.grid, spectral=c)

    return replace(problem, forcing=forcing, exact=exact)

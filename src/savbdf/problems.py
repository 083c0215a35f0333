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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .spectral import (
    Basis,
    Field,
    Grid,
    _weighted_sum,
    apply_symbol,
    dealias,
    inner,
    integrate,
    pointwise_map,
    quadratic_form,  # noqa: F401 -- unused here; bound for perfbench's call-site hooks
    sine_derivative_values,
)

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
    """F(v) = (v^2 - 1)^2 / 4, the canonical phase-field potential.

    Computed in one scratch array, with the operations of 0.25 * (v*v - 1)**2.
    """
    w = v * v
    w -= 1.0
    w *= w
    w *= 0.25
    return w


def double_well_prime(v: np.ndarray) -> np.ndarray:
    """F'(v) = v^3 - v, as v (v^2 - 1): two multiplies, no call to pow."""
    return v * (v * v - 1.0)


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

    For the last field seen the problem keeps dE/du and (L u, u), keyed by
    the field's identity, which fields as value types allow.  So K and the
    forcing power along one ubar share one dE/du, and the energy and the
    principal norm of one u share one quadratic form.
    """

    name: str
    grid: Grid
    principal_symbol: np.ndarray
    mobility_symbol: np.ndarray
    c_shift: float
    stabilization: float = 0.0
    has_double_well: bool = False
    transport: Optional[Callable[[Field], Field]] = None
    forcing: Optional[Callable[[float], Field]] = None
    exact: Optional[ExactSolution] = None
    # [(u, dE/du or None, (L u, u) or None)] for the last field u seen
    _field_terms: list = field(default_factory=lambda: [(None, None, None)],
                               init=False, repr=False)

    def __post_init__(self):
        _read_only(self.principal_symbol)
        _read_only(self.mobility_symbol)

    @cached_property
    def linear_symbol(self) -> np.ndarray:
        """The implicit operator A = G (L + lam)."""
        return _read_only(self.mobility_symbol * (self.principal_symbol + self.stabilization))

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

    @property
    def is_forced(self) -> bool:
        return self.forcing is not None

    def g_unforced(self, u: Field) -> Field:
        """The explicit term g(u) = G dealias(F'(u) - lam u) + T(u)."""
        if self.has_double_well or self.stabilization:
            v = u.values
            well = double_well_prime(v) if self.has_double_well else 0.0
            if self.stabilization:
                well = well - self.stabilization * v
            g = apply_symbol(self._dealiased_mobility, Field.from_physical(self.grid, well))
        else:
            g = Field(self.grid, spectral=np.zeros(self.grid.spectral_shape))
        return g if self.transport is None else g + self.transport(u)

    def nonlinear(self, u: Field, t: float) -> Field:
        """The full explicit term of the normalized equation: g(u) - f(t)."""
        g = self.g_unforced(u)
        return g if self.forcing is None else g - self.forcing(t)

    def _terms(self, u: Field) -> tuple:
        # the entry holds u, so its id cannot pass to another field while kept
        terms = self._field_terms[0]
        return terms if terms[0] is u else (u, None, None)

    def _quadratic(self, u: Field) -> float:
        """(L u, u), kept with the field."""
        _, grad, quad = self._terms(u)
        if quad is None:
            quad = float(_weighted_sum(u, self._weighted_principal))
            self._field_terms[0] = (u, grad, quad)
        return quad

    def energy(self, u: Field) -> float:
        """E(u) = 1/2 (L u, u) + integral F(u) + c_shift * |Omega|."""
        e = 0.5 * self._quadratic(u) + self.c_shift * self.grid.volume
        if self.has_double_well:
            e += integrate(pointwise_map(u, double_well))
        return e

    def energy_gradient(self, u: Field) -> Field:
        """dE/du = L u + dealias(F'(u)); for Cahn-Hilliard the chemical potential."""
        _, grad, quad = self._terms(u)
        if grad is None:
            c = self.principal_symbol * u.coeffs
            if self.has_double_well:
                well = Field(self.grid, physical=double_well_prime(u.values))
                c = c + well.coeffs * self.grid.dealias_mask
            grad = Field(self.grid, spectral=c)
            self._field_terms[0] = (u, grad, quad)
        return grad

    def dissipation(self, u: Field) -> float:
        """K(u) = (G dE/du, dE/du) >= 0, the decay rate of the unforced energy law."""
        return float(_weighted_sum(self.energy_gradient(u), self._weighted_mobility))

    def principal_norm_sq(self, u: Field) -> float:
        """(L u, u), the quadratic energy part controlled by the integrator."""
        return self._quadratic(u)

    def forcing_power(self, u: Field, t: float) -> float:
        """(dE/du, f(t)): rate at which the forcing feeds the energy."""
        if self.forcing is None:
            return 0.0
        return inner(self.energy_gradient(u), self.forcing(t))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _default_shift(grid: Grid, c_shift: float | None) -> float:
    # normalized so the constant energy offset c_shift * |Omega| equals 1
    return 1.0 / grid.volume if c_shift is None else float(c_shift)


def _phase_field(name: str, grid: Grid, alpha: float, stabilization: float,
                 c_shift: float | None, mobility: float | None = None) -> ProblemDefinition:
    """L = alpha |k|^2 with the double well; G = 1, or mobility |k|^2 when given."""
    if grid.basis is not Basis.FOURIER2D:
        raise ValueError(f"{name} requires a FOURIER2D grid")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if mobility is not None and mobility <= 0:
        raise ValueError("mobility must be positive")
    if stabilization < 0:
        raise ValueError("stabilization must be non-negative")
    k2 = grid.k2
    return ProblemDefinition(
        name=name,
        grid=grid,
        principal_symbol=alpha * k2,
        mobility_symbol=np.ones_like(k2) if mobility is None else float(mobility) * k2,
        c_shift=_default_shift(grid, c_shift),
        stabilization=float(stabilization),
        has_double_well=True,
    )


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
    return dealias(Field.from_physical(u.grid, u.values * sine_derivative_values(u)))


def burgers(grid: Grid, nu: float, c_shift: float | None = None) -> ProblemDefinition:
    """Viscous Burgers:  u_t - nu*u_xx + u*u_x = 0  with Dirichlet walls.

    L = identity, G = -nu*d_xx, T(u) = u*u_x; E(u) = ||u||^2/2 + const and
    K(u) = nu*||u_x||^2.
    """
    if grid.basis is not Basis.SINE1D:
        raise ValueError("burgers requires a SINE1D grid")
    if nu <= 0:
        raise ValueError("nu must be positive")
    return ProblemDefinition(
        name="burgers",
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
    if rate < 0:
        raise ValueError("rate must be non-negative")
    grid = Grid.sine1d(1)

    def sample(t: float) -> Field:
        return Field.from_spectral(grid, np.array([math.exp(-rate * t)]))

    def sample_dt(t: float) -> Field:
        return Field.from_spectral(grid, np.array([-rate * math.exp(-rate * t)]))

    return ProblemDefinition(
        name="scalar_decay",
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
        raise ValueError("this solution family lives on a FOURIER2D grid")
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

    The forcing is assembled on the grid through the same discrete operators
    as the scheme, f(t) = u_t(t) + A u(t) + g(u(t)), so the sampled exact
    trajectory satisfies the semidiscrete equation to rounding.  The exact
    samples carry their coefficients, so the sum is formed in coefficient
    space, and a rebuild costs the one forward transform of g.  Raises
    ValueError on a grid other than FOURIER2D, where the solution family
    does not live.
    """
    exact = exp_sine_product_solution(problem.grid)
    cache: dict[float, Field] = {}

    def forcing(t: float) -> Field:
        hit = cache.get(t)
        if hit is not None:
            return hit
        u = exact.field(t)
        f = exact.time_derivative(t) + apply_symbol(problem.linear_symbol, u) + problem.g_unforced(u)
        cache.clear()
        cache[t] = f
        return f

    return replace(problem, forcing=forcing, exact=exact)

"""Dissipative model problems in the normalized form  u_t + A u + g(u) = f(t).

Each problem supplies the diagonal symbol of the positive linear operator A,
the nonlinear term g, the energy

    E(u) = 1/2 (L u, u) + integral G(u) dx + c_shift * |Omega|  > 0,

the dissipation rate K(u) >= 0 of the unforced energy law dE/dt = -K(u),
and the variational derivative dE/du used both inside K and for the power
injected by a forcing term.  The double well F(u) = (u^2 - 1)^2 / 4 with
g = F' is used throughout, so G = F >= 0 and E is strictly positive.

A `stabilization` parameter lam moves a multiple of the identity (Allen-Cahn)
or of -Laplacian (Cahn-Hilliard) from the explicit nonlinear term into the
implicit solve; the two contributions cancel in the PDE, so it only changes
the splitting, not the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .spectral import (
    Basis,
    Field,
    Grid,
    apply_symbol,
    dealias,
    inner,
    integrate,
    pointwise_map,
    quadratic_form,
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
    """F(v) = (v^2 - 1)^2 / 4, the canonical phase-field potential."""
    return 0.25 * (v * v - 1.0) ** 2


def double_well_prime(v: np.ndarray) -> np.ndarray:
    """F'(v) = v^3 - v."""
    return v ** 3 - v


@dataclass(frozen=True)
class ExactSolution:
    """A closed-form space-time solution sampled onto a grid."""

    field: Callable[[float], Field]
    time_derivative: Callable[[float], Field]


@dataclass(frozen=True)
class ProblemDefinition:
    """One dissipative system, immutable after construction.

    `g_unforced` evaluates plain g(u); `nonlinear(u, t)` subtracts the
    forcing when one is attached.  `energy_gradient` is the unforced
    variational derivative dE/du (for Cahn-Hilliard: the chemical potential,
    whose gradient drives the flux).
    """

    name: str
    grid: Grid
    linear_symbol: np.ndarray
    principal_symbol: np.ndarray
    g_unforced: Callable[[Field], Field]
    energy_gradient: Callable[[Field], Field]
    dissipation_fn: Callable[[Field], float]
    potential: Optional[Callable[[np.ndarray], np.ndarray]]
    c_shift: float
    forcing: Optional[Callable[[float], Field]] = None
    exact: Optional[ExactSolution] = None

    @property
    def is_forced(self) -> bool:
        return self.forcing is not None

    def nonlinear(self, u: Field, t: float) -> Field:
        """The full explicit term of the normalized equation: g(u) - f(t)."""
        g = self.g_unforced(u)
        return g if self.forcing is None else g - self.forcing(t)

    def energy(self, u: Field) -> float:
        """E(u) = 1/2 (L u, u) + integral G(u) + c_shift * |Omega|."""
        e = 0.5 * quadratic_form(self.principal_symbol, u) + self.c_shift * self.grid.volume
        if self.potential is not None:
            e += integrate(pointwise_map(u, self.potential))
        return e

    def dissipation(self, u: Field) -> float:
        """K(u) >= 0, the decay rate of the unforced energy law."""
        return self.dissipation_fn(u)

    def principal_norm_sq(self, u: Field) -> float:
        """(L u, u), the quadratic energy part controlled by the integrator."""
        return quadratic_form(self.principal_symbol, u)

    def forcing_power(self, u: Field, t: float) -> float:
        """(dE/du, f(t)): rate at which the forcing feeds the energy."""
        if self.forcing is None:
            return 0.0
        return inner(self.energy_gradient(u), self.forcing(t))


def _default_shift(grid: Grid, c_shift: float | None) -> float:
    # normalized so the constant energy offset c_shift * |Omega| equals 1
    return 1.0 / grid.volume if c_shift is None else float(c_shift)


def allen_cahn(grid: Grid, alpha: float = 1e-4, stabilization: float = 0.0,
               c_shift: float | None = None) -> ProblemDefinition:
    """Allen-Cahn:  u_t - alpha*Lap(u) + F'(u) = 0  on a periodic rectangle.

    Normalized splitting: A = -alpha*Lap + lam, g(u) = F'(u) - lam*u,
    L = A, K(u) = ||dE/du||^2 with dE/du = -alpha*Lap(u) + F'(u).
    """
    if grid.basis is not Basis.FOURIER2D:
        raise ValueError("allen_cahn requires a FOURIER2D grid")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if stabilization < 0:
        raise ValueError("stabilization must be non-negative")
    lam = float(stabilization)
    k2 = grid.k2
    a_sym = alpha * k2 + lam
    diff_sym = alpha * k2  # -alpha*Lap, the lam-independent part

    def g_unforced(u: Field) -> Field:
        v = u.values
        return dealias(Field.from_physical(grid, double_well_prime(v) - lam * v))

    def grad_e(u: Field) -> Field:
        return apply_symbol(diff_sym, u) + dealias(pointwise_map(u, double_well_prime))

    def diss(u: Field) -> float:
        mu = grad_e(u)
        return inner(mu, mu)

    return ProblemDefinition(
        name="allen_cahn",
        grid=grid,
        linear_symbol=a_sym,
        principal_symbol=a_sym,
        g_unforced=g_unforced,
        energy_gradient=grad_e,
        dissipation_fn=diss,
        potential=double_well,
        c_shift=_default_shift(grid, c_shift),
    )


def cahn_hilliard(grid: Grid, alpha: float = 0.04, mobility: float = 0.005,
                  stabilization: float = 0.0, c_shift: float | None = None) -> ProblemDefinition:
    """Cahn-Hilliard:  u_t = -m0*Lap(alpha*Lap(u) - F'(u))  on a periodic rectangle.

    Normalized splitting: A = m0*(alpha*Lap^2 - lam*Lap),
    g(u) = -m0*Lap(F'(u) - lam*u) applied spectrally, L = -alpha*Lap + lam
    (the H1-type principal energy), K(u) = m0*||grad mu||^2 with the chemical
    potential mu = -alpha*Lap(u) + F'(u).
    """
    if grid.basis is not Basis.FOURIER2D:
        raise ValueError("cahn_hilliard requires a FOURIER2D grid")
    if alpha <= 0 or mobility <= 0:
        raise ValueError("alpha and mobility must be positive")
    if stabilization < 0:
        raise ValueError("stabilization must be non-negative")
    lam = float(stabilization)
    m0 = float(mobility)
    k2 = grid.k2
    a_sym = m0 * (alpha * k2 ** 2 + lam * k2)
    l_sym = alpha * k2 + lam
    diff_sym = alpha * k2

    def g_unforced(u: Field) -> Field:
        v = u.values
        core = dealias(Field.from_physical(grid, double_well_prime(v) - lam * v))
        return apply_symbol(m0 * k2, core)  # -m0*Lap acting on the core term

    def chem_potential(u: Field) -> Field:
        return apply_symbol(diff_sym, u) + dealias(pointwise_map(u, double_well_prime))

    def diss(u: Field) -> float:
        return m0 * quadratic_form(k2, chem_potential(u))  # m0*||grad mu||^2

    return ProblemDefinition(
        name="cahn_hilliard",
        grid=grid,
        linear_symbol=a_sym,
        principal_symbol=l_sym,
        g_unforced=g_unforced,
        energy_gradient=chem_potential,
        dissipation_fn=diss,
        potential=double_well,
        c_shift=_default_shift(grid, c_shift),
    )


def burgers(grid: Grid, nu: float, c_shift: float | None = None) -> ProblemDefinition:
    """Viscous Burgers:  u_t - nu*u_xx + u*u_x = 0  with Dirichlet walls.

    A = -nu*d_xx, g(u) = u*u_x (pseudospectral, dealiased), L = identity so
    E(u) = ||u||^2/2 + const and K(u) = nu*||u_x||^2.
    """
    if grid.basis is not Basis.SINE1D:
        raise ValueError("burgers requires a SINE1D grid")
    if nu <= 0:
        raise ValueError("nu must be positive")
    k2 = grid.k2
    a_sym = nu * k2
    identity = np.ones_like(k2)

    def g_unforced(u: Field) -> Field:
        ux = sine_derivative_values(u)
        return dealias(Field.from_physical(grid, u.values * ux))

    def diss(u: Field) -> float:
        return nu * quadratic_form(k2, u)  # nu*||u_x||^2

    return ProblemDefinition(
        name="burgers",
        grid=grid,
        linear_symbol=a_sym,
        principal_symbol=identity,
        g_unforced=g_unforced,
        energy_gradient=lambda u: u,
        dissipation_fn=diss,
        potential=None,
        c_shift=_default_shift(grid, c_shift),
    )


def scalar_decay(rate: float = 1.0, amplitude: float = 1.0) -> ProblemDefinition:
    """The one-unknown system u' + rate*u = 0 with E = u^2/2 + 1, K = rate*u^2.

    Realized on a single-mode sine grid whose basis function has unit L2
    norm, so the field is its coefficient.  Carries the exact solution
    amplitude * exp(-rate*t), which makes it the reference oracle for
    integrator order checks.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    grid = Grid.sine1d(1)
    symbol = np.array([float(rate)])
    identity = np.ones(1)

    def sample(t: float) -> Field:
        return Field.from_spectral(grid, np.array([amplitude * math.exp(-rate * t)]))

    def sample_dt(t: float) -> Field:
        return Field.from_spectral(grid, np.array([-rate * amplitude * math.exp(-rate * t)]))

    zero = Field.from_spectral(grid, np.zeros(1))

    return ProblemDefinition(
        name="scalar_decay",
        grid=grid,
        linear_symbol=symbol,
        principal_symbol=identity,
        g_unforced=lambda u: zero,
        energy_gradient=lambda u: u,
        dissipation_fn=lambda u: rate * quadratic_form(identity, u),
        potential=None,
        c_shift=_default_shift(grid, None),
        exact=ExactSolution(field=sample, time_derivative=sample_dt),
    )


def exp_sine_product_solution(grid: Grid) -> ExactSolution:
    """The separable analytic family  exp(sin(pi x) sin(pi y)) * sin(t).

    Periodic on the default (0,2)^2 rectangle; zero at t = 0.
    """
    if grid.basis is not Basis.FOURIER2D:
        raise ValueError("this solution family lives on a FOURIER2D grid")
    x, y = grid.points
    profile = np.exp(np.sin(np.pi * x) * np.sin(np.pi * y))

    def field(t: float) -> Field:
        return Field.from_physical(grid, profile * math.sin(t))

    def time_derivative(t: float) -> Field:
        return Field.from_physical(grid, profile * math.cos(t))

    return ExactSolution(field=field, time_derivative=time_derivative)


def with_manufactured_forcing(problem: ProblemDefinition,
                              exact: ExactSolution | None = None) -> ProblemDefinition:
    """Attach an exact solution and the forcing that makes it solve the system.

    The forcing is assembled on the grid through the same discrete operators
    as the scheme, f(t) = u_t(t) + A u(t) + g(u(t)), so the sampled exact
    trajectory satisfies the semidiscrete equation to rounding.
    """
    if exact is None:
        if problem.grid.basis is Basis.FOURIER2D:
            exact = exp_sine_product_solution(problem.grid)
        else:
            raise ValueError("no default exact solution for this grid; pass one explicitly")

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

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

from .spectral import (Basis, Field, Grid, _check_non_negative, _check_positive, _to_spectral,
                       _weighted_sum, dealias, inner, sine_derivative_values)
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
    """F'(v) = v^3 - v, as v (v^2 - 1): two multiplies, no call to pow."""
    w = v * v - 1.0
    w *= v
    return w


def _well_terms(v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(F'(v), sum w, sum w^2) from one array w = v*v - 1, where F(v) = w^2 / 4.

    F' = v w, formed in w after the sums, has the bits of `double_well_prime`.
    The sums give the potential's integral at v and, in closed form, at any
    multiple of v; sum w^2 is one dot product, with no array of squares, as
    in `ProblemDefinition.energy`.
    """
    w = v * v
    w -= 1.0
    sum_w, sum_w2 = float(w.sum()), float(np.vdot(w, w))
    w *= v
    return w, sum_w, sum_w2


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

    Construction checks `c_shift` > 0 (so E > 0) and `stabilization` >= 0,
    both finite, each with a SettingError on its field.

    `energy`, `dissipation`, `principal_norm_sq` and `forcing_power` each
    evaluate their field afresh.  `update_terms` builds what the scalar
    update needs of one field, each term once, and `scaled_energy` gives
    E(eta ubar) from its terms with no array pass.
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

    def __post_init__(self):
        _check_positive("c_shift", self.c_shift)
        _check_non_negative("stabilization", self.stabilization)
        _read_only(self.principal_symbol)
        _read_only(self.mobility_symbol)

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

    @property
    def is_forced(self) -> bool:
        return self.forcing is not None

    def g_unforced(self, u: Field) -> Field:
        """The explicit term g(u) = G dealias(F'(u) - lam u) + T(u), on a new array."""
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
        return Field(self.grid, spectral=c)

    def nonlinear(self, u: Field, t: float) -> Field:
        """The full explicit term of the normalized equation: g(u) - f(t)."""
        g = self.g_unforced(u)
        if self.forcing is not None:
            c = g.coeffs  # g's own new array: f is subtracted in place
            c -= self.forcing(t).coeffs
        return g

    def energy(self, u: Field) -> float:
        """E(u) = 1/2 (L u, u) + integral F(u) + c_shift * |Omega|."""
        e = 0.5 * self.principal_norm_sq(u) + self.c_shift * self.grid.volume
        if self.has_double_well:
            w = u.values * u.values
            w -= 1.0
            # inf where scaled_energy(terms, 1) gives nan
            e += 0.25 * float(np.vdot(w, w)) * self.grid.cell_volume
        return e

    def scaled_energy(self, terms: tuple, s: float) -> tuple[float, float]:
        """(E(s u), (L s u, s u)) from u's `update_terms` terms, with no array pass.

        With w = u^2 - 1, (s u)^2 - 1 = s^2 w + d for d = s^2 - 1, so
        integral F(s u) = 1/4 (cell (s^4 sum w^2 + 2 s^2 d sum w) + |Omega| d^2).
        """
        quad, sum_w, sum_w2 = terms
        s2 = s * s
        quad = s2 * quad
        e = 0.5 * quad + self.c_shift * self.grid.volume
        if self.has_double_well:
            d = s2 - 1.0
            e += 0.25 * (self.grid.cell_volume * (s2 * s2 * sum_w2 + 2.0 * s2 * d * sum_w)
                         + self.grid.volume * d * d)
        return e, quad

    def _gradient(self, u: Field, prime: Optional[np.ndarray] = None) -> np.ndarray:
        """The coefficients of dE/du = L u + dealias(F'(u)), from F'(u)'s values
        when given; for Cahn-Hilliard the chemical potential."""
        c = self._gradient_symbol * u.coeffs
        if self.has_double_well:
            well = _to_spectral(self.grid, double_well_prime(u.values) if prime is None else prime)
            well *= self.grid.dealias_mask
            c += well
        return c

    def dissipation(self, u: Field) -> float:
        """K(u) = (G dE/du, dE/du) >= 0, the decay rate of the unforced energy law."""
        return _weighted_sum(self.grid, self._gradient(u), self._weighted_mobility)

    def principal_norm_sq(self, u: Field) -> float:
        """(L u, u), the quadratic energy part controlled by the integrator."""
        return _weighted_sum(self.grid, u.coeffs, self._weighted_principal)

    def forcing_power(self, u: Field, t: float) -> float:
        """(dE/du, f(t)): rate at which the forcing feeds the energy."""
        if self.forcing is None:
            return 0.0
        return inner(Field(self.grid, spectral=self._gradient(u)), self.forcing(t))

    def update_terms(self, u: Field, t: float) -> tuple[float, float, float, tuple]:
        """(E(u), K(u), (dE/du, f(t)), terms): the scalar update's inputs along u,
        each term built once, with the bits of `energy`, `dissipation` and
        `forcing_power`; terms = ((L u, u), sum w, sum w^2) feeds `scaled_energy`."""
        quad = _weighted_sum(self.grid, u.coeffs, self._weighted_principal)
        energy = 0.5 * quad + self.c_shift * self.grid.volume
        prime, sum_w, sum_w2 = None, 0.0, 0.0
        if self.has_double_well:
            prime, sum_w, sum_w2 = _well_terms(u.values)
            energy += 0.25 * sum_w2 * self.grid.cell_volume
        gradient = self._gradient(u, prime)
        kappa = _weighted_sum(self.grid, gradient, self._weighted_mobility)
        work = (0.0 if self.forcing is None
                else inner(Field(self.grid, spectral=gradient), self.forcing(t)))
        return energy, kappa, work, (quad, sum_w, sum_w2)


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
    _check_positive("alpha", alpha)
    if mobility is not None:
        _check_positive("mobility", mobility)
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
    return dealias(Field(u.grid, physical=u.values * sine_derivative_values(u)))


def burgers(grid: Grid, nu: float, c_shift: float | None = None) -> ProblemDefinition:
    """Viscous Burgers:  u_t - nu*u_xx + u*u_x = 0  with Dirichlet walls.

    L = identity, G = -nu*d_xx, T(u) = u*u_x; E(u) = ||u||^2/2 + const and
    K(u) = nu*||u_x||^2.
    """
    if grid.basis is not Basis.SINE1D:
        raise ValueError("burgers requires a SINE1D grid")
    _check_positive("nu", nu)
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
    _check_non_negative("rate", rate)
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

    The forcing is f(t) = u_t + A u + g(u) at the exact sample, through the
    scheme's own discrete operators, so the sampled trajectory satisfies the
    semidiscrete equation to rounding.  With u = sin t p, F' cubic and Gd the
    dealiased mobility, f(t) = cos t P + sin t (A - (lam + 1) Gd) P
    + sin^3 t Gd (p^3)^, P the profile's coefficients (no cubic term and no 1
    without the double well).  Both products are built once per problem, so
    a rebuild costs no transform.  Raises ValueError for a problem with
    transport, which does not separate so, and on a grid other than
    FOURIER2D, where the solution family does not live.
    """
    if problem.transport is not None:
        raise ValueError("manufactured forcing needs a problem without transport")
    exact = exp_sine_product_solution(problem.grid)
    profile = exact.time_derivative(0.0)  # cos 0 = 1: the profile itself
    gd, well = problem._dealiased_mobility, float(problem.has_double_well)
    linear = (problem.linear_symbol - (problem.stabilization + well) * gd) * profile.coeffs
    cubic = gd * Field.from_physical(problem.grid, profile.values ** 3).coeffs if well else None
    cache: dict[float, Field] = {}

    def forcing(t: float) -> Field:
        hit = cache.get(t)
        if hit is not None:
            return hit
        s = math.sin(t)
        c = math.cos(t) * profile.coeffs + s * linear
        if cubic is not None:
            c += s ** 3 * cubic
        f = Field(problem.grid, spectral=c)
        cache.clear()
        cache[t] = f
        return f

    return replace(problem, forcing=forcing, exact=exact)

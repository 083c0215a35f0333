"""Model-problem contracts: energies, dissipation rates, forcing construction."""

import numpy as np
import pytest

from savbdf import (
    Field,
    Grid,
    allen_cahn,
    burgers,
    cahn_hilliard,
    dealias,
    exp_sine_product_solution,
    inner,
    scalar_decay,
    sobolev_norm,
    with_manufactured_forcing,
)
from savbdf.harness import random_smooth_field
from savbdf.problems import double_well, double_well_prime


@pytest.fixture(scope="module")
def grid():
    return Grid.fourier2d(64)


@pytest.fixture(scope="module")
def ac(grid):
    return allen_cahn(grid)


@pytest.fixture(scope="module")
def ch(grid):
    return cahn_hilliard(grid)


def test_double_well_critical_points():
    assert double_well_prime(np.array(0.0)) == 0.0
    assert double_well(np.array(1.0)) == 0.0
    assert double_well(np.array(-1.0)) == 0.0
    assert double_well(np.array(0.0)) == 0.25


def test_double_well_prime_is_odd_and_accurate():
    v = np.random.default_rng(4).normal(0.0, 2.0, size=4096)
    assert np.array_equal(double_well_prime(-v), -double_well_prime(v))
    eps = np.finfo(float).eps
    bound = 4.0 * eps * (np.abs(v) ** 3 + np.abs(v))
    assert np.all(np.abs(double_well_prime(v) - (v ** 3 - v)) <= bound)


def test_problems_compare_and_hash_by_identity(grid):
    p, q = allen_cahn(grid), allen_cahn(grid)
    assert p == p and p != q
    assert len({p, q, p}) == 2
    assert p.linear_symbol is p.linear_symbol


@pytest.mark.parametrize("make", [
    lambda: allen_cahn(Grid.fourier2d(16)),
    lambda: cahn_hilliard(Grid.fourier2d(16)),
    lambda: burgers(Grid.sine1d(16), nu=0.1),
    scalar_decay,
])
def test_problem_symbols_are_read_only(make):
    p = make()
    for name in ("principal_symbol", "mobility_symbol", "linear_symbol",
                 "_weighted_principal", "_weighted_mobility"):
        with pytest.raises(ValueError):
            getattr(p, name)[0] = 1.0


@pytest.mark.parametrize("maker", [allen_cahn, cahn_hilliard])
def test_field_terms_match_a_fresh_problem_when_fields_alternate(grid, maker):
    # the per-field cache keeps one field; alternating two must never
    # return the other's terms
    fields = (random_smooth_field(grid, seed=1), random_smooth_field(grid, seed=2))
    p = maker(grid)
    for i in range(12):
        method = ("energy", "dissipation", "principal_norm_sq")[i % 3]
        w = fields[i % 2]
        assert getattr(p, method)(w) == getattr(maker(grid), method)(w), (i, method)


def test_wrong_basis_rejected(grid):
    with pytest.raises(ValueError):
        allen_cahn(Grid.sine1d(8))
    with pytest.raises(ValueError):
        cahn_hilliard(Grid.sine1d(8))
    with pytest.raises(ValueError):
        burgers(grid, nu=0.1)


# -- Allen-Cahn -------------------------------------------------------------------


def test_ac_zero_field_energy(ac, grid):
    # E(0) = F(0)*|Omega| + c_shift*|Omega| = 0.25*4 + 1 = 2 with defaults
    zero = Field.zeros(grid)
    assert ac.energy(zero) == pytest.approx(0.25 * grid.volume + 1.0, rel=1e-12)
    assert ac.principal_norm_sq(zero) == 0.0


def test_ac_g_vanishes_at_zero(ac, grid):
    g0 = ac.g_unforced(Field.zeros(grid))
    assert sobolev_norm(g0) <= 1e-14


def test_ac_uniform_well_state(ac, grid):
    one = Field.from_physical(grid, np.ones(grid.extents))
    # F(1) = 0 and the stabilization-free quadratic part ignores constants
    assert ac.energy(one) == pytest.approx(1.0, abs=1e-10)
    assert ac.dissipation(one) <= 1e-20


def test_ac_symbols(grid):
    p = allen_cahn(grid, alpha=1e-4, stabilization=0.5)
    assert p.linear_symbol[0, 0] == pytest.approx(0.5)
    assert p.linear_symbol[1, 0] == pytest.approx(1e-4 * np.pi ** 2 + 0.5, rel=1e-13)
    assert np.all(p.linear_symbol >= 0.0)


def test_ac_dissipation_is_lambda_free(grid):
    u = random_smooth_field(grid, seed=4)
    base = allen_cahn(grid, stabilization=0.0)
    stab = allen_cahn(grid, stabilization=2.0)
    assert stab.dissipation(u) == pytest.approx(base.dissipation(u), rel=1e-12)


# -- Cahn-Hilliard -------------------------------------------------------------------


def test_ch_symbol_values(grid):
    p = cahn_hilliard(grid, alpha=0.04, mobility=0.005, stabilization=0.3)
    assert p.linear_symbol[0, 0] == 0.0
    k2 = np.pi ** 2
    assert p.linear_symbol[1, 0] == pytest.approx(0.005 * (0.04 * k2 ** 2 + 0.3 * k2), rel=1e-13)
    # the stabilization lives in the splitting only, not in the energy's L
    assert p.principal_symbol[1, 0] == pytest.approx(0.04 * k2, rel=1e-13)


def test_ch_constant_state_has_zero_dissipation(ch, grid):
    c = Field.from_physical(grid, np.full(grid.extents, 0.4))
    assert ch.dissipation(c) <= 1e-20
    g = ch.g_unforced(c)
    assert sobolev_norm(g) <= 1e-13


def test_ch_nonlinear_term_has_zero_mean(ch, grid):
    u = random_smooth_field(grid, seed=9)
    g = ch.g_unforced(u)
    assert abs(g.coeffs[0, 0]) <= 1e-14


# -- Burgers ----------------------------------------------------------------------


def test_burgers_zero_state():
    grid = Grid.sine1d(64)
    p = burgers(grid, nu=0.05)
    zero = Field.zeros(grid)
    assert sobolev_norm(p.g_unforced(zero)) == 0.0
    assert p.dissipation(zero) == 0.0
    assert p.energy(zero) == pytest.approx(1.0, rel=1e-13)  # c_shift*|Omega|


def test_burgers_skew_symmetry():
    grid = Grid.sine1d(128)
    p = burgers(grid, nu=0.05)
    for seed in (0, 1, 2):
        u = dealias(random_smooth_field(grid, seed=seed))
        g = p.g_unforced(u)
        norm_u = sobolev_norm(u)
        assert abs(inner(g, u)) <= 1e-8 * max(norm_u ** 3, 1e-8)


def test_burgers_dissipation_of_sine_mode():
    grid = Grid.sine1d(200)
    nu = 0.05
    p = burgers(grid, nu=nu)
    (x,) = grid.points
    u = Field.from_physical(grid, np.sin(np.pi * x))
    # independent oracle: fine trapezoid quadrature of nu*(pi*cos(pi x))^2
    xs = np.linspace(-1.0, 1.0, 4001)
    expected = np.trapezoid(nu * (np.pi * np.cos(np.pi * xs)) ** 2, xs)
    assert p.dissipation(u) == pytest.approx(expected, rel=1e-8)
    assert expected == pytest.approx(nu * np.pi ** 2, rel=1e-10)


# -- scalar oracle problem -------------------------------------------------------------


def test_scalar_decay_definitions():
    p = scalar_decay()
    u = Field.from_spectral(p.grid, np.array([1.0]))
    assert p.energy(u) == pytest.approx(1.5, rel=1e-14)
    assert p.dissipation(u) == pytest.approx(1.0, rel=1e-14)
    assert p.principal_norm_sq(u) == pytest.approx(1.0, rel=1e-14)
    assert p.exact.field(0.0).coeffs[0] == pytest.approx(1.0)
    assert p.exact.field(1.0).coeffs[0] == pytest.approx(np.exp(-1.0), rel=1e-14)


# -- manufactured forcing ---------------------------------------------------------------


def test_exact_solution_vanishes_at_t0(grid):
    exact = exp_sine_product_solution(grid)
    assert sobolev_norm(exact.field(0.0)) == 0.0


def test_forcing_at_t0_equals_initial_rate(grid, ac):
    forced = with_manufactured_forcing(ac)
    f0 = forced.forcing(0.0)
    x, y = grid.points
    profile = np.exp(np.sin(np.pi * x) * np.sin(np.pi * y))
    assert np.max(np.abs(f0.values - profile)) <= 1e-12


@pytest.mark.parametrize("maker", [allen_cahn, cahn_hilliard])
def test_manufactured_residual_vanishes(grid, maker):
    from savbdf.spectral import apply_symbol

    forced = with_manufactured_forcing(maker(grid))
    exact = forced.exact
    rng = np.random.default_rng(42)
    for t in rng.uniform(0.0, 1.0, size=10):
        u = exact.field(t)
        residual = exact.time_derivative(t) + apply_symbol(forced.linear_symbol, u) \
            + forced.nonlinear(u, t)
        assert sobolev_norm(residual) <= 1e-8


@pytest.mark.parametrize("lam", [0.0, 2.0])
@pytest.mark.parametrize("maker", [allen_cahn, cahn_hilliard])
def test_energy_law_along_manufactured_solution(maker, lam):
    # dE/dt of the sampled exact trajectory is -K + (dE/du, f) whatever the
    # stabilization, which moves terms between A and g only
    forced = with_manufactured_forcing(maker(Grid.fourier2d(32), stabilization=lam))
    exact, h = forced.exact.field, 1e-4
    for t in (0.3, 0.8):
        rate = (forced.energy(exact(t + h)) - forced.energy(exact(t - h))) / (2.0 * h)
        u = exact(t)
        law = -forced.dissipation(u) + forced.forcing_power(u, t)
        assert rate == pytest.approx(law, rel=1e-6)


def test_energy_law_along_scalar_decay():
    p = scalar_decay()
    exact, h = p.exact.field, 1e-4
    for t in (0.3, 0.8):
        rate = (p.energy(exact(t + h)) - p.energy(exact(t - h))) / (2.0 * h)
        assert rate == pytest.approx(-p.dissipation(exact(t)), rel=1e-6)


def test_manufactured_requires_exact_for_sine():
    p = burgers(Grid.sine1d(16), nu=0.1)
    with pytest.raises(ValueError):
        with_manufactured_forcing(p)


def test_forcing_power_zero_when_unforced(ac, grid):
    u = random_smooth_field(grid, seed=3)
    assert ac.forcing_power(u, 0.3) == 0.0


# -- global invariants --------------------------------------------------------------


@pytest.mark.parametrize("amplitude", [0.5, 3.0, 10.0])
def test_energy_positive_for_random_fields(grid, ac, ch, amplitude):
    for seed in range(3):
        u = amplitude * random_smooth_field(grid, seed=seed)
        assert ac.energy(u) > 0.0
        assert ch.energy(u) > 0.0
    sg = Grid.sine1d(64)
    pb = burgers(sg, nu=0.02)
    for seed in range(3):
        u = amplitude * random_smooth_field(sg, seed=seed)
        assert pb.energy(u) > 0.0


def test_energy_invariant_under_round_trip(ac, grid):
    u = random_smooth_field(grid, seed=11)
    again = Field.from_spectral(grid, Field.from_physical(grid, u.values).coeffs)
    assert ac.energy(again) == pytest.approx(ac.energy(u), rel=1e-12)


def test_reference_run_energy_non_increasing(grid):
    # tiny-step high-order unforced run: recorded energy must not increase
    # beyond 1e-6 per step
    from savbdf import StepMode, run, tableau

    p = allen_cahn(grid)
    u0 = 0.5 * random_smooth_field(grid, seed=8)
    report = run(p, tableau(5), 1e-3, 0.05, mode=StepMode.SAV, u0=u0)
    energies = [rec.energy for rec in report.records]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-6

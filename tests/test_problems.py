"""Model-problem contracts: energies, dissipation rates, forcing construction."""

import dataclasses
import math

import numpy as np
import pytest

from savbdf import (
    Field,
    Grid,
    ProblemDefinition,
    SettingError,
    allen_cahn,
    apply_symbol,
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
    # no evaluation depends on the field evaluated before it, and the scalar
    # update's terms have the bits of the plain evaluations
    fields = (random_smooth_field(grid, seed=1), random_smooth_field(grid, seed=2))
    p = with_manufactured_forcing(maker(grid))
    calls = {
        "energy": lambda q, w: q.energy(w),
        "dissipation": lambda q, w: q.dissipation(w),
        "principal_norm_sq": lambda q, w: q.principal_norm_sq(w),
        "update_terms": lambda q, w: q.update_terms(w, q.forcing(0.5)),
        "scaled_energy": lambda q, w: q.scaled_energy(q.update_terms(w, q.forcing(0.5))[3], -0.75),
    }
    for i in range(20):  # 5 entry points and 2 fields: every pairing, twice
        name = list(calls)[i % 5]
        w = fields[i % 2]
        assert calls[name](p, w) == calls[name](with_manufactured_forcing(maker(grid)), w), (i, name)
    for w in fields:
        energy, kappa, work, (quad, _, _) = p.update_terms(w, p.forcing(0.5))
        assert (energy, kappa, work, quad) == (p.energy(w), p.dissipation(w), p.forcing_power(w, 0.5),
                                               p.principal_norm_sq(w))
        assert work != 0.0


@pytest.mark.parametrize("make", [
    lambda: allen_cahn(Grid.fourier2d(8)),
    lambda: burgers(Grid.sine1d(8), nu=0.1),
])
def test_overflowing_quadratic_forms_read_inf(make):
    # on a Fourier grid the complex dot forms inf - inf where |c|^2 overflows:
    # (L u, u), E, K and the norm, sums of terms >= 0, read inf on both bases
    p = make()
    u = 1e200 * random_smooth_field(p.grid, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (p.principal_norm_sq(u), p.energy(u), p.dissipation(u), sobolev_norm(u))
    assert values == (math.inf,) * 4


def test_wrong_basis_rejected(grid):
    with pytest.raises(ValueError):
        allen_cahn(Grid.sine1d(8))
    with pytest.raises(ValueError):
        cahn_hilliard(Grid.sine1d(8))
    with pytest.raises(ValueError):
        burgers(grid, nu=0.1)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("kwargs, name", [
    (dict(alpha=NAN), "alpha"), (dict(alpha=INF), "alpha"),
    (dict(stabilization=INF), "stabilization"), (dict(stabilization=NAN), "stabilization"),
    (dict(c_shift=NAN), "c_shift"), (dict(c_shift=-10.0), "c_shift"), (dict(c_shift=0.0), "c_shift"),
    # alpha |k|^2 and c_shift |Omega| overflow
    (dict(alpha=1e308), "alpha"), (dict(c_shift=1e308), "c_shift"),
    # alpha |k|^2 is finite on 64^2, but twice it, the conjugate-pair weighted L, is not
    (dict(alpha=6e303), "alpha"),
    # L and lam are finite, A = L + lam is not
    (dict(alpha=1e303, stabilization=1.79e308), "stabilization"),
])
def test_allen_cahn_rejects_bad_settings(grid, kwargs, name):
    with pytest.raises(SettingError, match=name) as exc:
        allen_cahn(grid, **kwargs)
    assert exc.value.setting == name


@pytest.mark.parametrize("kwargs, name", [
    (dict(mobility=NAN), "mobility"), (dict(mobility=INF), "mobility"),
    (dict(alpha=INF), "alpha"), (dict(c_shift=-10.0), "c_shift"), (dict(mobility=1e308), "mobility"),
    # the weighted G, and A = G (L + lam) with G and L finite, overflow
    (dict(mobility=6e303), "mobility"), (dict(alpha=1e150, mobility=1e160), "mobility"),
])
def test_cahn_hilliard_rejects_bad_settings(grid, kwargs, name):
    with pytest.raises(SettingError, match=name) as exc:
        cahn_hilliard(grid, **kwargs)
    assert exc.value.setting == name


@pytest.mark.parametrize("kwargs, name", [
    (dict(nu=INF), "nu"), (dict(nu=NAN), "nu"),
    (dict(nu=0.1, c_shift=NAN), "c_shift"), (dict(nu=0.1, c_shift=-10.0), "c_shift"),
    (dict(nu=1e308), "nu"),
])
def test_burgers_rejects_bad_settings(kwargs, name):
    # c_shift = -10 would otherwise fail only at step 1, on energy positivity
    with pytest.raises(SettingError, match=name) as exc:
        burgers(Grid.sine1d(8), **kwargs)
    assert exc.value.setting == name


@pytest.mark.parametrize("build, name, value", [
    # from zero data a zero shift fails only at step 1, on energy positivity
    (lambda: burgers(Grid.sine1d(16), 0.1), "c_shift", 0.0),
    # a negative stabilization would run to T
    (lambda: allen_cahn(Grid.fourier2d(16)), "stabilization", -5.0),
    # a symbol on the physical shape (8, 8), not the spectral (8, 5), would
    # fail at step 1 on a numpy broadcast; a NaN one as a divergence
    (lambda: allen_cahn(Grid.fourier2d(8)), "principal_symbol", np.ones((8, 8))),
    (lambda: allen_cahn(Grid.fourier2d(8)), "mobility_symbol", np.full((8, 5), np.nan)),
    (lambda: allen_cahn(Grid.fourier2d(8)), "principal_symbol", np.full((8, 5), np.inf)),
    (lambda: allen_cahn(Grid.fourier2d(8)), "principal_symbol", -np.ones((8, 5))),
    (lambda: cahn_hilliard(Grid.fourier2d(8)), "mobility_symbol", np.ones((8, 5), complex)),
    (lambda: burgers(Grid.sine1d(16), 0.1), "mobility_symbol", [1.0] * 16),
    (lambda: burgers(Grid.sine1d(16), 0.1), "principal_symbol", np.ones(16, bool)),
])
def test_hand_built_problem_is_checked_at_construction(build, name, value):
    with pytest.raises(SettingError, match=name) as exc:
        dataclasses.replace(build(), **{name: value})
    assert exc.value.setting == name


# -- Allen-Cahn -------------------------------------------------------------------


def test_ac_zero_field_energy(ac, grid):
    # E(0) = F(0)*|Omega| + c_shift*|Omega| = 0.25*4 + 1 = 2 with defaults
    zero = Field.zeros(grid)
    assert ac.energy(zero) == pytest.approx(0.25 * grid.volume + 1.0, rel=1e-12)
    assert ac.principal_norm_sq(zero) == 0.0


def test_ac_g_vanishes_at_zero(ac, grid):
    g0 = ac.nonlinear(Field.zeros(grid), None)
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
    g = ch.nonlinear(c, None)
    assert sobolev_norm(g) <= 1e-13


def test_ch_nonlinear_term_has_zero_mean(ch, grid):
    u = random_smooth_field(grid, seed=9)
    g = ch.nonlinear(u, None)
    assert abs(g.coeffs[0, 0]) <= 1e-14


# -- Burgers ----------------------------------------------------------------------


def test_burgers_zero_state():
    grid = Grid.sine1d(64)
    p = burgers(grid, nu=0.05)
    zero = Field.zeros(grid)
    assert sobolev_norm(p.nonlinear(zero, None)) == 0.0
    assert p.dissipation(zero) == 0.0
    assert p.energy(zero) == pytest.approx(1.0, rel=1e-13)  # c_shift*|Omega|


def test_burgers_skew_symmetry():
    grid = Grid.sine1d(128)
    p = burgers(grid, nu=0.05)
    for seed in (0, 1, 2):
        u = dealias(random_smooth_field(grid, seed=seed))
        g = p.nonlinear(u, None)
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


@pytest.mark.parametrize("rate", [NAN, INF, -1.0])
def test_scalar_decay_rejects_bad_rate(rate):
    with pytest.raises(ValueError, match="rate"):
        scalar_decay(rate)


def test_scalar_decay_accepts_zero_rate():
    p = scalar_decay(0.0)
    assert p.exact.field(1.0).coeffs[0] == 1.0


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
    forced = with_manufactured_forcing(maker(grid))
    exact = forced.exact
    rng = np.random.default_rng(42)
    for t in rng.uniform(0.0, 1.0, size=10):
        u = exact.field(t)
        residual = exact.time_derivative(t) + apply_symbol(forced.linear_symbol, u) \
            + forced.nonlinear(u, forced.forcing(t))
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


def _well_free_problem(grid, stabilization):
    # the general form without the double well: g(u) = -lam u alone
    return ProblemDefinition(grid=grid, principal_symbol=0.01 * grid.k2,
                             mobility_symbol=np.ones_like(grid.k2), c_shift=1.0,
                             stabilization=stabilization)


@pytest.mark.parametrize("lam", [0.0, 2.0])
@pytest.mark.parametrize("maker", [allen_cahn, cahn_hilliard, _well_free_problem])
def test_forcing_matches_its_assembly_from_the_exact_sample(maker, lam):
    # f(t) = u_t + A u + g(u) at the exact sample, from the problem's operators
    grid = Grid.fourier2d(32)
    forced = with_manufactured_forcing(maker(grid, stabilization=lam))
    exact = forced.exact
    for t in np.linspace(-1.0, 4.0, 10):
        u = exact.field(t)
        expected = exact.time_derivative(t) + apply_symbol(forced.linear_symbol, u) \
            + forced.nonlinear(u, None)
        scale = np.max(np.abs(expected.coeffs))
        assert np.max(np.abs(forced.forcing(t).coeffs - expected.coeffs)) <= 1e-13 * scale


def test_forcing_keeps_no_memo(ac):
    # f(t) is a pure function of t: each call builds its own field, with the same bits
    forcing = with_manufactured_forcing(ac).forcing
    f = forcing(0.3)
    again = forcing(0.3)
    assert again is not f and np.array_equal(again.coeffs, f.coeffs)


def test_manufactured_forcing_rejects_transport():
    grid = Grid.fourier2d(16)
    p = dataclasses.replace(allen_cahn(grid), transport=lambda u: 0.0 * u)
    with pytest.raises(ValueError, match="transport"):
        with_manufactured_forcing(p)


def test_manufactured_requires_exact_for_sine():
    p = burgers(Grid.sine1d(16), nu=0.1)
    with pytest.raises(ValueError):
        with_manufactured_forcing(p)
    # a sine-grid problem without transport reaches the solution family's check
    with pytest.raises(ValueError, match="FOURIER2D"):
        with_manufactured_forcing(scalar_decay())


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


def test_energy_of_an_overflowing_spike_is_inf():
    # w = u^2 - 1 overflows at the spike, so sum w is inf: the closed form at
    # s = 1 must skip its 2 s^2 (s^2 - 1) sum w term, which is 0 * inf = nan
    p = allen_cahn(Grid.fourier2d(8))
    v = np.zeros(p.grid.extents)
    v[3, 5] = 2e154
    u = Field.from_physical(p.grid, v)
    with np.errstate(over="ignore", invalid="ignore"):
        assert p.energy(u) == np.inf
        assert p.scaled_energy(p.energy_terms(u)[0], 1.0)[0] == np.inf


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

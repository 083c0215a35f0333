"""Transforms, Parseval, diagonal solves, norms and dealiasing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from savbdf import (
    Basis,
    Field,
    Grid,
    GridMismatchError,
    IndefiniteOperatorError,
    dealias,
    inner,
    integrate,
    pointwise_map,
    sobolev_norm,
    solve_shifted,
)
from savbdf.spectral import _hermitianize, apply_symbol, quadratic_form, sine_derivative_values


@pytest.fixture
def fgrid():
    return Grid.fourier2d(32)


@pytest.fixture
def sgrid():
    return Grid.sine1d(33)


def _random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return Field.from_physical(grid, rng.normal(size=grid.extents))


# -- grids -------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.fourier2d(31)  # odd extent
    with pytest.raises(ValueError):
        Grid.sine1d(0)
    with pytest.raises(ValueError):
        Grid(Basis.SINE1D, (8, 8))  # a sine grid is one-dimensional


def test_grid_equality_and_hash():
    assert Grid.fourier2d(16) == Grid.fourier2d(16)
    assert Grid.fourier2d(16) != Grid.fourier2d(32)
    assert hash(Grid.sine1d(5)) == hash(Grid.sine1d(5))


def test_fourier_wavenumbers_match_domain():
    g = Grid.fourier2d(16)  # period 2 per direction
    # k = 2*pi*n/L = pi*n
    assert g.k2[1, 0] == pytest.approx(np.pi ** 2, rel=1e-14)
    assert g.k2[0, 2] == pytest.approx(4 * np.pi ** 2, rel=1e-14)
    assert g.k2[0, 0] == 0.0


def test_sine_wavenumbers_match_domain():
    g = Grid.sine1d(9)  # interval (-1, 1), k_j = j*pi/2
    assert g.k2[0] == pytest.approx((np.pi / 2) ** 2, rel=1e-14)
    assert g.k2[8] == pytest.approx((9 * np.pi / 2) ** 2, rel=1e-14)


# -- transforms ---------------------------------------------------------------


@pytest.mark.parametrize("make", [lambda: Grid.fourier2d(32), lambda: Grid.sine1d(33)])
def test_round_trip(make):
    grid = make()
    f = _random_field(grid, seed=3)
    vals = f.values.copy()
    g = Field.from_spectral(grid, f.coeffs)
    assert np.max(np.abs(g.values - vals)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


def test_constant_field_single_fourier_coefficient(fgrid):
    f = Field.from_physical(fgrid, np.full(fgrid.extents, 2.5))
    c = f.coeffs
    assert c[0, 0] == pytest.approx(2.5, rel=1e-13)
    masked = c.copy()
    masked[0, 0] = 0.0
    assert np.max(np.abs(masked)) <= 1e-13


def test_sine_of_pi_x_is_mode_two():
    # sin(pi*x) = -sin(2 * pi*(x+1)/2): single coefficient -1 at mode j = 2
    grid = Grid.sine1d(17)
    (x,) = grid.points
    f = Field.from_physical(grid, np.sin(np.pi * x))
    c = f.coeffs
    assert c[1] == pytest.approx(-1.0, abs=1e-12)
    rest = c.copy()
    rest[1] = 0.0
    assert np.max(np.abs(rest)) <= 1e-12


def test_zero_field_zero_coefficients(fgrid):
    f = Field.zeros(fgrid)
    assert np.max(np.abs(f.coeffs)) == 0.0


def test_from_spectral_enforces_hermitian_symmetry(fgrid):
    rng = np.random.default_rng(5)
    raw = rng.normal(size=fgrid.spectral_shape) + 1j * rng.normal(size=fgrid.spectral_shape)
    f = Field.from_spectral(fgrid, raw)
    # a real physical representation must reproduce the stored coefficients
    back = Field.from_physical(fgrid, f.values)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))


@pytest.mark.parametrize("extents", [(32, 32), (16, 24)])
def test_diagonal_operators_keep_rfft2_coefficients_hermitian(extents):
    # only Field.from_spectral repairs the symmetry; the operators rely on
    # real, kx-even symbols preserving it
    grid = Grid.fourier2d(*extents)
    f = _random_field(grid, 3)
    shift, symbol = 7.0, 1e-3 * grid.k2 ** 2 + grid.k2
    results = [
        apply_symbol(-grid.k2, f),
        solve_shifted(shift, symbol, f),
        Field(grid, spectral=(shift + symbol) * f.coeffs),
        dealias(f),
    ]
    for out in results:
        c = out.coeffs
        assert np.max(np.abs(_hermitianize(c, grid.extents[0]) - c)) <= 1e-14 * np.max(np.abs(c))


# -- Parseval and norms --------------------------------------------------------


@pytest.mark.parametrize("make", [lambda: Grid.fourier2d(32), lambda: Grid.sine1d(30)])
def test_parseval_inner_products(make):
    grid = make()
    f, g = _random_field(grid, 1), _random_field(grid, 2)
    spectral = quadratic_form(np.ones_like(grid.k2), (f + g)) - quadratic_form(
        np.ones_like(grid.k2), f) - quadratic_form(np.ones_like(grid.k2), g)
    physical = 2.0 * inner(f, g)
    scale = sobolev_norm(f) * sobolev_norm(g)
    assert abs(spectral - physical) <= 1e-10 * max(scale, 1.0)


#: a square Fourier grid, a non-square Fourier grid and a sine grid
PARSEVAL_GRIDS = [lambda: Grid.fourier2d(32), lambda: Grid.fourier2d(16, 24),
                  lambda: Grid.sine1d(30)]


@pytest.mark.parametrize("make", PARSEVAL_GRIDS)
def test_inner_matches_quadrature(make):
    grid = make()
    f, g = _random_field(grid, 11), _random_field(grid, 12)
    quadrature = grid.cell_volume * np.sum(f.values * g.values)
    assert inner(f, g) == pytest.approx(quadrature, rel=1e-13)
    # fields held only as coefficients give the same value
    fs, gs = Field(grid, spectral=f.coeffs), Field(grid, spectral=g.coeffs)
    assert inner(fs, gs) == pytest.approx(quadrature, rel=1e-13)


def _direct_weighted_sum(grid, symbol, c):
    # reference: factor * sum(mult * symbol * |c|^2), with the rfft2 layout's
    # conjugate-pair multiplicity and the basis functions' L2 norm
    if grid.basis is Basis.FOURIER2D:
        mult = np.full(grid.spectral_shape, 2.0)
        mult[:, 0] = mult[:, -1] = 1.0
        factor = grid.volume
    else:
        mult, factor = np.ones(grid.spectral_shape), grid.volume / 2.0
    return factor * np.sum(mult * symbol * np.abs(c) ** 2)


@pytest.mark.parametrize("make", PARSEVAL_GRIDS)
def test_norms_match_direct_sum(make):
    grid = make()
    for f in (_random_field(grid, 13), Field(grid, spectral=_random_field(grid, 14).coeffs)):
        c = f.coeffs
        symbol = 1e-3 * grid.k2 ** 2 + grid.k2 + 0.5
        assert quadratic_form(symbol, f) == pytest.approx(
            _direct_weighted_sum(grid, symbol, c), rel=1e-13)
        for s in (0.0, 1.0, 2.0):
            want = np.sqrt(_direct_weighted_sum(grid, (1.0 + grid.k2) ** s, c))
            assert sobolev_norm(f, s) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("make", [lambda: Grid.fourier2d(32), lambda: Grid.sine1d(30)])
def test_l2_norm_matches_quadrature(make):
    grid = make()
    f = _random_field(grid, 7)
    quad = np.sqrt(np.sum(f.values ** 2) * grid.cell_volume)
    assert sobolev_norm(f, 0.0) == pytest.approx(quad, rel=1e-10)
    assert inner(f, f) == pytest.approx(sobolev_norm(f, 0.0) ** 2, rel=1e-12)


def test_sobolev_zero_field(fgrid):
    assert sobolev_norm(Field.zeros(fgrid), 2.0) == 0.0


def test_sobolev_single_mode_value(fgrid):
    # unit-L2 field supported on |k| = pi
    x, _ = fgrid.points
    f = Field.from_physical(fgrid, np.cos(np.pi * x) / np.sqrt(2.0))
    assert sobolev_norm(f, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(1 + np.pi ** 2), rel=1e-12)
    assert sobolev_norm(f, 2.0) == pytest.approx(1 + np.pi ** 2, rel=1e-12)


def test_integrate_constant(fgrid):
    f = Field.from_physical(fgrid, np.full(fgrid.extents, 0.75))
    assert integrate(f) == pytest.approx(0.75 * fgrid.volume, rel=1e-13)


# -- symbols and solves ----------------------------------------------------------


def test_laplacian_symbol_values(fgrid, sgrid):
    lap = -fgrid.k2
    assert lap[0, 0] == 0.0
    assert lap[1, 0] == pytest.approx(-np.pi ** 2, rel=1e-14)
    laps = -sgrid.k2
    assert laps[2] == pytest.approx(-(3 * np.pi / 2) ** 2, rel=1e-14)


def test_spectral_laplacian_matches_analytic(fgrid):
    x, y = fgrid.points
    f = Field.from_physical(fgrid, np.sin(np.pi * x) * np.cos(2 * np.pi * y))
    lap = apply_symbol(-fgrid.k2, f)
    expect = -(np.pi ** 2 + 4 * np.pi ** 2) * f.values
    assert np.max(np.abs(lap.values - expect)) <= 1e-10 * np.max(np.abs(expect))


def test_solve_shifted_identity(fgrid):
    f = _random_field(fgrid, 11)
    out = solve_shifted(1.0, np.zeros_like(fgrid.k2), f)
    assert np.max(np.abs(out.values - f.values)) <= 1e-12


def test_solve_shifted_known_single_mode(fgrid):
    # rhs built from a known solution: (1 - Lap) u for u = cos(pi x)
    x, _ = fgrid.points
    u = np.cos(np.pi * x)
    rhs = Field.from_physical(fgrid, (1 + np.pi ** 2) * u)
    out = solve_shifted(1.0, fgrid.k2, rhs)
    assert np.max(np.abs(out.values - u)) <= 1e-10


def test_solve_shifted_zero_rhs(sgrid):
    out = solve_shifted(2.0, sgrid.k2, Field.zeros(sgrid))
    assert np.max(np.abs(out.values)) == 0.0


def test_solve_shifted_is_exact_inverse(sgrid):
    f = _random_field(sgrid, 13)
    sym = 0.3 * sgrid.k2
    back = solve_shifted(0.7, sym, Field(sgrid, spectral=(0.7 + sym) * f.coeffs))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * max(1.0, np.max(np.abs(f.values)))


def test_solve_shifted_rejects_indefinite(fgrid):
    f = _random_field(fgrid, 17)
    with pytest.raises(IndefiniteOperatorError, match="indefinite"):
        solve_shifted(-1e-6, np.zeros_like(fgrid.k2), f)


def test_solve_shifted_checks_positivity_after_a_cached_solve(fgrid):
    # a positive solve is kept for its (shift, read-only symbol); a smaller
    # shift on the same symbol, or another symbol with the same shift, is
    # checked afresh
    f = _random_field(fgrid, 23)
    sym, other = fgrid.k2 - 1.0, np.full_like(fgrid.k2, -3.0)
    sym.setflags(write=False)
    other.setflags(write=False)
    first = solve_shifted(2.0, sym, f)
    assert np.array_equal(solve_shifted(2.0, sym, f).coeffs, first.coeffs)
    with pytest.raises(IndefiniteOperatorError):
        solve_shifted(0.5, sym, f)
    solve_shifted(2.0, sym, f)
    with pytest.raises(IndefiniteOperatorError):
        solve_shifted(2.0, other, f)


def test_solve_shifted_rechecks_a_writeable_symbol(fgrid):
    f = _random_field(fgrid, 29)
    sym = np.zeros_like(fgrid.k2)
    solve_shifted(1.0, sym, f)
    sym -= 2.0
    with pytest.raises(IndefiniteOperatorError):
        solve_shifted(1.0, sym, f)


def test_solve_residual_bound(fgrid):
    f = _random_field(fgrid, 19)
    sym = fgrid.k2
    x_sol = solve_shifted(3.0, sym, f)
    residual = Field(fgrid, spectral=(3.0 + sym) * x_sol.coeffs) - f
    assert sobolev_norm(residual) <= 1e-10 * sobolev_norm(f)


# -- dealiasing and pointwise ops -------------------------------------------------


def test_dealias_band_limited_unchanged(fgrid):
    x, y = fgrid.points
    f = Field.from_physical(fgrid, np.sin(np.pi * x) * np.sin(np.pi * y))
    out = dealias(f)
    assert np.max(np.abs(out.values - f.values)) <= 1e-13


def test_dealias_idempotent(fgrid):
    f = _random_field(fgrid, 23)
    once = dealias(f)
    twice = dealias(once)
    assert np.array_equal(once.coeffs, twice.coeffs)


def test_dealias_kills_highest_mode():
    grid = Grid.fourier2d(16)
    coeffs = np.zeros(grid.spectral_shape, dtype=complex)
    coeffs[8, 0] = 1.0  # Nyquist row
    f = dealias(Field.from_spectral(grid, coeffs))
    assert np.max(np.abs(f.coeffs)) == 0.0
    sg = Grid.sine1d(9)
    c = np.zeros(9)
    c[8] = 1.0
    assert np.max(np.abs(dealias(Field.from_spectral(sg, c)).coeffs)) == 0.0


def test_pointwise_map(fgrid):
    f = _random_field(fgrid, 29)
    same = pointwise_map(f, lambda v: v)
    assert np.array_equal(same.values, f.values)
    c = Field.from_physical(fgrid, np.full(fgrid.extents, 1.5))
    cubed = pointwise_map(c, lambda v: v ** 3)
    assert np.allclose(cubed.values, 1.5 ** 3)


def test_sine_derivative_analytic():
    grid = Grid.sine1d(40)
    (x,) = grid.points
    u = Field.from_physical(grid, np.sin(np.pi * x))
    ux = sine_derivative_values(u)
    assert np.max(np.abs(ux - np.pi * np.cos(np.pi * x))) <= 1e-10


def test_sine_derivative_requires_sine(fgrid):
    with pytest.raises(ValueError):
        sine_derivative_values(Field.zeros(fgrid))


# -- field arithmetic ---------------------------------------------------------------


def test_field_arithmetic_and_mean(fgrid):
    f, g = _random_field(fgrid, 31), _random_field(fgrid, 37)
    s = 2.0 * f - g / 4.0
    assert np.allclose(s.values, 2.0 * f.values - g.values / 4.0)
    assert (-f).values == pytest.approx(-f.values)
    assert f.mean() == pytest.approx(float(np.mean(f.values)), abs=1e-13)


def test_mean_is_the_zero_mode_on_fourier_grids(fgrid, sgrid):
    f = _random_field(fgrid, 41) + Field.from_physical(fgrid, np.full(fgrid.extents, 0.375))
    assert f.mean() == f.coeffs[0, 0].real
    assert Field(fgrid, spectral=f.coeffs).mean() == f.mean()
    # a sine field's mean stays the quadrature: n interior points, n + 1 cells
    g = _random_field(sgrid, 43)
    assert g.mean() == pytest.approx(float(np.mean(g.values)) * 33 / 34, abs=1e-13)


def test_grid_mismatch_raises():
    a = Field.zeros(Grid.fourier2d(16))
    b = Field.zeros(Grid.fourier2d(32))
    with pytest.raises(GridMismatchError):
        _ = a + b
    with pytest.raises(GridMismatchError):
        inner(a, b)


def test_field_requires_some_representation(fgrid):
    with pytest.raises(ValueError):
        Field(fgrid)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_parseval_property(seed):
    grid = Grid.fourier2d(16)
    f = _random_field(grid, seed)
    phys = np.sum(f.values ** 2) * grid.cell_volume
    assert sobolev_norm(f) ** 2 == pytest.approx(phys, rel=1e-10, abs=1e-12)

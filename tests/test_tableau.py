"""Coefficient exactness and polynomial reproduction of the BDF tableaux."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from savbdf import Field, Grid, UnsupportedOrderError, combine_history, tableau

ORDERS = [1, 2, 3, 4, 5]

EXPECTED = {
    1: (Fraction(1), [Fraction(1)], [Fraction(1)]),
    2: (Fraction(3, 2), [Fraction(2), Fraction(-1, 2)], [Fraction(2), Fraction(-1)]),
    3: (Fraction(11, 6), [Fraction(3), Fraction(-3, 2), Fraction(1, 3)],
        [Fraction(3), Fraction(-3), Fraction(1)]),
    4: (Fraction(25, 12), [Fraction(4), Fraction(-3), Fraction(4, 3), Fraction(-1, 4)],
        [Fraction(4), Fraction(-6), Fraction(4), Fraction(-1)]),
    5: (Fraction(137, 60),
        [Fraction(5), Fraction(-5), Fraction(10, 3), Fraction(-5, 4), Fraction(1, 5)],
        [Fraction(5), Fraction(-10), Fraction(10), Fraction(-5), Fraction(1)]),
}


@pytest.mark.parametrize("k", ORDERS)
def test_exact_rational_coefficients(k):
    tab = tableau(k)
    alpha, a, b = EXPECTED[k]
    assert tab.order == k
    assert tab.alpha == alpha
    assert list(tab.a_weights) == a
    assert list(tab.b_weights) == b


@pytest.mark.parametrize("k", ORDERS)
def test_weight_sums(k):
    tab = tableau(k)
    # rational arithmetic: the sums are exact, not merely within 1e-14
    assert sum(tab.a_weights) == tab.alpha
    assert sum(tab.b_weights) == 1
    assert abs(sum(tab.floats[1]) - float(tab.alpha)) <= 1e-14
    assert abs(sum(tab.floats[2]) - 1.0) <= 1e-14


def test_eta_exponent_defaults_and_override():
    assert tableau(1).eta_exponent == 3
    assert tableau(2).eta_exponent == 3
    assert tableau(3).eta_exponent == 4
    assert tableau(4).eta_exponent == 5
    assert tableau(5).eta_exponent == 6
    # p follows the order: an experiment that needs another p replaces the field
    with pytest.raises(TypeError):
        tableau(3, eta_exponent=2)
    tab = replace(tableau(3), eta_exponent=2)
    assert tab.eta_exponent == 2 and tab.floats == tableau(3).floats


@pytest.mark.parametrize("k", [0, 6, -1])
def test_unsupported_orders(k):
    with pytest.raises(UnsupportedOrderError, match="unsupported order"):
        tableau(k)


def test_non_integer_order_rejected():
    with pytest.raises(UnsupportedOrderError):
        tableau(2.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_numpy_integers_are_accepted_and_stored_as_int(k):
    # as `Grid` accepts them; a config read through numpy yields np.int64
    tab = tableau(np.int64(k))
    assert tab == tableau(k)
    assert type(tab.order) is int and type(tab.eta_exponent) is int
    with pytest.raises(UnsupportedOrderError):
        tableau(np.bool_(True))


# extrapolation is exact only up to degree k - 1
@pytest.mark.parametrize("degree, k", [(degree, k) for k in ORDERS for degree in range(k)])
def test_extrapolation_exact_on_low_degree_polynomials(k, degree):
    dt = 0.137
    t1 = 0.83
    coeffs = [0.7, -1.3, 0.41, 2.9, -0.11][: degree + 1]
    q = np.polynomial.Polynomial(coeffs)
    samples = [q(t1 - (i + 1) * dt) for i in range(k)]
    value = combine_history(tableau(k).floats[2], samples)
    assert abs(value - q(t1)) <= 1e-12 * max(1.0, abs(q(t1)))


@pytest.mark.parametrize("k", ORDERS)
def test_bdf_derivative_exact_on_degree_k_polynomials(k):
    dt = 0.0891
    t1 = 1.21
    coeffs = [0.3, 1.7, -0.9, 0.23, -0.05, 0.017][: k + 1]
    q = np.polynomial.Polynomial(coeffs)
    tab = tableau(k)
    hist = [q(t1 - (i + 1) * dt) for i in range(k)]
    deriv = (float(tab.alpha) * q(t1) - combine_history(tab.floats[1], hist)) / dt
    expect = q.deriv()(t1)
    assert abs(deriv - expect) <= 1e-10 * max(1.0, abs(expect))


@given(
    k=st.integers(min_value=1, max_value=5),
    coeffs=st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=5),
    dt=st.floats(min_value=1e-3, max_value=0.5),
)
def test_extrapolation_property(k, coeffs, dt):
    coeffs = coeffs[:k]  # degree <= k-1
    q = np.polynomial.Polynomial(coeffs)
    samples = [q(1.0 - (i + 1) * dt) for i in range(k)]
    value = combine_history(tableau(k).floats[2], samples)
    scale = max(1.0, max(abs(s) for s in samples))
    assert abs(value - q(1.0)) <= 1e-10 * scale


def test_combine_history_identity_and_constants():
    grid = Grid.sine1d(8)
    u = Field.from_spectral(grid, np.arange(1.0, 9.0))
    out = combine_history([1.0], [u])
    assert np.allclose(out.coeffs, u.coeffs)
    c = Field.from_physical(grid, np.full(8, 3.5))
    out = combine_history([2.0, -1.0], [c, c])
    assert np.allclose(out.values, 3.5)


def test_combine_history_linear_field_extrapolation():
    # fields sampled from q(t) = t at t^n and t^{n-1} extrapolate to t^{n+1}
    grid = Grid.sine1d(6)
    shape = Field.from_spectral(grid, np.eye(6)[1])
    dt, t1 = 0.2, 1.0
    hist = [(t1 - dt) * shape, (t1 - 2 * dt) * shape]
    out = combine_history(tableau(2).floats[2], hist)
    assert np.allclose(out.values, (t1 * shape).values, atol=1e-12)


def test_combine_history_errors():
    with pytest.raises(ValueError, match="insufficient history"):
        combine_history([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        combine_history([], [1.0])
    g1, g2 = Grid.sine1d(4), Grid.sine1d(5)
    a = Field.from_physical(g1, np.zeros(4))
    b = Field.from_physical(g2, np.zeros(5))
    from savbdf import GridMismatchError
    with pytest.raises(GridMismatchError):
        combine_history([1.0, 1.0], [a, b])

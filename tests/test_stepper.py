"""Core time-loop behavior: the frozen scalar oracle, invariants, startup."""

import math
import types
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft

import savbdf
from savbdf import (
    DivergenceError,
    Field,
    Grid,
    StepMode,
    allen_cahn,
    burgers,
    cahn_hilliard,
    fit_rate,
    initialize,
    run,
    scalar_decay,
    step,
    tableau,
    with_manufactured_forcing,
)
from savbdf.harness import random_smooth_field
from savbdf.stepper import MAX_STEPS, _make_record, step_count


# Frozen oracle, derived independently with exact rational arithmetic for
# u' + u = 0, E = u^2/2 + 1, K = u^2, u0 = 1, r0 = 3/2, dt = 1/10, order 1:
#   ubar1 = (u0/dt)/(1/dt + 1)                  = 10/11
#   E1    = ubar1^2/2 + 1                       = 171/121
#   K1    = ubar1^2                             = 100/121
#   r1    = r0/(1 + dt*K1/E1)                   = 513/362
#   xi1   = r1/E1                               = 363/362
#   eta1  = 1 - (1 - xi1)^3                     = 47437929/47437928
ORACLE = {
    "ubar1": Fraction(10, 11),
    "E1": Fraction(171, 121),
    "K1": Fraction(100, 121),
    "r1": Fraction(513, 362),
    "xi1": Fraction(363, 362),
    "eta1": Fraction(47437929, 47437928),
    "u1": Fraction(21562695, 23718964),
}


def test_scalar_oracle_first_step():
    p = scalar_decay()
    tab = tableau(1)
    state = initialize(p, tab, 0.1)
    assert state.r == pytest.approx(1.5, abs=1e-15)
    new = step(state, p, tab, 0.1)
    ubar = new.ubar
    assert ubar.coeffs[0] == pytest.approx(float(ORACLE["ubar1"]), abs=1e-12)
    assert p.energy(ubar) == pytest.approx(float(ORACLE["E1"]), abs=1e-12)
    assert p.dissipation(ubar) == pytest.approx(float(ORACLE["K1"]), abs=1e-12)
    assert new.r == pytest.approx(float(ORACLE["r1"]), abs=1e-12)
    assert new.last_xi == pytest.approx(float(ORACLE["xi1"]), abs=1e-12)
    assert new.last_eta == pytest.approx(float(ORACLE["eta1"]), abs=1e-12)
    assert new.u_history[0].coeffs[0] == pytest.approx(float(ORACLE["u1"]), abs=1e-12)
    assert new.r <= state.r


def test_zero_field_is_fixed_point():
    grid = Grid.fourier2d(16)
    p = allen_cahn(grid)
    tab = tableau(1)
    state = initialize(p, tab, 0.1, u0=Field.zeros(grid))
    r0 = state.r
    for _ in range(5):
        state = step(state, p, tab, 0.1)
        assert np.max(np.abs(state.u_history[0].values)) == 0.0
        assert state.r == r0  # K(0) = 0 keeps the scalar frozen


def test_exact_sav_fixed_point_has_unit_xi():
    # zero decay rate: ubar1 = u0, K = 0, r = E(u0), so xi = eta = 1 exactly
    p = scalar_decay(rate=0.0)
    p = replace(p, exact=None)
    u0 = Field.from_spectral(p.grid, np.array([1.0]))
    tab = tableau(1)
    state = initialize(p, tab, 0.1, u0=u0)
    new = step(state, p, tab, 0.1)
    assert new.last_xi == 1.0
    assert new.last_eta == 1.0
    assert new.u_history[0].coeffs[0] == pytest.approx(1.0, abs=1e-15)


def test_step_requires_full_history():
    p = scalar_decay()
    state = initialize(p, tableau(1), 0.1)
    with pytest.raises(ValueError, match="history"):
        step(state, p, tableau(3), 0.1)


def test_step_rejects_bad_dt():
    p = scalar_decay()
    state = initialize(p, tableau(1), 0.1)
    with pytest.raises(ValueError):
        step(state, p, tableau(1), 0.0)


def test_imex_mode_reports_unit_factors():
    p = scalar_decay()
    tab = tableau(1)
    state = initialize(p, tab, 0.1, mode=StepMode.IMEX)
    new = step(state, p, tab, 0.1, mode=StepMode.IMEX)
    assert new.last_xi == 1.0 and new.last_eta == 1.0
    assert new.r == state.r
    assert new.u_history[0].coeffs[0] == pytest.approx(float(ORACLE["ubar1"]), abs=1e-14)


def _rounded(x: Fraction, bits: int = 192) -> Fraction:
    """x to `bits` significant bits, so the exact recursion's operands stay small."""
    if x == 0:
        return x
    scale = Fraction(2) ** (bits - (abs(x.numerator).bit_length() - x.denominator.bit_length()))
    return Fraction(round(x * scale)) / scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(order=st.integers(min_value=1, max_value=5),
       log10_dt=st.floats(min_value=-3.0, max_value=1.0))
def test_scalar_oracle_over_many_steps(order, log10_dt):
    # ORACLE's derivation carried over 20 steps at any order: on u' + u = 0
    # (E = u^2/2 + 1, K = u^2, g = 0) a step is
    #   ubar = (sum_i a_i u^{n-i} / dt) / (alpha/dt + 1),
    #   r'   = r / (1 + dt K(ubar) / E(ubar)),  xi = r' / E(ubar),
    #   eta  = 1 - (1 - xi)^p,  u = eta * ubar,
    # after startup levels that are the exact samples, along which r takes
    # the same update.  Exact rationals, rounded to 192 bits per step.
    p, tab = scalar_decay(), tableau(order)
    dt = 10.0 ** log10_dt
    state = initialize(p, tab, dt)
    h = Fraction(dt)

    def energy(u):
        return u * u / 2 + 1

    def update(r, u):
        r = _rounded(r / (1 + h * u * u / energy(u)))
        xi = r / energy(u)
        return r, xi, 1 - (1 - xi) ** tab.eta_exponent

    # the startup levels are float samples of exp(-t); take them as given
    history = [Fraction(float(level.coeffs[0])) for level in state.u_history]
    r = Fraction(3, 2)
    for u in reversed(history[:-1]):
        r, _, _ = update(r, u)
    assert float(r) == pytest.approx(state.r, rel=1e-12)

    for _ in range(20):
        state = step(state, p, tab, dt)
        drift = sum(a * u for a, u in zip(tab.a_weights, history))
        ubar = _rounded(drift / h / (tab.alpha / h + 1))
        r, xi, eta = update(r, ubar)
        history = [_rounded(eta * ubar)] + history[: order - 1]
        for got, want in ((state.r, r), (state.last_xi, xi), (state.last_eta, eta),
                          (state.u_history[0].coeffs[0], history[0])):
            assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_imex_reproduces_classical_bdf_orders(k):
    # with g == 0 the corrected and classical schemes coincide; observed
    # order on u' = -u must match k
    p = scalar_decay()
    errs = []
    for j in range(4):
        dt = 0.1 * 2 ** -j
        rep = run(p, tableau(k), dt, 1.0, mode=StepMode.IMEX)
        errs.append((dt, rep.final.err_l2))
    pts = [(d, e) for d, e in errs if e > 1e-12]
    assert fit_rate(pts) == pytest.approx(k, abs=0.25)


def test_run_rejects_bad_horizons():
    p = scalar_decay()
    with pytest.raises(ValueError):
        run(p, tableau(1), 0.1, 0.05)  # T < dt
    with pytest.raises(ValueError):
        run(p, tableau(1), 0.3, 1.0)  # non-integral T/dt
    with pytest.raises(ValueError):
        run(p, tableau(5), 0.5, 1.0)  # cannot host the startup
    with pytest.raises(ValueError):
        run(p, tableau(1), 0.1, -1.0)


def test_run_records_are_monotone_in_time():
    p = scalar_decay()
    rep = run(p, tableau(3), 0.05, 1.0)
    times = [rec.t for rec in rep.records]
    assert times == sorted(times)
    assert rep.records[0].t == 0.0
    assert rep.final.t == pytest.approx(1.0)


def test_unforced_run_r_is_monotone():
    grid = Grid.fourier2d(32)
    p = allen_cahn(grid)
    u0 = random_smooth_field(grid, seed=5)
    for dt in (0.1, 1.0):
        rep = run(p, tableau(3), dt, 60 * dt, u0=u0)
        assert rep.monotone_violations == 0
        assert rep.min_r >= 0.0
        assert rep.min_xi >= 0.0
        assert rep.final.r <= rep.records[0].r


def test_eta_deviation_tracks_xi_power():
    grid = Grid.fourier2d(32)
    p = with_manufactured_forcing(allen_cahn(grid))
    tab = tableau(2)
    rep = run(p, tab, 1e-2, 0.5)
    bound = max(10.0 * rep.max_xi_deviation ** tab.eta_exponent, 1e-14)
    assert max(abs(1.0 - rec.eta) for rec in rep.records) <= bound


def test_forced_run_keeps_xi_near_one():
    grid = Grid.fourier2d(32)
    p = with_manufactured_forcing(allen_cahn(grid))
    rep = run(p, tableau(2), 1e-2, 1.0)
    assert rep.max_xi_deviation <= 0.05
    assert rep.final.err_l2 <= 1e-3


def test_divergence_raises_with_step_index():
    p = burgers(Grid.sine1d(320), nu=1.0 / 314.0)
    (x,) = p.grid.points
    u0 = Field.from_physical(p.grid, -np.sin(np.pi * x))
    with pytest.raises(DivergenceError, match="divergence detected at step") as exc:
        run(p, tableau(2), 0.02, 1.0, mode=StepMode.IMEX, u0=u0)
    assert type(exc.value.step_index) is int
    assert exc.value.step_index > 0


@pytest.mark.parametrize("dt, T", [(math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan)])
def test_step_count_rejects_non_finite_values(dt, T):
    with pytest.raises(ValueError, match="must be finite"):
        step_count(dt, T, 1)


def test_step_count_caps_the_run_length():
    assert step_count(1.0, float(MAX_STEPS), 1) == MAX_STEPS
    # the last case's T / dt overflows to inf
    for dt, T in ((1.0, float(MAX_STEPS + 1)), (1e-300, 1.0), (5e-324, 1.0)):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            step_count(dt, T, 1)


# -- initialization -------------------------------------------------------------------


def test_initialize_first_order_needs_no_warmup():
    p = scalar_decay()
    state = initialize(p, tableau(1), 0.25)
    assert state.step_index == 0
    assert len(state.u_history) == 1


def test_initialize_with_exact_samples():
    grid = Grid.fourier2d(32)
    p = with_manufactured_forcing(allen_cahn(grid))
    dt = 0.01
    state = initialize(p, tableau(3), dt)
    assert state.step_index == 2
    assert state.time == pytest.approx(2 * dt)
    for i, u in enumerate(state.u_history):
        t_i = (2 - i) * dt
        diff = u - p.exact.field(t_i)
        assert np.max(np.abs(diff.values)) == 0.0


def test_initialize_requires_u0_without_exact():
    grid = Grid.fourier2d(16)
    p = allen_cahn(grid)
    with pytest.raises(ValueError, match="u0"):
        initialize(p, tableau(2), 0.1)


def test_cascade_startup_keeps_second_order():
    # no exact solution attached: the cascade start must not degrade the
    # observed order of the scheme
    p = replace(scalar_decay(), exact=None)
    u0 = Field.from_spectral(Grid.sine1d(1), np.array([1.0]))
    errs = []
    for j in range(4):
        dt = 0.1 * 2 ** -j
        rep = run(p, tableau(2), dt, 1.0, u0=u0)
        final = rep.final_state.u_history[0].coeffs[0]
        errs.append((dt, abs(final - math.exp(-1.0))))
    slope = fit_rate(errs)
    assert slope == pytest.approx(2.0, abs=0.4)


def test_cascade_startup_counts_levels():
    grid = Grid.fourier2d(16)
    p = allen_cahn(grid)
    u0 = 0.3 * random_smooth_field(grid, seed=2)
    state = initialize(p, tableau(4), 0.05, u0=u0)
    assert state.step_index == 3
    assert len(state.u_history) == 4
    assert state.time == pytest.approx(0.15)


def test_ch_mass_extrapolation_identity():
    # mode-(0,0) of the uncorrected update equals the weighted history mean
    from savbdf import cahn_hilliard, combine_history

    grid = Grid.fourier2d(32)
    p = cahn_hilliard(grid)
    u0 = random_smooth_field(grid, seed=6) + Field.from_physical(
        grid, np.full(grid.extents, 0.2))
    tab = tableau(2)
    state = initialize(p, tab, 0.1, u0=u0)
    for _ in range(5):
        new = step(state, p, tab, 0.1)
        expected = combine_history(tab.floats[1], state.u_history).coeffs[0, 0] / float(tab.alpha)
        got = new.ubar.coeffs[0, 0]
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
        state = new


def test_energy_positivity_error_is_exported():
    assert savbdf.EnergyPositivityError is savbdf.stepper.EnergyPositivityError
    assert "EnergyPositivityError" in savbdf.__all__


# -- property: the scalar invariants hold for any dt -----------------------------------


PROPERTY_PROBLEMS = {
    "allen_cahn": lambda: allen_cahn(Grid.fourier2d(16)),
    "allen_cahn_stab1": lambda: allen_cahn(Grid.fourier2d(16), stabilization=1.0),
    "cahn_hilliard": lambda: cahn_hilliard(Grid.fourier2d(16)),
    "cahn_hilliard_stab1": lambda: cahn_hilliard(Grid.fourier2d(16), stabilization=1.0),
    "burgers": lambda: burgers(Grid.sine1d(32), nu=1.0 / 314.0),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(PROPERTY_PROBLEMS)),
       order=st.integers(min_value=1, max_value=5),
       log10_dt=st.floats(min_value=-4.0, max_value=2.0),
       seed=st.integers(min_value=0, max_value=10_000))
def test_unforced_invariants_hold_for_any_dt(name, order, log10_dt, seed):
    p = PROPERTY_PROBLEMS[name]()
    dt = 10.0 ** log10_dt
    rep = run(p, tableau(order), dt, 12 * dt, u0=random_smooth_field(p.grid, seed=seed))
    assert rep.monotone_violations == 0
    assert all(rec.r >= 0.0 and rec.xi >= 0.0 for rec in rep.records)
    if p.name == "cahn_hilliard":
        assert rep.mean_drift <= 1e-12


# -- transform budget ------------------------------------------------------------


def _count_transforms(monkeypatch):
    counts = {"fwd": 0, "inv": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    proxy = types.SimpleNamespace(dst=fft.dst, dct=fft.dct,
                                  rfft2=counted(fft.rfft2, "fwd"),
                                  irfft2=counted(fft.irfft2, "inv"))
    monkeypatch.setattr(savbdf.spectral, "_fft", proxy)
    return counts


@pytest.mark.parametrize("name, order, fwd, inv", [
    # forced: F' of the extrapolation, of ubar (shared by K and the forcing
    # power) and of the exact sample in f; one inverse for E(ubar)
    ("allen_cahn_forced", 1, 3, 1),
    ("allen_cahn_forced", 3, 3, 1),
    ("allen_cahn", 1, 2, 1),
    ("allen_cahn", 5, 2, 1),
    ("cahn_hilliard", 1, 2, 1),
    ("cahn_hilliard", 5, 2, 1),
])
def test_steady_step_transform_budget(monkeypatch, name, order, fwd, inv):
    # one step after the startup plus its trace record, on 32^2
    grid = Grid.fourier2d(32)
    if name == "allen_cahn_forced":
        p, u0 = with_manufactured_forcing(allen_cahn(grid)), None
    else:
        p = allen_cahn(grid) if name == "allen_cahn" else cahn_hilliard(grid)
        u0 = random_smooth_field(grid, seed=2)
    tab, dt = tableau(order), 0.01
    state = initialize(p, tab, dt, u0=u0)
    for _ in range(2):
        state = step(state, p, tab, dt)
        _make_record(p, state)
    counts = _count_transforms(monkeypatch)
    _make_record(p, step(state, p, tab, dt))
    assert counts["fwd"] <= fwd and counts["inv"] <= inv, counts

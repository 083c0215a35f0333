"""Core time-loop behavior: the frozen scalar oracle, invariants, startup."""

import math
import types
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import fft

import savbdf
from savbdf import (
    DivergenceError,
    ExactSolution,
    Field,
    Grid,
    ProblemDefinition,
    StepMode,
    advance,
    allen_cahn,
    burgers,
    cahn_hilliard,
    fit_rate,
    initialize,
    run,
    scalar_decay,
    stability_probe,
    step,
    tableau,
    with_manufactured_forcing,
)
from savbdf.harness import random_smooth_field
from savbdf.stepper import MAX_STEPS, ZERO_LEVEL, _make_record, step_count


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


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.1])
def test_step_and_initialize_reject_non_finite_dt(dt):
    # nan and inf once reached the scheme and failed there, as a divergence,
    # an indefinite solve, a math domain error or a non-positive energy
    grid = Grid.fourier2d(16)
    p, tab = allen_cahn(grid), tableau(2)
    state = initialize(p, tab, 0.01, u0=random_smooth_field(grid, seed=1))
    with pytest.raises(savbdf.SettingError, match="dt must be positive and finite") as exc:
        step(state, p, tab, dt)
    assert exc.value.setting == "dt"
    with pytest.raises(savbdf.SettingError, match="dt must be positive and finite") as exc:
        initialize(with_manufactured_forcing(p), tableau(3), dt)
    assert exc.value.setting == "dt"


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


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_correction_order_at_every_k(order):
    # xi is first order in dt, and eta = 1 - (1 - xi)^p of order p = 3, 3, 4, 5, 6:
    # per halving of dt, max |1 - xi| shrinks by 2 and max |1 - eta| by about
    # 2^p, which is what keeps the scheme order k.  A |1 - eta| at or below
    # 1e-13 is rounding (at k = 5 it reaches exactly 0), so it enters no ratio.
    p = with_manufactured_forcing(allen_cahn(Grid.fourier2d(32)))
    tab = tableau(order)
    xi_dev, eta_dev = [], []
    for dt in (0.02, 0.01, 0.005):
        rep = run(p, tab, dt, 1.0)
        xi_dev.append(rep.max_xi_deviation)
        eta_dev.append(max(abs(1.0 - rec.eta) for rec in rep.records))
        assert eta_dev[-1] <= max(10.0 * xi_dev[-1] ** tab.eta_exponent, 1e-14)
    for coarse, fine in zip(xi_dev, xi_dev[1:]):
        assert 1.9 <= coarse / fine <= 2.1
    rates = [coarse / fine for coarse, fine in zip(eta_dev, eta_dev[1:]) if coarse > 1e-13]
    assert rates
    for rate in rates:
        assert 0.9 <= rate / 2 ** max(order + 1, 3) <= 1.15


@pytest.mark.parametrize("order", [1, 3, 5])
def test_forcing_is_evaluated_once_per_level(order):
    # f(t^{n+1}) feeds both g - f and the scalar update's work: one evaluation serves both
    q = with_manufactured_forcing(allen_cahn(Grid.fourier2d(16)))
    times = []

    def counted(t, forcing=q.forcing):
        times.append(t)
        return forcing(t)

    advance(replace(q, forcing=counted), tableau(order), 0.1, 1.0)
    assert len(times) == len(set(times)) == 10


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


@pytest.mark.parametrize("order", [1, 2])
def test_huge_correction_factor_is_a_divergence(order):
    # E(ubar) stays tiny against a huge stabilization, so xi is finite but huge
    # and (1 - xi)**p overflows; order 1 meets it in step, order 2 in initialize
    p = with_manufactured_forcing(allen_cahn(Grid.fourier2d(16), stabilization=1e300))
    with pytest.raises(DivergenceError, match="non-finite correction factor") as exc:
        run(p, tableau(order), 0.1, 1.0)
    assert exc.value.step_index == 1


@pytest.mark.parametrize("name, mode", [("forced", StepMode.SAV), ("unforced", StepMode.SAV),
                                        ("unforced", StepMode.IMEX)])
def test_advance_is_run_without_records(name, mode):
    # the records never feed back into the state: with no sink the final
    # state is the recorded run's bit for bit, and a sink gets run's records
    grid = Grid.fourier2d(16)
    p = allen_cahn(grid)
    u0 = random_smooth_field(grid, seed=2)
    if name == "forced":
        p, u0 = with_manufactured_forcing(p), None
    tab = tableau(3)
    rep = run(p, tab, 0.05, 0.5, mode=mode, u0=u0)
    sink = []
    for final in (advance(p, tab, 0.05, 0.5, mode, u0), advance(p, tab, 0.05, 0.5, mode, u0, sink)):
        assert (final.step_index, final.time, final.r, final.last_xi, final.last_eta) == (
            rep.final_state.step_index, rep.final_state.time, rep.final_state.r,
            rep.final_state.last_xi, rep.final_state.last_eta)
        for got, want in zip(final.u_history, rep.final_state.u_history, strict=True):
            assert np.array_equal(got.values, want.values)
    assert sink == rep.records


def _burgers_case(order, mode=StepMode.SAV):
    grid = Grid.sine1d(32)
    (x,) = grid.points
    return (lambda: burgers(grid, nu=0.05), Field.from_physical(grid, -np.sin(np.pi * x)), order, 0.01, 12,
            mode)


def _phase_case(maker, n, order, dt, n_steps, seed=2, mode=StepMode.SAV):
    grid = Grid.fourier2d(n)
    return lambda: maker(grid), random_smooth_field(grid, seed=seed), order, dt, n_steps, mode


def _forced_case(maker, order, mode=StepMode.SAV):
    # startup levels are exact samples
    grid = Grid.fourier2d(16)
    return lambda: with_manufactured_forcing(maker(grid)), None, order, 0.01, 8, mode


IMEX = StepMode.IMEX
RECORD_CASES = {
    **{f"allen_cahn_k{k}": _phase_case(allen_cahn, 16, k, 0.01, 12) for k in range(1, 6)},
    **{f"cahn_hilliard_k{k}": _phase_case(cahn_hilliard, 16, k, 0.001, 12) for k in range(1, 6)},
    **{f"burgers_k{k}": _burgers_case(k) for k in range(1, 6)},
    # eta reaches -0.985 at step 72
    "cahn_hilliard_negative_eta": _phase_case(cahn_hilliard, 64, 3, 0.001, 100, seed=0),
    # (L u, u) collapses to about 1e-78 while IMEX stays at 0.17
    "cahn_hilliard_collapsed": _phase_case(cahn_hilliard, 64, 3, 0.01, 200, seed=0),
    "allen_cahn_k3_imex": _phase_case(allen_cahn, 16, 3, 0.01, 12, mode=IMEX),
    "cahn_hilliard_k5_imex": _phase_case(cahn_hilliard, 16, 5, 0.001, 12, mode=IMEX),
    "cahn_hilliard_collapsed_imex": _phase_case(cahn_hilliard, 64, 3, 0.01, 200, seed=0, mode=IMEX),
    "burgers_k4_imex": _burgers_case(4, IMEX),
    "allen_cahn_forced_k3": _forced_case(allen_cahn, 3),
    "cahn_hilliard_forced_k5": _forced_case(cahn_hilliard, 5),
    "allen_cahn_forced_k4_imex": _forced_case(allen_cahn, 4, IMEX),
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_sav_record_matches_a_fresh_evaluation_of_the_new_level(case):
    # E(u) and (L u, u) are computed where a level is made: evaluated on it at
    # a startup level (exact sample or cascade) and on an IMEX step, in closed
    # form from ubar's terms with u = eta * ubar on a SAV step.  A problem that
    # never saw the level must give the same values: the same bits where the
    # level was evaluated, rel 1e-13 for the closed form
    make, u0, order, dt, n_steps, mode = RECORD_CASES[case]
    p, fresh, tab = make(), make(), tableau(order)
    records = run(p, tab, dt, n_steps * dt, mode, u0).records
    state = initialize(p, tab, dt, u0=u0, mode=mode)
    levels = [*reversed(state.u_history)]
    while state.step_index < n_steps:
        state = step(state, p, tab, dt, mode)
        levels.append(state.u_history[0])
    assert len(levels) == len(records) == n_steps + 1
    for rec, u in zip(records, levels):
        want = (fresh.energy(u), fresh.principal_norm_sq(u))
        if rec.step < order or mode is IMEX:
            assert (rec.energy, rec.principal_norm_sq) == want, rec.step
        else:
            assert rec.energy == pytest.approx(want[0], rel=1e-13, abs=0.0), rec.step
            assert rec.principal_norm_sq == pytest.approx(want[1], rel=1e-13, abs=0.0), rec.step
    # the problem keeps nothing of the fields it evaluated: its fields and cached symbols
    cached = {name for name, attr in vars(ProblemDefinition).items() if isinstance(attr, cached_property)}
    assert set(vars(p)) <= {f.name for f in fields(p) if f.init} | cached
    etas = [rec.eta for rec in records[order:]]
    if case == "cahn_hilliard_negative_eta":
        assert min(etas) < -0.9
    elif case == "cahn_hilliard_collapsed":
        assert records[-1].principal_norm_sq < 1e-70
    else:
        assert max(abs(1.0 - e) for e in etas) < 1e-2


# -- the step against the scheme written out in plain numpy ---------------------------


def _plain_transforms(grid):
    """(forward, inverse) in the library's normalization, as plain scipy calls."""
    if grid.basis is savbdf.Basis.FOURIER2D:
        return (lambda v: fft.rfft2(v, norm="forward"),
                lambda c: fft.irfft2(c, s=grid.extents, norm="forward"))
    n = grid.extents[0]
    return lambda v: fft.dst(v, type=1) / (n + 1), lambda c: fft.dst(c, type=1) / 2.0


def _plain_forcing(p, forward):
    """f(t) of `with_manufactured_forcing`: cos t P + sin t (A - (lam + 1) G_d) P + sin^3 t G_d (p^3)^."""
    x, y = p.grid.points
    profile = np.exp(np.sin(np.pi * x) * np.sin(np.pi * y))
    big_p = forward(profile)
    g_d = p.mobility_symbol * (p.grid.dealias_mask.real != 0)
    linear = (p.linear_symbol - (p.stabilization + 1.0) * g_d) * big_p
    cubic = g_d * forward(profile ** 3)

    def forcing(t):
        c = math.cos(t) * big_p + math.sin(t) * linear
        c += math.sin(t) ** 3 * cubic
        return c

    return forcing, lambda t: math.sin(t) * big_p


def _plain_sav_steps(p, tab, dt, state, n_steps):
    """n_steps SAV steps and their records from `state`, as the formulas read.

    The symbols are the real ones, products mix real symbols with complex
    coefficients, and the solve divides.  The operation order is the
    scheme's: the drift is multiplied by 1/dt, g - f is formed before it is
    subtracted, and the record's E(eta ubar) is the closed form in the sums
    of w = ubar^2 - 1.  A level's values are eta times ubar's on the
    double well, where E(ubar) computed them, and its own transform else.
    """
    grid = p.grid
    forward, inverse = _plain_transforms(grid)
    fourier = grid.basis is savbdf.Basis.FOURIER2D
    mask = grid.dealias_mask.real != 0
    mult = grid._mult.real
    norm = grid.volume if fourier else grid.volume / 2.0  # Parseval's factor
    cell, vol, c_shift = grid.cell_volume, grid.volume, p.c_shift
    L, G, A = p.principal_symbol, p.mobility_symbol, p.linear_symbol
    alpha, a, b = tab.floats
    forcing, exact = _plain_forcing(p, forward) if p.forcing is not None else (None, None)

    def quadratic(weight, c):
        return float(norm * np.vdot(c, weight * c).real)

    values = [u.values for u in state.u_history]
    coeffs = [u.coeffs for u in state.u_history]
    r, t = state.r, state.time
    out = []
    for _ in range(n_steps):
        t = t + dt
        drift, ext = a[0] * coeffs[0], b[0] * values[0]
        for i in range(1, tab.order):
            drift = drift + a[i] * coeffs[i]
            ext = ext + b[i] * values[i]
        if p.has_double_well:
            g = (G * mask) * forward(ext * (ext * ext - 1.0))
        else:  # Burgers: G = 0 on F' - lam u, and the transport u u_x
            ext_c = forward(ext)
            padded = np.zeros(grid.extents[0] + 2)
            padded[1:-1] = ext_c * np.sqrt(grid.k2) / 2.0
            u_x = fft.dct(padded, type=1)[1:-1]
            g = np.zeros(grid.spectral_shape) + forward(ext * u_x) * mask
        if forcing is not None:
            g = g - forcing(t)
        ubar = (drift * (1.0 / dt) - g) / (alpha / dt + A)

        quad = quadratic(mult * L, ubar)
        energy = 0.5 * quad + c_shift * vol
        grad = L * ubar
        if p.has_double_well:
            v = inverse(ubar)
            w = v * v - 1.0
            sum_w, sum_w2 = float(w.sum()), float(np.vdot(w, w))
            energy += 0.25 * sum_w2 * cell
            grad = grad + forward(v * w) * mask
        kappa = quadratic(mult * G, grad)
        work = 0.0 if forcing is None else float(norm * np.vdot(grad, mult * forcing(t)).real)
        r = (r + dt * work) / (1.0 + dt * kappa / energy)
        xi = r / energy
        eta = 1.0 - (1.0 - xi) ** tab.eta_exponent

        u_c = eta * ubar
        u_v = eta * v if p.has_double_well else inverse(u_c)
        s2 = eta * eta
        rec_energy = 0.5 * (s2 * quad) + c_shift * vol
        if p.has_double_well:
            d = s2 - 1.0
            rec_energy += 0.25 * (cell * (s2 * s2 * sum_w2 + 2.0 * s2 * d * sum_w) + vol * d * d)
        mean = u_c[0, 0].real if fourier else float(u_v.sum() * cell / vol)
        errors = (None, None, None)
        if exact is not None:
            diff = u_c - exact(t)
            errors = tuple(float(np.sqrt(quadratic(mult * (1.0 + grid.k2) ** s, diff)))
                           for s in (0.0, 1.0, 2.0))
        out.append((ubar, u_c, u_v, (t, r, xi, eta, rec_energy, s2 * quad, mean, *errors)))
        values, coeffs = [u_v] + values, [u_c] + coeffs
    return out


def _oracle_case(name, order, dt):
    if name == "burgers":
        grid = Grid.sine1d(32)
        (x,) = grid.points
        return burgers(grid, nu=0.05), Field.from_physical(grid, -np.sin(np.pi * x)), order, dt
    grid = Grid.fourier2d(16)
    if name == "allen_cahn_forced":
        return with_manufactured_forcing(allen_cahn(grid)), None, order, dt
    maker = allen_cahn if name == "allen_cahn" else cahn_hilliard
    return maker(grid), random_smooth_field(grid, seed=3), order, dt


ORACLE_CASES = {
    **{f"{name}_k{k}_dt{dt}": (name, k, dt)
       for name in ("allen_cahn", "cahn_hilliard") for k in range(1, 6) for dt in (0.01, 1.0)},
    "allen_cahn_forced_k3_dt0.01": ("allen_cahn_forced", 3, 0.01),
    "burgers_k1_dt0.01": ("burgers", 1, 0.01),
    "burgers_k2_dt0.01": ("burgers", 2, 0.01),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_sav_step_matches_the_scheme_in_plain_numpy(case):
    # the library stores its step-path symbols in the coefficient dtype and
    # solves by a reciprocal multiply; numpy casts a real operand to r + 0j
    # and divides a + bi by d as (a + b*0) * fl(1/d), so both give the
    # formulas' values exactly.  array_equal counts +0 and -0 as equal: the
    # sign of a zero part is all the reciprocal may change.
    p, u0, order, dt = _oracle_case(*ORACLE_CASES[case])
    tab, n_steps = tableau(order), 6
    state = initialize(p, tab, dt, u0=u0)
    want = _plain_sav_steps(p, tab, dt, state, n_steps)
    for ubar, u_c, u_v, scalars in want:
        state = step(state, p, tab, dt)
        rec = _make_record(p, state)
        u = state.u_history[0]
        assert np.array_equal(state.ubar.coeffs, ubar), state.step_index
        assert np.array_equal(u.coeffs, u_c) and np.array_equal(u.values, u_v), state.step_index
        assert (rec.t, rec.r, rec.xi, rec.eta, rec.energy, rec.principal_norm_sq, rec.mean,
                rec.err_l2, rec.err_h1, rec.err_h2) == scalars, state.step_index
        assert (state.r, state.last_xi, state.last_eta) == scalars[1:4]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_collapsed_levels_are_exact_zeros_with_the_oracles_records(order):
    # at dt = 1 the correction drives Allen-Cahn to 0 geometrically (seed 1 reaches
    # the cut at every order within 300 steps).  A level below ZERO_LEVEL, where
    # max|u| * eps < tiny, is stored as exact zeros in both representations; the
    # unflushed oracle carries on in subnormals, and the trace columns match it
    # bit for bit.  The mean is no trace column: it may differ below the cut
    p = allen_cahn(Grid.fourier2d(16))
    tab, dt = tableau(order), 1.0
    state = initialize(p, tab, dt, u0=random_smooth_field(p.grid, seed=1))
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    assert ZERO_LEVEL * eps == tiny
    zeros = 0
    for ubar, u_c, u_v, scalars in _plain_sav_steps(p, tab, dt, state, 300):
        state = step(state, p, tab, dt)
        rec, u = _make_record(p, state), state.u_history[0]
        assert (rec.t, rec.r, rec.xi, rec.eta, rec.energy, rec.principal_norm_sq) == scalars[:6], rec.step
        assert abs(rec.mean - scalars[6]) <= ZERO_LEVEL, rec.step
        if np.abs(u.values).max() * eps < tiny or np.abs(u_v).max() * eps < tiny:
            assert u._phys is not None and u._spec is not None, rec.step
            assert not u._phys.any() and not u._spec.any(), rec.step
            zeros += 1
    assert zeros > 0


def _held_zeros(levels):
    """True if every level holds both representations and both are exact zeros."""
    return all(u._phys is not None and u._spec is not None and not u._phys.any() and not u._spec.any()
               for u in levels)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_equilibrium_steps_make_no_transform(monkeypatch, order):
    # the collapse test's setup.  Once every level a step reads is exact zeros, the
    # step is at the equilibrium u = 0 of the unforced problem: it and its record make
    # no transform, except that the first may build the problem's zero terms (one
    # forward transform), and the scalars stay the oracle's, bit for bit
    p = allen_cahn(Grid.fourier2d(16))
    tab, dt = tableau(order), 1.0
    state = initialize(p, tab, dt, u0=random_smooth_field(p.grid, seed=1))
    want = _plain_sav_steps(p, tab, dt, state, 300)
    counts = _count_transforms(monkeypatch)
    resting = []
    for *_, scalars in want:
        at_rest = _held_zeros(state.u_history[:order])
        before = dict(counts)
        state = step(state, p, tab, dt)
        rec = _make_record(p, state)
        assert (rec.t, rec.r, rec.xi, rec.eta, rec.energy, rec.principal_norm_sq) == scalars[:6], rec.step
        if at_rest:
            assert _held_zeros(state.u_history[:1]), rec.step
            resting.append((counts["fwd"] - before["fwd"], counts["inv"] - before["inv"]))
    assert len(resting) > 1
    assert resting[0] in ((0, 0), (1, 0)) and set(resting[1:]) == {(0, 0)}, resting[:3]


@pytest.mark.parametrize("order", [1, 3, 5])
def test_a_step_at_rest_scans_no_level(monkeypatch, order):
    # a step tells the equilibrium by identity with the problem's zero level, which
    # every flush and `initialize` store: it scans none of its levels, and keeps r and the
    # zeros, also from a zero u0 held in another object
    p, dt = allen_cahn(Grid.fourier2d(16)), 0.1
    tab, zero = tableau(order), p.zero_update[0]
    scanned = []
    max_abs = Field.max_abs
    monkeypatch.setattr(Field, "max_abs", lambda u: scanned.append(u) or max_abs(u))
    for u0 in (zero, Field.zeros(p.grid)):
        state = initialize(p, tab, dt, u0=u0)
        assert len(scanned) == 1 and all(u is zero for u in state.u_history)  # u0's scan alone
        r0 = state.r
        scanned.clear()
        for _ in range(5):
            state = step(state, p, tab, dt)
            assert state.r == r0 and not state.u_history[0].values.any(), state.step_index
        assert len(scanned) == 0, f"{len(scanned)} scans over five steps at rest"
        assert all(u is zero for u in state.u_history[:order])


@pytest.mark.parametrize("order", [1, 3, 5])
def test_forced_run_from_zeros_is_no_equilibrium(monkeypatch, order):
    # a forcing drives u = 0 away: each step is the scheme's, with its steady budget
    grid = Grid.fourier2d(16)
    p, tab, dt = with_manufactured_forcing(allen_cahn(grid)), tableau(order), 0.01
    state = initialize(p, tab, dt, u0=Field.zeros(grid))
    want = _plain_sav_steps(p, tab, dt, state, 6)
    counts = _count_transforms(monkeypatch)
    for ubar, u_c, u_v, scalars in want:
        before = dict(counts)
        state = step(state, p, tab, dt)
        assert (counts["fwd"] - before["fwd"], counts["inv"] - before["inv"]) == (2, 1), state.step_index
        rec = _make_record(p, state)
        assert np.array_equal(state.ubar.coeffs, ubar) and np.array_equal(state.u_history[0].coeffs, u_c)
        assert (rec.t, rec.r, rec.xi, rec.eta, rec.energy, rec.principal_norm_sq, rec.mean,
                rec.err_l2, rec.err_h1, rec.err_h2) == scalars, state.step_index
        assert rec.principal_norm_sq > 0.0


@pytest.mark.parametrize("mode", list(StepMode))
@pytest.mark.parametrize("maker", [allen_cahn, cahn_hilliard])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_zero_start_stays_at_the_equilibrium(maker, order, mode):
    # the cascade start and every step from u = 0 read zeros only: they keep r and make zeros
    p, tab, dt = maker(Grid.fourier2d(16)), tableau(order), 0.1
    rep = run(p, tab, dt, 10 * dt, mode, Field.zeros(p.grid))
    state = rep.final_state
    assert _held_zeros(state.u_history) and _held_zeros([state.ubar])
    assert {rec.r for rec in rep.records} == {rep.records[0].r}
    assert all(rec.principal_norm_sq == 0.0 and rec.mean == 0.0 for rec in rep.records)


def test_non_finite_history_is_an_uncorrected_divergence():
    # a nan in the history reaches ubar through the solve; both modes stop at
    # the next step's index before the scalar update sees it
    grid = Grid.fourier2d(16)
    p, tab = allen_cahn(grid), tableau(2)
    for mode in StepMode:
        state = initialize(p, tab, 0.1, u0=random_smooth_field(grid, seed=1), mode=mode)
        values = state.u_history[0].values.copy()
        values[3, 5] = np.nan
        state = state._replace(step_index=7, u_history=(Field.from_physical(grid, values),
                                                        *state.u_history[1:]))
        with pytest.raises(DivergenceError, match="non-finite uncorrected solution") as exc:
            step(state, p, tab, 0.1, mode)
        assert exc.value.step_index == 8


def test_overflowing_correction_is_a_corrected_divergence():
    # r far above E(ubar): xi ~ 1e100, so (1 - xi)^3 ~ -1e300 and eta ~ 1e300 are
    # finite, and ubar ~ 1e10 is finite, but eta * ubar overflows
    p, tab = scalar_decay(), tableau(1)
    state = initialize(p, tab, 0.1, u0=Field.from_spectral(p.grid, np.array([1e10])))
    state = state._replace(step_index=4, r=1e120)
    with pytest.raises(DivergenceError, match="non-finite corrected solution") as exc:
        step(state, p, tab, 0.1)
    assert exc.value.step_index == 5


@pytest.mark.parametrize("name", ["allen_cahn", "cahn_hilliard", "allen_cahn_forced", "burgers"])
def test_step_path_arrays_are_read_only_in_the_coefficient_dtype(name):
    # every cached array that multiplies coefficients on the step and record
    # path is built once in the grid's coefficient dtype, so no product
    # casts it; a sine grid stays real, so Burgers keeps float64 coefficients
    p, u0, _, dt = _oracle_case(name, 2, 0.01)
    tab = tableau(2)
    state = initialize(p, tab, dt, u0=u0)
    for _ in range(2):
        state = step(state, p, tab, dt)
        _make_record(p, state)
    grid = p.grid
    dtype = np.complex128 if grid.basis is savbdf.Basis.FOURIER2D else np.float64
    assert grid.coeff_dtype == dtype
    solved_shift, solved_symbol, _, factor, _ = savbdf.spectral._last_solve
    assert solved_symbol is p.linear_symbol and solved_shift == tab.floats[0] / dt
    cached = {
        "dealias_mask": grid.dealias_mask,
        "_mult": grid._mult,
        **{f"_sobolev_weight({s})": grid._sobolev_weight(s) for s in (0.0, 1.0, 2.0)},
        **{attr: getattr(p, attr) for attr in ("_gradient_symbol", "_dealiased_mobility",
                                                "_weighted_principal", "_weighted_mobility")},
        "solve factor": factor,
    }
    for label, arr in cached.items():
        assert arr.dtype == dtype, label
        assert not arr.flags.writeable, label
    for u in (*state.u_history, state.ubar):
        assert u.coeffs.dtype == dtype


@pytest.mark.parametrize("dt, T", [(math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan)])
def test_step_count_rejects_non_finite_values(dt, T):
    with pytest.raises(ValueError, match="must be positive and finite"):
        step_count(dt, T, 1)


def test_step_count_divides_a_tiny_horizon_relative_to_it():
    assert step_count(2.5e-11, 1e-10, 1) == 4
    with pytest.raises(savbdf.SettingError, match="does not divide T = 1e-10") as exc:
        step_count(3e-11, 1e-10, 1)
    assert exc.value.setting == "dt"


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


@pytest.mark.parametrize("mode", list(StepMode))
def test_nan_exact_sample_is_a_divergence_of_the_solution(mode):
    # a startup level is scanned like a stepped one: its nan stops the run at its level,
    # in IMEX mode too, which makes no scalar update along it
    p = with_manufactured_forcing(allen_cahn(Grid.fourier2d(16)))
    exact = p.exact

    def field(t):
        u = exact.field(t)
        return Field.from_physical(p.grid, np.full_like(u.values, math.nan)) if t == 0.1 else u

    p = replace(p, exact=ExactSolution(field, exact.time_derivative))
    with pytest.raises(DivergenceError, match="non-finite solution") as exc:
        advance(p, tableau(3), 0.1, 1.0, mode=mode)
    assert exc.value.step_index == 1


@pytest.mark.parametrize("mode", list(StepMode))
def test_nan_u0_is_a_divergence_at_step_0(mode):
    grid = Grid.fourier2d(16)
    values = random_smooth_field(grid, seed=1).values.copy()
    values[3, 5] = np.nan
    with pytest.raises(DivergenceError, match="step 0: non-finite solution") as exc:
        initialize(allen_cahn(grid), tableau(3), 0.1, u0=Field.from_physical(grid, values), mode=mode)
    assert exc.value.step_index == 0


def test_manufactured_level_0_is_the_zero_level():
    # the manufactured solution vanishes at t = 0: its sample is stored as the one zero level
    p = with_manufactured_forcing(allen_cahn(Grid.fourier2d(16)))
    assert initialize(p, tableau(3), 0.01).u_history[-1] is p.zero_update[0]


@pytest.mark.parametrize("order, dt", [(1, 5e-324), (2, 2e-323), (3, 1e-320)])
def test_a_step_whose_shift_overflows_is_a_dt_setting_error(order, dt):
    # alpha_k/dt = inf is a bad dt, not a divergence; a cascade start checks its substeps
    grid = Grid.fourier2d(8)
    p, u0 = allen_cahn(grid), random_smooth_field(grid, seed=1)
    with pytest.raises(savbdf.SettingError, match="too small: alpha_k/dt overflows") as exc:
        advance(p, tableau(order), dt, order * dt, u0=u0)
    assert exc.value.setting == "dt"


@pytest.mark.parametrize("mode", list(StepMode))
def test_initialize_makes_one_energy_pass_per_exact_level(monkeypatch, mode):
    # an exact-sample level is u itself: in SAV mode its E and (L u, u) come
    # from the terms of the scalar update along it, with no second pass
    p = with_manufactured_forcing(allen_cahn(Grid.fourier2d(16)))
    p.zero_update  # level 0 is exact zeros: the problem's zero level, built once with its terms
    calls = []
    terms = ProblemDefinition.energy_terms
    monkeypatch.setattr(ProblemDefinition, "energy_terms", lambda self, u: calls.append(u) or terms(self, u))
    state = initialize(p, tableau(3), 0.01, mode=mode)
    assert len(calls) == len(state.u_history) == 3


def _overflowing_start():
    # (L u, u) is 0 for a constant, but u^2 - 1 overflows: E(u0) is inf
    grid = Grid.fourier2d(8)
    return allen_cahn(grid), Field.from_physical(grid, np.full((8, 8), 1e160))


def test_initialize_reads_an_overflowing_energy_as_inf():
    p, u0 = _overflowing_start()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = initialize(p, tableau(1), 0.1, u0=u0)
    assert state.r == state.energy == math.inf


@pytest.mark.parametrize("mode", list(StepMode))
def test_initialize_from_an_overflowing_start_is_a_divergence(mode):
    p, u0 = _overflowing_start()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as exc:
            initialize(p, tableau(3), 0.1, u0=u0, mode=mode)
    assert exc.value.step_index == 1


def test_initialize_requires_u0_without_exact():
    grid = Grid.fourier2d(16)
    p = allen_cahn(grid)
    with pytest.raises(ValueError, match="u0"):
        initialize(p, tableau(2), 0.1)


def test_u0_on_another_grid_is_a_grid_mismatch():
    # rather than a numpy broadcast error at the first product
    ac = allen_cahn(Grid.fourier2d(16))
    coarse = random_smooth_field(Grid.fourier2d(8))
    for mode in StepMode:
        with pytest.raises(savbdf.SettingError, match="u0") as exc:
            run(ac, tableau(2), 0.1, 1.0, mode, u0=coarse)
        assert exc.value.setting == "u0"
    with pytest.raises(savbdf.SettingError, match="u0") as exc:
        stability_probe(ac, 2, 0.1, 10, u0=coarse)
    assert exc.value.setting == "u0"
    with pytest.raises(savbdf.SettingError, match="u0") as exc:
        run(burgers(Grid.sine1d(16), 0.1), tableau(2), 0.1, 1.0, u0=random_smooth_field(ac.grid))
    assert exc.value.setting == "u0"


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
       log10_dt=st.one_of(st.floats(min_value=-4.0, max_value=2.0),
                          st.floats(min_value=2.0, max_value=300.0)),
       seed=st.integers(min_value=0, max_value=10_000))
@example(name="allen_cahn", order=5, log10_dt=300.0, seed=0)  # the range's end, on each PDE
@example(name="cahn_hilliard", order=3, log10_dt=300.0, seed=1)
@example(name="burgers", order=1, log10_dt=300.0, seed=2)
def test_unforced_invariants_hold_for_any_dt(name, order, log10_dt, seed):
    # the paper's uniform bound in the L-norm.  Unforced, r <= r0 at every level,
    # and F >= 0 gives E(ubar) >= 1/2 (L ubar, ubar) + C0 with C0 = c_shift |Omega|,
    # so xi = r / E(ubar) <= r0 / C0 and (L u, u) = eta^2 (L ubar, ubar) < 2 eta^2 r / xi.
    # If xi <= 2, |eta| = |1 - (1 - xi)^p| <= p xi, so (L u, u) <= 2 p^2 xi r <= 4 p^2 r0;
    # otherwise |eta| <= 1 + (xi - 1)^p with xi <= r0 / C0, and 2 / xi < 1, so
    # (L u, u) < r0 (1 + (r0 / C0 - 1)^p)^2.  The cascade's levels are corrected steps
    # too, and u0 has (L u0, u0) < 2 r0
    p, tab = PROPERTY_PROBLEMS[name](), tableau(order)
    dt = 10.0 ** log10_dt
    rep = run(p, tab, dt, 12 * dt, u0=random_smooth_field(p.grid, seed=seed))
    assert rep.monotone_violations == 0
    assert all(rec.r >= 0.0 and rec.xi >= 0.0 for rec in rep.records)
    r0, c0, exponent = rep.records[0].r, p.c_shift * p.grid.volume, tab.eta_exponent
    bound = max(4 * exponent ** 2 * r0, r0 * (1 + max(0.0, r0 / c0 - 1) ** exponent) ** 2)
    assert all(rec.principal_norm_sq <= bound for rec in rep.records), (bound, rep.sup_principal)
    if name.startswith("cahn_hilliard"):
        assert rep.mean_drift <= 1e-12


# -- transform budget ------------------------------------------------------------


def _count_transforms(monkeypatch):
    """Counts of every scipy.fft call by name, made through the `_fft` proxy, and
    of the package's transforms by direction."""
    counts = dict.fromkeys(("rfft2", "irfft2", "dst", "dct", "fwd", "inv"), 0)

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    spectral = savbdf.spectral
    proxy = types.SimpleNamespace(**{name: counted(getattr(fft, name), name)
                                     for name in ("rfft2", "irfft2", "dst", "dct")})
    monkeypatch.setattr(spectral, "_fft", proxy)
    for name, key in (("_fourier_forward", "fwd"), ("_sine_forward", "fwd"),
                      ("_fourier_inverse", "inv"), ("_sine_inverse", "inv")):
        monkeypatch.setattr(spectral, name, counted(getattr(spectral, name), key))
    return counts


@pytest.mark.parametrize("name, order, fwd, inv", [
    # forced as unforced: F' of the extrapolation and of ubar (shared by K
    # and the forcing power), one inverse for E(ubar); f(t) is a sum of
    # spectral arrays built with the problem and costs no transform
    ("allen_cahn_forced", 1, 2, 1),
    ("allen_cahn_forced", 3, 2, 1),
    ("allen_cahn", 1, 2, 1),
    ("allen_cahn", 5, 2, 1),
    ("cahn_hilliard", 1, 2, 1),
    ("cahn_hilliard", 5, 2, 1),
    # the extrapolation's coefficients and the dealiased u u_x, with the
    # derivative's DCT between them
    ("burgers", 1, 2, 0),
    ("burgers", 3, 2, 0),
    ("burgers", 5, 2, 0),
])
def test_steady_step_transform_budget(monkeypatch, name, order, fwd, inv):
    # one step after the startup plus its trace record.  On 32^2 the record
    # reads the energy terms the step put in the state, and costs none; on
    # Burgers its mean takes the new level's values, one inverse DST that
    # the next step's extrapolation would make anyway
    sine = name == "burgers"
    if sine:
        make, u0, *_ = _burgers_case(order)
        p = make()
    else:
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
    state = step(state, p, tab, dt)
    stepped = (counts["fwd"], counts["inv"], counts["dct"])
    _make_record(p, state)
    assert stepped == (fwd, inv, int(sine)), counts
    assert (counts["fwd"], counts["inv"], counts["dct"]) == (fwd, inv + int(sine), int(sine)), counts
    # every transform went through `_fft`, where the benchmark's tracer counts it
    assert counts["dst"] + counts["rfft2"] + counts["irfft2"] == counts["fwd"] + counts["inv"]
    if not sine:
        assert (counts["rfft2"], counts["irfft2"]) == (counts["fwd"], counts["inv"])

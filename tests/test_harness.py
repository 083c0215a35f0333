"""Rate fitting, convergence studies, stability probes, scheme comparison."""

from dataclasses import replace

import numpy as np
import pytest

from savbdf import (
    ConvergenceEntry,
    DivergenceError,
    Grid,
    advance,
    SettingError,
    allen_cahn,
    burgers,
    burgers_compare,
    cahn_hilliard,
    convergence_study,
    default_dt_ladder,
    exact_errors,
    fit_rate,
    random_smooth_field,
    run,
    scalar_decay,
    stability_probe,
    tableau,
    with_manufactured_forcing,
)
from savbdf import harness, stepper


@pytest.fixture
def records_made(monkeypatch):
    """The (problem, state) of every per-step record built while the test runs."""
    made = []
    real_make_record = stepper._make_record

    def counting_make_record(*args):
        made.append(args)
        return real_make_record(*args)

    monkeypatch.setattr(stepper, "_make_record", counting_make_record)
    return made


# -- fit_rate ----------------------------------------------------------------------


def test_fit_rate_exact_pairs():
    assert fit_rate([(0.1, 0.1), (0.05, 0.05)]) == pytest.approx(1.0, abs=1e-12)
    assert fit_rate([(0.1, 1e-5), (0.05, 3.125e-7)]) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_fit_rate_recovers_power_laws(p):
    dts = [0.2 / 2 ** j for j in range(4)]
    pts = [(dt, 3.7 * dt ** p) for dt in dts]
    assert fit_rate(pts) == pytest.approx(p, abs=1e-10)


def test_fit_rate_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0), (0.1, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0), (0.05, float("nan"))])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.0), (0.05, 1.0)])


def test_default_dt_ladders():
    assert default_dt_ladder(1) == (1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640)
    assert default_dt_ladder(3) == default_dt_ladder(2)
    assert default_dt_ladder(4) == (1 / 10, 1 / 20, 1 / 40, 1 / 80)
    assert default_dt_ladder(5) == (1 / 20, 1 / 40, 1 / 80)
    for k in range(1, 6):
        ladder = default_dt_ladder(k)
        assert all(b < a for a, b in zip(ladder, ladder[1:]))


# -- convergence studies --------------------------------------------------------------


def test_convergence_study_scalar_second_order():
    p = scalar_decay()
    rep = convergence_study(p, 2, (0.1, 0.05, 0.025), T=1.0)
    # each entry is the order-2 scheme on this problem, measured at T
    assert rep.entries[0] == ConvergenceEntry(0.1, *exact_errors(p, advance(p, tableau(2), 0.1, 1.0)))
    assert len(rep.entries) == 3
    assert rep.slopes["l2"] == pytest.approx(2.0, abs=0.3)
    assert all(e.err_l2 is not None for e in rep.entries)
    errs = [e.err_l2 for e in rep.entries]
    assert errs == sorted(errs, reverse=True)


def test_convergence_study_flags_a_diverged_rung(monkeypatch):
    # a rung whose run raises is flagged, and the slopes come from the others
    ladder = (0.1, 0.05, 0.025, 0.0125)
    real_advance = harness.advance

    def advance_diverging_at(problem, tab, dt, T, *args, **kwargs):
        if dt == 0.05:
            raise DivergenceError(7)
        return real_advance(problem, tab, dt, T, *args, **kwargs)

    full = convergence_study(scalar_decay(), 2, ladder, T=1.0)
    monkeypatch.setattr(harness, "advance", advance_diverging_at)
    rep = convergence_study(scalar_decay(), 2, ladder, T=1.0)
    assert [e.err_l2 is None for e in rep.entries] == [False, True, False, False]
    flagged = rep.entries[1]
    assert (flagged.err_l2, flagged.err_h1, flagged.err_h2) == (None, None, None)
    kept = [e for e in full.entries if e.dt != 0.05]
    assert [e for e in rep.entries if e.err_l2 is not None] == kept
    assert rep.slopes["l2"] == fit_rate([(e.dt, e.err_l2) for e in kept])


@pytest.mark.parametrize("maker, order", [(allen_cahn, 3), (cahn_hilliard, 2)])
def test_convergence_study_measures_each_rung_at_t_alone(records_made, maker, order):
    # each entry is the recorded run's final errors bit for bit, and the study
    # builds no per-step record
    p = with_manufactured_forcing(maker(Grid.fourier2d(16)))
    ladder = (0.1, 0.05, 0.025)
    want = [run(p, tableau(order), dt, 0.5).final_errors for dt in ladder]
    records_made.clear()
    rep = convergence_study(p, order, ladder, T=0.5)
    assert [(e.err_l2, e.err_h1, e.err_h2) for e in rep.entries] == want
    assert not records_made


@pytest.mark.parametrize("maker", [allen_cahn, cahn_hilliard])
def test_convergence_study_stabilized_second_order(maker):
    # a stabilization that leaks into the energy breaks the scalar update's
    # consistency; Cahn-Hilliard at lam = 2 then loses convergence entirely
    p = with_manufactured_forcing(maker(Grid.fourier2d(64), stabilization=2.0))
    rep = convergence_study(p, 2, (0.1, 0.05, 0.025), T=1.0)
    assert rep.slopes["h2"] >= 1.8


@pytest.mark.parametrize("order", [1, 2])
def test_eta_exponent_order_plus_one_is_the_smallest_that_keeps_order(order):
    # |1 - xi| = O(dt): each step's correction error is O(dt^p) and they sum
    # to O(dt^(p-1)), so p = k + 1 keeps order k and p = k loses about one
    p = with_manufactured_forcing(allen_cahn(Grid.fourier2d(32)))
    ladder = (1 / 80, 1 / 160, 1 / 320, 1 / 640)

    def h2_slope(exponent):
        tab = replace(tableau(order), eta_exponent=exponent)
        return fit_rate((dt, exact_errors(p, advance(p, tab, dt, 1.0))[2]) for dt in ladder)

    assert h2_slope(order + 1) >= order - 0.1
    assert h2_slope(order) <= order - 0.5


def test_convergence_study_validation():
    p = scalar_decay()
    with pytest.raises(ValueError, match="three"):
        convergence_study(p, 2, (0.1, 0.05), T=1.0)
    with pytest.raises(ValueError, match="decreasing"):
        convergence_study(p, 2, (0.05, 0.1, 0.025), T=1.0)
    with pytest.raises(ValueError, match="divide"):
        convergence_study(p, 2, (0.3, 0.15, 0.075), T=1.0)
    from dataclasses import replace
    with pytest.raises(ValueError, match="exact"):
        convergence_study(replace(p, exact=None), 2, (0.1, 0.05, 0.025), T=1.0)


def test_convergence_study_deterministic():
    p = scalar_decay()
    a = convergence_study(p, 3, (0.1, 0.05, 0.025), T=1.0)
    b = convergence_study(p, 3, (0.1, 0.05, 0.025), T=1.0)
    assert [repr(e) for e in a.entries] == [repr(e) for e in b.entries]
    assert a.slopes == b.slopes


# -- random probe data ---------------------------------------------------------------


def test_random_smooth_field_reproducible():
    grid = Grid.fourier2d(32)
    a = random_smooth_field(grid, seed=12)
    b = random_smooth_field(grid, seed=12)
    c = random_smooth_field(grid, seed=13)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_cahn_hilliard_probe_keeps_zero_mean_exactly():
    # G(0) = 0: no step touches the zero mode of zero-mean data
    grid = Grid.fourier2d(32)
    result = stability_probe(cahn_hilliard(grid), 3, 1.0, 20, seed=3)
    assert result.report.mean_drift == 0.0


def test_random_smooth_field_statistics():
    grid = Grid.fourier2d(64)
    u = random_smooth_field(grid, seed=0)
    assert abs(u.mean()) <= 1e-12
    assert float(np.std(u.values)) == pytest.approx(1.0, rel=1e-12)
    # band-limited: no content above the requested mode band
    coeffs = u.coeffs.copy()
    coeffs[:9, :9] = 0.0
    coeffs[-8:, :9] = 0.0
    assert np.max(np.abs(coeffs)) <= 1e-15


def test_random_smooth_field_sine_band():
    grid = Grid.sine1d(32)
    u = random_smooth_field(grid, seed=1)
    assert np.max(np.abs(u.coeffs[8:])) == 0.0


# -- stability probes -----------------------------------------------------------------


def test_stability_probe_allen_cahn():
    grid = Grid.fourier2d(32)
    result = stability_probe(allen_cahn(grid), 2, 0.5, 50, seed=3)
    assert not result.violations
    assert result.report.monotone_violations == 0
    assert result.report.sup_principal <= 10.0 * result.report.sup_principal_first10


def test_stability_probe_zero_data_is_constant():
    from savbdf import Field

    grid = Grid.fourier2d(16)
    result = stability_probe(allen_cahn(grid), 1, 0.5, 20, u0=Field.zeros(grid))
    assert not result.violations
    rs = [rec.r for rec in result.report.records]
    assert max(rs) == min(rs)


def test_stability_probe_accepts_numpy_integers():
    grid = Grid.fourier2d(16)
    p = allen_cahn(grid)
    result = stability_probe(p, np.int64(2), 0.1, np.int64(10), seed=1)
    want = stability_probe(p, 2, 0.1, 10, seed=1)
    order_2 = run(p, tableau(2), 0.1, 10 * 0.1, u0=random_smooth_field(p.grid, seed=1))
    assert result.report.records == want.report.records == order_2.records


def test_stability_probe_rejects_forced():
    grid = Grid.fourier2d(16)
    p = with_manufactured_forcing(allen_cahn(grid))
    with pytest.raises(ValueError, match="unforced"):
        stability_probe(p, 2, 0.1, 10)


def test_stability_probe_ch_mean_conserved():
    grid = Grid.fourier2d(32)
    result = stability_probe(cahn_hilliard(grid), 3, 0.1, 100, seed=4)
    assert not result.violations
    assert result.report.mean_drift <= 1e-10


def test_stability_probe_cascade_divergence_names_the_startup_level():
    # the unforced order-2 start builds level 1 from CASCADE_SUBSTEPS order-1
    # substeps; the second overflows, and the error names level 1, not substep 2
    with pytest.raises(DivergenceError) as exc:
        stability_probe(allen_cahn(Grid.fourier2d(16), alpha=1e100), 2, 0.1, 20)
    assert exc.value.step_index == 1


# -- Burgers comparison ----------------------------------------------------------------

#: the comparison's shock-layer viscosity
NU = 1.0 / 314.0


def test_burgers_compare_self_comparison():
    # dt == dt_ref makes the corrected run identical to its reference
    c = burgers_compare(burgers(Grid.sine1d(48), 0.05), dt=0.005, dt_ref=0.005, T=0.1)
    assert c.deviation_sav <= 1e-14
    assert c.overshoot_sav == pytest.approx(1.0, abs=1e-12)
    assert c.u_imex is not None
    assert c.deviation_imex < 0.05
    assert c.sav_report.min_eta > 0.0
    assert c.sav_report.max_eta <= 1.0 + 1e-6


def test_burgers_compare_nonuniform_horizon():
    # dt that does not divide T: the comparison still lines both runs up on
    # the same endpoint
    c = burgers_compare(burgers(Grid.sine1d(48), 0.05), dt=0.0085, dt_ref=0.002, T=0.05)
    assert np.isfinite(c.deviation_sav)
    assert c.u_ref.shape == c.u_sav.shape


def test_burgers_horizon_lines_runs_up_and_caps_them():
    # 0.05 / 0.0085 rounds to 6 steps; the reference lands on the same endpoint
    t_end, dt_ref = harness.burgers_horizon(0.0085, 0.002, 0.05, 2)
    assert t_end == 6 * 0.0085
    n_ref = round(t_end / dt_ref)
    assert n_ref * dt_ref == pytest.approx(t_end, rel=1e-15)
    assert abs(dt_ref - 0.002) < 0.002 / n_ref
    # never coarser than the compared runs, never fewer than `order` steps
    assert harness.burgers_horizon(0.01, 0.05, 0.1, 2) == pytest.approx((0.1, 0.01), rel=1e-15)
    assert harness.burgers_horizon(0.01, 0.01, 0.001, 3) == pytest.approx((0.03, 0.01), rel=1e-15)
    for dt, dt_ref in ((0.005, 1e-300), (1e-300, 1e-4), (5e-324, 1e-4)):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            harness.burgers_horizon(dt, dt_ref, 1.0, 2)


@pytest.mark.parametrize("dt_ref", [float("inf"), float("nan"), 0.0, -0.01])
def test_burgers_horizon_needs_a_positive_finite_reference_step(dt_ref):
    # an infinite dt_ref would make the compared run its own reference
    with pytest.raises(ValueError, match="dt_ref"):
        harness.burgers_horizon(0.1, dt_ref, 0.2, 2)
    with pytest.raises(ValueError, match="dt_ref"):
        burgers_compare(burgers(Grid.sine1d(8), NU), dt=0.1, dt_ref=dt_ref, T=0.2)


def test_burgers_compare_needs_two_modes(monkeypatch):
    # the one interior point of a 1-mode grid is x = 0, where the data and the
    # reference peak are 0; rejected before any run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run", no_run)
    monkeypatch.setattr(harness, "advance", no_run)
    with pytest.raises(SettingError, match="at least 2 modes") as exc:
        burgers_compare(burgers(Grid.sine1d(1), NU), dt_ref=0.005, T=0.05)
    assert exc.value.setting == "grid"


def test_burgers_compare_needs_a_sine_grid_problem():
    # the -sin(pi x) data and the wall reference live on the sine grid of (-1, 1)
    with pytest.raises(SettingError, match="SINE1D") as exc:
        burgers_compare(allen_cahn(Grid.fourier2d(8)), dt_ref=0.01, T=0.1)
    assert exc.value.setting == "problem"


def test_burgers_compare_reference_decayed_to_zero():
    # a huge viscosity takes the reference to exactly zero, and the overshoots
    # relative to its peak with it
    with pytest.raises(ValueError, match="reference decayed to zero"):
        burgers_compare(burgers(Grid.sine1d(8), 1e300), dt_ref=0.01)


def test_burgers_compare_records_the_corrected_run_alone(records_made):
    # the reference and the baseline are read at T alone: the only records
    # made are the corrected run's trace
    c = burgers_compare(burgers(Grid.sine1d(32), NU), dt=0.05, dt_ref=0.01, T=0.5)
    assert c.u_imex is not None
    assert len(records_made) == len(c.sav_report.records) == 11


def test_burgers_compare_records_imex_breakdown():
    """At a deliberately large step the baseline diverges and is recorded,
    while the corrected run stays bounded.

    Bounded here means decayed, which is the scheme and not a fault: near
    step 27 the uncorrected iterate spikes (max |ubar| about 12), so `r`
    drops from about 0.7 to 0.08 and, the problem being unforced, never grows
    back.  E(ubar) stays above c_shift |Omega| = 1, so xi <= 0.08 from then on,
    eta = 1 - (1 - xi)^3 is about 0.22 and u shrinks geometrically to about
    5e-14 of the reference's peak.
    """
    c = burgers_compare(burgers(Grid.sine1d(320), NU), dt=0.02, dt_ref=0.01, T=1.0)
    assert c.u_imex is None
    assert c.deviation_imex == float("inf")
    assert np.isfinite(c.deviation_sav)
    assert np.all(np.isfinite(c.u_sav))
    assert c.overshoot_sav <= 1.0

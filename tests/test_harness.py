"""Rate fitting, convergence studies, stability probes, scheme comparison."""

import numpy as np
import pytest

from savbdf import (
    DivergenceError,
    Grid,
    allen_cahn,
    burgers_compare,
    cahn_hilliard,
    convergence_study,
    default_dt_ladder,
    fit_rate,
    random_smooth_field,
    scalar_decay,
    stability_probe,
    with_manufactured_forcing,
)
from savbdf import harness


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
    assert rep.problem == "scalar_decay"
    assert rep.order == 2
    assert len(rep.entries) == 3
    assert rep.slopes["l2"] == pytest.approx(2.0, abs=0.3)
    assert all(not e.diverged for e in rep.entries)
    errs = [e.err_l2 for e in rep.entries]
    assert errs == sorted(errs, reverse=True)


def test_convergence_study_flags_a_diverged_rung(monkeypatch):
    # a rung whose run raises is flagged, and the slopes come from the others
    ladder = (0.1, 0.05, 0.025, 0.0125)
    real_run = harness.run

    def run_diverging_at(problem, tab, dt, T, **kwargs):
        if dt == 0.05:
            raise DivergenceError(7)
        return real_run(problem, tab, dt, T, **kwargs)

    full = convergence_study(scalar_decay(), 2, ladder, T=1.0)
    monkeypatch.setattr(harness, "run", run_diverging_at)
    rep = convergence_study(scalar_decay(), 2, ladder, T=1.0)
    assert [e.diverged for e in rep.entries] == [False, True, False, False]
    flagged = rep.entries[1]
    assert (flagged.err_l2, flagged.err_h1, flagged.err_h2) == (None, None, None)
    kept = [e for e in full.entries if e.dt != 0.05]
    assert [e for e in rep.entries if not e.diverged] == kept
    assert rep.slopes["l2"] == fit_rate([(e.dt, e.err_l2) for e in kept])


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
    kept = convergence_study(p, order, ladder, eta_exponent=order + 1)
    lost = convergence_study(p, order, ladder, eta_exponent=order)
    assert kept.slopes["h2"] >= order - 0.1
    assert lost.slopes["h2"] <= order - 0.5


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
    assert result.passed, result.violations
    assert result.report.monotone_violations == 0
    assert result.report.sup_principal <= 10.0 * result.report.sup_principal_first(10)


def test_stability_probe_zero_data_is_constant():
    from savbdf import Field

    grid = Grid.fourier2d(16)
    result = stability_probe(allen_cahn(grid), 1, 0.5, 20, u0=Field.zeros(grid))
    assert result.passed
    rs = [rec.r for rec in result.report.records]
    assert max(rs) == min(rs)


def test_stability_probe_rejects_forced():
    grid = Grid.fourier2d(16)
    p = with_manufactured_forcing(allen_cahn(grid))
    with pytest.raises(ValueError, match="unforced"):
        stability_probe(p, 2, 0.1, 10)


def test_stability_probe_ch_mean_conserved():
    grid = Grid.fourier2d(32)
    result = stability_probe(cahn_hilliard(grid), 3, 0.1, 100, seed=4)
    assert result.passed, result.violations
    assert result.report.mean_drift <= 1e-10


# -- Burgers comparison ----------------------------------------------------------------


def test_burgers_compare_self_comparison():
    # dt == dt_ref makes the corrected run identical to its reference
    c = burgers_compare(nu=0.05, n_modes=48, dt=0.005, dt_ref=0.005, T=0.1)
    assert c.deviation_sav <= 1e-14
    assert c.overshoot_sav == pytest.approx(1.0, abs=1e-12)
    assert not c.imex_diverged
    assert c.deviation_imex < 0.05
    assert c.sav_report.min_eta > 0.0
    assert c.sav_report.max_eta <= 1.0 + 1e-6


def test_burgers_compare_nonuniform_horizon():
    # dt that does not divide T: the comparison still lines both runs up on
    # the same endpoint
    c = burgers_compare(nu=0.05, n_modes=48, dt=0.0085, dt_ref=0.002, T=0.05)
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


def test_burgers_compare_needs_two_modes(monkeypatch):
    # the one interior point of a 1-mode grid is x = 0, where the data and the
    # reference peak are 0; rejected before any run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run", no_run)
    with pytest.raises(ValueError, match="at least 2 modes"):
        burgers_compare(n_modes=1, dt_ref=0.005, T=0.05)


def test_burgers_compare_records_imex_breakdown():
    # at a deliberately large step the baseline diverges and is recorded,
    # while the corrected run stays bounded
    c = burgers_compare(dt=0.02, dt_ref=0.01, T=1.0)
    assert c.imex_diverged
    assert c.deviation_imex == float("inf")
    assert np.isfinite(c.deviation_sav)
    assert np.all(np.isfinite(c.u_sav))

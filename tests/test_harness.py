"""Rate fitting, convergence studies, stability probes, scheme comparison."""

import numpy as np
import pytest

from savbdf import (
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
    assert result.mean_drift == 0.0


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
    assert result.sup_principal <= 10.0 * result.sup_principal_first10


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
    assert result.mean_drift <= 1e-10


# -- Burgers comparison ----------------------------------------------------------------


def test_burgers_compare_self_comparison():
    # dt == dt_ref makes the corrected run identical to its reference
    c = burgers_compare(nu=0.05, n_modes=48, dt=0.005, dt_ref=0.005, T=0.1)
    assert c.deviation_sav <= 1e-14
    assert c.overshoot_sav == pytest.approx(1.0, abs=1e-12)
    assert not c.imex_diverged
    assert c.deviation_imex < 0.05
    etas = [eta for _, eta in c.eta_trace]
    assert min(etas) > 0.0
    assert max(etas) <= 1.0 + 1e-6


def test_burgers_compare_nonuniform_horizon():
    # dt that does not divide T: the comparison still lines both runs up on
    # the same endpoint
    c = burgers_compare(nu=0.05, n_modes=48, dt=0.0085, dt_ref=0.002, T=0.05)
    assert np.isfinite(c.deviation_sav)
    assert c.u_ref.shape == c.u_sav.shape


def test_burgers_compare_records_imex_breakdown():
    # at a deliberately large step the baseline diverges and is recorded,
    # while the corrected run stays bounded
    c = burgers_compare(dt=0.02, dt_ref=0.01, T=1.0)
    assert c.imex_diverged
    assert c.deviation_imex == float("inf")
    assert np.isfinite(c.deviation_sav)
    assert np.all(np.isfinite(c.u_sav))

"""Frozen numerical reference: five short runs checked against golden traces.

A rerun compared with itself (criterion 9) cannot see numerical drift that
a refactor introduces in both runs alike; these golden files can.  Each
covers about 40 steps of one start-up and stepping path:

* Allen-Cahn 32^2, order 3, manufactured forcing (exact-sample start);
* Cahn-Hilliard 32^2, order 5, unforced, dt = 1 (cascade start);
* Allen-Cahn 32^2, order 2, manufactured forcing, IMEX mode;
* Burgers with 64 sine modes, order 2, from -sin(pi x);
* the same Burgers problem in IMEX mode at dt = 0.01 to T = 0.4 (at
  dt = 0.025 IMEX diverges at step 40): IMEX on a problem without the
  double well.

Per step, r, xi, eta, energy and principal_norm_sq must match to rel 1e-12;
so must the final solution's L2/H1/H2 norms.  Final errors against an
exact solution are differences of O(1) fields, so they are held to 1e-12
of the solution norm of the same Sobolev order.

The golden files are written by ``python tests/test_reference.py --freeze
NAME...``, which rewrites only the named cases, and are not regenerated to
make this test pass.  A change that moves the numbers on purpose rewrites
the goldens it moves, one at a time, and says why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from savbdf import (
    Field,
    Grid,
    StepMode,
    allen_cahn,
    burgers,
    cahn_hilliard,
    random_smooth_field,
    run,
    sobolev_norm,
    tableau,
    with_manufactured_forcing,
)

GOLDEN_DIR = Path(__file__).parent / "reference"
RTOL = 1e-12
TRACE_KEYS = ("r", "xi", "eta", "energy", "principal_norm_sq")


def _allen_cahn_forced(order, mode):
    problem = with_manufactured_forcing(allen_cahn(Grid.fourier2d(32)))
    return run(problem, tableau(order), 0.025, 1.0, mode=mode)


def _cahn_hilliard_cascade():
    grid = Grid.fourier2d(32)
    u0 = random_smooth_field(grid, seed=0)
    return run(cahn_hilliard(grid), tableau(5), 1.0, 40.0, u0=u0)


def _burgers(dt, T, mode):
    grid = Grid.sine1d(64)
    (x,) = grid.points
    u0 = Field.from_physical(grid, -np.sin(np.pi * x))
    return run(burgers(grid, 1.0 / 314.0), tableau(2), dt, T, mode=mode, u0=u0)


CASES = {
    "allen_cahn_o3_forced": lambda: _allen_cahn_forced(3, StepMode.SAV),
    "cahn_hilliard_o5_cascade": _cahn_hilliard_cascade,
    "allen_cahn_o2_imex": lambda: _allen_cahn_forced(2, StepMode.IMEX),
    "burgers_n64": lambda: _burgers(0.025, 1.0, StepMode.SAV),
    "burgers_n64_imex": lambda: _burgers(0.01, 0.4, StepMode.IMEX),
}


def snapshot(report) -> dict:
    u = report.final_state.u_history[0]
    return {
        "step": [rec.step for rec in report.records],
        "t": [rec.t for rec in report.records],
        **{key: [getattr(rec, key) for rec in report.records] for key in TRACE_KEYS},
        "final_norms": [sobolev_norm(u, s) for s in (0.0, 1.0, 2.0)],
        "final_errors": None if report.final_errors is None else list(report.final_errors),
    }


def _mismatches(label, got, want, scale=None):
    bad = []
    for i, (g, w) in enumerate(zip(got, want)):
        tol = RTOL * (abs(w) if scale is None else max(abs(w), scale[i]))
        if not abs(g - w) <= tol:
            bad.append(f"{label}[{i}]: got {g!r}, golden {w!r}")
    return bad


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = snapshot(CASES[name]())
    assert got["step"] == want["step"]
    bad = _mismatches("t", got["t"], want["t"])
    for key in TRACE_KEYS:
        bad += _mismatches(key, got[key], want[key])
    bad += _mismatches("final_norms", got["final_norms"], want["final_norms"])
    assert (got["final_errors"] is None) == (want["final_errors"] is None)
    if want["final_errors"] is not None:
        bad += _mismatches("final_errors", got["final_errors"], want["final_errors"],
                           scale=want["final_norms"])
    assert not bad, "\n".join(bad[:10])


if __name__ == "__main__":
    names = sys.argv[2:]
    if sys.argv[1:2] != ["--freeze"] or not names or not set(names) <= CASES.keys():
        raise SystemExit("usage: python tests/test_reference.py --freeze NAME...\n"
                         f"NAME is one of: {', '.join(sorted(CASES))}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in names:
        path = GOLDEN_DIR / f"{case}.json"
        path.write_text(json.dumps(snapshot(CASES[case]()), indent=1) + "\n")
        print(f"wrote {path}")

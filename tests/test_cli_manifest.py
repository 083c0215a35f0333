"""Committed CLI byte manifest: each invocation's exit code and bytes, frozen.

The golden traces of ``test_reference.py`` hold library numbers to a
tolerance; this manifest holds what the command line writes, bit for bit.
Each row runs ``savbdf.cli.main`` in-process on a short invocation and
compares the sha256 of its stdout, of its stderr and of every artifact in
its ``--out`` directory, and its exit code, with ``reference/cli_manifest.json``.
A row also records the numpy and scipy versions it was frozen on; a
mismatch names them when they differ from the running ones, since a
different FFT build may move the last bit of a value.  CI's workflow pins
the same versions, and a test checks that the pins and the rows agree.

Rows: ``stability`` on both phase fields at orders 1..5 and dt = 0.01, 1
and 100; forced SAV and IMEX ``run`` on Allen-Cahn, an order-4
Cahn-Hilliard ``run`` and a Burgers ``run``; a reduced ``converge`` and
``burgers``; one invocation for each of exit codes 1, 2 and 3; two IMEX
Allen-Cahn runs whose energy overflows to inf (at T = 3.5) and whose every
value then does (at T = 4); and an Allen-Cahn ``stability`` run that the
correction collapses to exact zeros, so its last steps rest at u = 0; a
Burgers ``stability`` run; and two ``burgers`` invocations that exit 1, on
a one-mode grid and on a reference that decays to zero.

``python tests/test_cli_manifest.py --freeze NAME...`` rewrites only the
named rows.  A change that moves a row's bytes on purpose refreezes that
row and says which and why in CHANGES.md; rows are not refrozen to make
this test pass.
"""

import hashlib
import io
import json
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy

from savbdf.cli import main

MANIFEST = Path(__file__).parent / "reference" / "cli_manifest.json"
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"

ROWS = {
    f"stability_{problem}_k{k}_dt{dt}": ["stability", "--problem", problem, "--order", str(k),
                                         "--dt", dt, "--grid", "16", "--n-steps", "30"]
    for problem in ("allen_cahn", "cahn_hilliard") for k in range(1, 6) for dt in ("0.01", "1", "100")
}
ROWS.update({
    "run_allen_cahn_sav": ["run", "--grid", "16", "--order", "3", "--dt", "0.05", "--T", "1"],
    "run_allen_cahn_imex": ["run", "--grid", "16", "--order", "2", "--mode", "imex",
                            "--dt", "0.05", "--T", "1"],
    "run_cahn_hilliard_k4": ["run", "--problem", "cahn_hilliard", "--grid", "16", "--order", "4",
                             "--dt", "0.05", "--T", "1"],
    "run_burgers": ["run", "--problem", "burgers", "--grid", "32", "--dt", "0.05", "--T", "1"],
    "converge_reduced": ["converge", "--grid", "16", "--order", "2", "--dt-list", "0.1,0.05,0.025",
                         "--T", "0.4"],
    "burgers_reduced": ["burgers", "--grid", "32", "--dt-ref", "1e-3", "--T", "0.5"],
    "exit1_overflowing_alpha": ["stability", "--alpha", "1e308"],
    "exit2_too_few_slope_points": ["converge", "--grid", "8", "--order", "5",
                                   "--dt-list", "0.004,0.002,0.001", "--T", "0.02"],
    "exit3_imex_burgers_diverges": ["run", "--problem", "burgers", "--mode", "imex",
                                    "--dt", "0.02", "--T", "1.0"],
    "run_allen_cahn_imex_overflow_T3.5": ["run", "--problem", "allen_cahn", "--mode", "imex",
                                          "--order", "1", "--grid", "8", "--dt", "0.5", "--T", "3.5"],
    "run_allen_cahn_imex_overflow_T4": ["run", "--problem", "allen_cahn", "--mode", "imex",
                                        "--order", "1", "--grid", "8", "--dt", "0.5", "--T", "4.0"],
    "stability_allen_cahn_collapse_to_zero": ["stability", "--problem", "allen_cahn", "--grid", "16",
                                              "--dt", "1.0", "--n-steps", "300", "--seed", "1"],
    "stability_burgers": ["stability", "--problem", "burgers", "--grid", "16", "--n-steps", "30"],
    "exit1_burgers_one_mode": ["burgers", "--grid", "1"],
    "exit1_burgers_reference_decays": ["burgers", "--nu", "1e300", "--grid", "8", "--dt-ref", "0.01"],
})


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def invoke(argv) -> dict:
    """One row's entry: run `main` on argv with a fresh --out, every warning an error."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(list(argv) + ["--out", str(out)])
        files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())} if out.exists() else {}
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _sha(stdout.getvalue().replace(str(out), "OUT").encode()),
        "stderr": _sha(stderr.getvalue().replace(str(out), "OUT").encode()),
        "files": files,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@pytest.mark.parametrize("name", sorted(ROWS))
def test_cli_bytes_match_manifest(name):
    want = json.loads(MANIFEST.read_text())[name]
    got = invoke(ROWS[name])
    versions = {lib: (want[lib], got[lib]) for lib in ("numpy", "scipy") if want[lib] != got[lib]}
    note = "; frozen on " + ", ".join(f"{lib} {w}, running {g}" for lib, (w, g) in versions.items()) \
        if versions else ""
    for key in ("argv", "exit", "stdout", "stderr"):
        assert got[key] == want[key], f"{name}: {key} differs{note}"
    assert sorted(got["files"]) == sorted(want["files"]), f"{name}: artifact names differ{note}"
    changed = [f for f in want["files"] if got["files"][f] != want["files"][f]]
    assert not changed, f"{name}: {', '.join(changed)} differ{note}"


def test_ci_pins_the_versions_the_manifest_was_frozen_on():
    # CI installs numpy and scipy by exact pin; a row frozen on other versions
    # would compare bytes from another FFT build
    pins = dict(re.findall(r"\b(numpy|scipy)==(\S+)", WORKFLOW.read_text()))
    assert sorted(pins) == ["numpy", "scipy"], f"{WORKFLOW.name} pins {pins}"
    frozen = {(row["numpy"], row["scipy"]) for row in json.loads(MANIFEST.read_text()).values()}
    assert frozen == {(pins["numpy"], pins["scipy"])}, f"manifest rows frozen on {sorted(frozen)}"


if __name__ == "__main__":
    names = sys.argv[2:]
    if sys.argv[1:2] != ["--freeze"] or not names or not set(names) <= ROWS.keys():
        raise SystemExit("usage: python tests/test_cli_manifest.py --freeze NAME...\n"
                         f"NAME is one of: {', '.join(sorted(ROWS))}")
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for name in names:
        manifest[name] = invoke(ROWS[name])
        print(f"froze {name}")
    MANIFEST.write_text(json.dumps(dict(sorted(manifest.items())), indent=1) + "\n")

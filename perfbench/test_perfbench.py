"""Self-tests of the benchmark: the reference check rejects perturbed artifacts,
traced counts repeat exactly, missing hooks read null, host-speed rescaling
uses both calibration brackets, and a checkout without the package source
fails.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from host import ROOT, import_savbdf  # noqa: E402
from run import run_pass  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402

SAVBDF = import_savbdf()
CLI = sys.modules["savbdf.cli"]
REFERENCE = reference.load_reference()


def _write_artifacts(out: Path, found: dict):
    """Write artifacts in the CLI's layout from a dict of checked values."""
    out.mkdir(parents=True)
    (out / "summary.json").write_text(json.dumps(found["summary"]))
    if "convergence" in found:
        lines = ["dt,err_l2,err_h1,err_h2"] + [",".join(repr(v) for v in row) for row in found["convergence"]]
        (out / "convergence.csv").write_text("\n".join(lines) + "\n")


def _scale_one_value(found: dict, scale: float):
    """Scale the first summary scalar above rounding level, else the last column of a table."""
    for name, value in found["summary"].items():
        if isinstance(value, float) and value > 1e-6 and not name.startswith("slope_"):
            found["summary"][name] = value * scale
            return
    found["convergence"][0][-1] *= scale


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_frozen_artifacts_pass_and_perturbed_fail(tmp_path, workload):
    frozen = REFERENCE[workload]
    key = invocations(workload, 0)[0].key
    _write_artifacts(tmp_path / "good" / key, frozen[key])
    good = reference.check_pass(workload, {key: 0}, tmp_path / "good", REFERENCE)
    assert good and all(c.ok for c in good)

    # a last-bit change passes, a 1e-4 relative change fails
    for scale, should_pass in ((1.0 + 1e-13, True), (1.0 + 1e-4, False)):
        found = json.loads(json.dumps(frozen[key]))
        _scale_one_value(found, scale)
        root = tmp_path / f"scaled{scale}"
        _write_artifacts(root / key, found)
        cases = reference.check_pass(workload, {key: 0}, root, REFERENCE)
        assert any(not c.ok for c in cases) != should_pass, (scale, cases)

    bad_exit = reference.check_pass(workload, {key: 3}, tmp_path / "good", REFERENCE)
    assert bad_exit and not any(c.ok for c in bad_exit)


def test_real_stability_case_checks_and_a_perturbed_summary_fails(tmp_path):
    inv = invocations("stability_matrix", 5)[0]
    rc = CLI.main([*inv.argv, "--out", str(tmp_path / inv.key)])
    assert rc == 0
    [case] = reference.check_pass("stability_matrix", {inv.key: rc}, tmp_path, REFERENCE)
    assert case.ok, case.why

    path = tmp_path / inv.key / "summary.json"
    summary = json.loads(path.read_text())
    summary["violations"] = ["step 7: r increased"]
    path.write_text(json.dumps(summary))
    [case] = reference.check_pass("stability_matrix", {inv.key: rc}, tmp_path, REFERENCE)
    assert not case.ok


def test_converge_rows_are_checked_per_rung(tmp_path):
    frozen = REFERENCE["converge_ac3"]["converge"]
    found = json.loads(json.dumps(frozen))
    found["convergence"][2][3] *= 1.01
    _write_artifacts(tmp_path / "converge", found)
    cases = reference.check_pass("converge_ac3", {"converge": 0}, tmp_path, REFERENCE)
    assert [c.ok for c in cases] == [True, True, False, True, True]


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    passes = []
    for i in range(2):
        tracer = tracing.Tracer()
        with tracing.Hooks(tracer) as hooks:
            wall, outcomes, _ = run_pass(tracer.wrap("cli.main", CLI.main), "converge_ac3", 0, out / str(i))
        assert set(outcomes.values()) == {0}
        assert not hooks.missing
        passes.append((tracing.summarize_pass(tracer, wall, 0), hooks.installed))
    return passes


def test_traced_counts_repeat_exactly(traced_passes):
    (a, _), (b, _) = traced_passes
    assert a.calls == b.calls
    assert (a.fwd, a.inv, a.transform_bytes, a.harness_cases) == (b.fwd, b.inv, b.transform_bytes,
                                                                 b.harness_cases)
    # order 3 from exact startup levels: 1240 outer steps less 2 per rung
    assert a.calls["stepper.step"] == 1240 - 2 * 5
    assert a.calls["cli.main"] == 1


def test_self_times_account_for_the_traced_pass(traced_passes):
    for p, _ in traced_passes:
        covered = sum(p.self_ns.values())
        assert 0 <= p.wall_ns - covered < 0.01 * p.wall_ns
        assert set(p.self_ns) == set(tracing.LAYERS)


def test_hooks_restore_every_name():
    before = (CLI.run, sys.modules["savbdf.stepper"].step,
              SAVBDF.Field.__dict__["from_spectral"], SAVBDF.ProblemDefinition.energy)
    with tracing.Hooks(tracing.Tracer()):
        assert sys.modules["savbdf.stepper"].step is not before[1]
    after = (CLI.run, sys.modules["savbdf.stepper"].step,
             SAVBDF.Field.__dict__["from_spectral"], SAVBDF.ProblemDefinition.energy)
    assert after == before


def test_missing_hook_yields_null_metric(traced_passes, monkeypatch):
    monkeypatch.setattr(tracing, "CALL_SITE_HOOKS",
                        tracing.CALL_SITE_HOOKS + (("savbdf.spectral", None, "no_such_name", "spectral.x"),))
    with tracing.Hooks(tracing.Tracer()) as hooks:
        pass
    assert hooks.missing == ["savbdf.spectral.no_such_name"]

    passes = [p for p, _ in traced_passes]
    installed = traced_passes[0][1] - {"problems.energy"}
    with pytest.warns(UserWarning, match="problems.energy"):
        probes = {k: 1.0 for k in tracing.LAYER_METRICS if "_us.n" in k}
        m = tracing.layer_metrics(passes, [passes[0].wall_ns], 100, installed, 1.0, probes)
    assert m["problems.energy_us"] is None and m["problems.energy_calls_per_step"] is None
    assert m["problems.dissipation_us"] is not None


def test_rescaling_uses_the_mean_of_both_brackets():
    ref = hostspeed.REF_STEP_S
    # at half the reference speed the work and both its brackets take twice as long
    assert hostspeed.reference_seconds(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert hostspeed.reference_seconds(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_bracket_slices_are_sized_to_the_piece(monkeypatch):
    kernel = hostspeed.Kernel()
    assert 0 < kernel.step_seconds(10) < 1
    sizes = []
    monkeypatch.setattr(kernel, "step_seconds", lambda steps: sizes.append(steps) or 1.0)
    for piece_s in (0.0, 1000.5 * hostspeed.REF_STEP_S / hostspeed.BRACKET_SHARE, 1e3):
        kernel.bracket(piece_s)
    assert sizes == [hostspeed.MIN_STEPS, 1000, hostspeed.MAX_STEPS]


def test_checkout_without_source_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "converge_ac3", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

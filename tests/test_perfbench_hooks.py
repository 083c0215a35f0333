"""The benchmark tracer's hooks name functions the package still has.

`perfbench/tracing.py` wraps public names at the sites that call them; a name
that a refactor drops is only reported as a warning in a traced benchmark
run.  This test makes it a failure here.  It only reads `perfbench/`.
"""

import dataclasses
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_call_site_hook_resolves(tracing):
    missing = []
    for module_name, class_name, attr, _span in tracing.CALL_SITE_HOOKS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(".".join(p for p in (module_name, class_name, attr) if p))
    assert not missing, f"hooked names the package no longer has: {missing}"


def test_exact_solution_hook_resolves(tracing):
    module_name, attr = tracing.EXACT_HOOK
    assert hasattr(importlib.import_module(module_name), attr)


def test_exact_solution_is_replaceable_on_its_samples(tracing):
    # the tracer wraps the factory's samples with `dataclasses.replace`
    module_name, attr = tracing.EXACT_HOOK
    module = importlib.import_module(module_name)
    exact = getattr(module, attr)(module.Grid.fourier2d(8))
    calls = []

    def sampler(name, sample):
        def wrapped(t):
            calls.append(name)
            return sample(t)
        return wrapped

    copy = dataclasses.replace(exact, field=sampler("field", exact.field),
                               time_derivative=sampler("time_derivative", exact.time_derivative))
    copy.field(0.5)
    copy.time_derivative(0.5)
    assert calls == ["field", "time_derivative"]


# short 16^2 versions of the two workloads' invocations: (argv, outer steps, calls of
# `step`, which makes the levels past an exact or a cascade start of 8 substeps a level)
TRACED_INVOCATIONS = {
    "converge": (("converge", "--problem", "allen_cahn", "--order", "3", "--grid", "16",
                  "--dt-list", "0.25,0.125,0.0625"), 4 + 8 + 16, 2 + 6 + 14),
    "stability": (("stability", "--problem", "allen_cahn", "--order", "5", "--dt", "1.0",
                   "--n-steps", "20", "--grid", "16"), 20, 16 + 4 * 8),
    # collapses to exact zeros, so its last steps are at the equilibrium u = 0
    "stability_collapse": (("stability", "--problem", "allen_cahn", "--grid", "16", "--dt", "1.0",
                            "--n-steps", "300", "--seed", "1"), 300, 299 + 8),
}


@pytest.mark.parametrize("name", sorted(TRACED_INVOCATIONS))
def test_traced_pass_reports_every_metric(tracing, tmp_path, monkeypatch, name):
    # a traced benchmark run whose hooks lose the transforms, or a name they
    # wrap, reports null metrics and fails to give a result; here it fails.
    # Metrics that read 0 on working code are not asserted non-zero
    import savbdf
    from savbdf import cli

    made = {"fwd": 0, "inv": 0}  # the package's own transforms, which the tracer must all see
    for attr, key in (("_fourier_forward", "fwd"), ("_fourier_inverse", "inv")):
        def counted(x, _fn=getattr(savbdf.spectral, attr), _key=key):
            made[_key] += 1
            return _fn(x)
        monkeypatch.setattr(savbdf.spectral, attr, counted)
    argv, steps, step_calls = TRACED_INVOCATIONS[name]
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        start = time.perf_counter_ns()
        code = tracer.wrap("cli.main", cli.main)([*argv, "--out", str(tmp_path / "out")])
        wall = time.perf_counter_ns() - start
    assert code == 0
    assert not hooks.missing
    traced = tracing.summarize_pass(tracer, wall, 0)
    assert traced.fwd > 0 and traced.inv > 0
    assert (traced.fwd, traced.inv) == (made["fwd"], made["inv"])
    # every step, the equilibrium's too, is a call of the hooked `stepper.step`
    assert traced.calls["stepper.step"] == step_calls
    if name == "stability_collapse":  # the equilibrium's steps evaluate no nonlinearity
        assert traced.calls["problems.double_well_prime"] < step_calls
    metrics = tracing.layer_metrics([traced], [wall], steps, hooks.installed,
                                    tracing.forcing_probe(savbdf, 16), tracing.transform_probe(savbdf))
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert [m for m, value in metrics.items() if value is None] == []

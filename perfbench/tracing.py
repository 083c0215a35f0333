"""Traced run: spans around the package's public names, and per-layer metrics.

Hooks replace public names at the sites that call them (``savbdf.stepper.step``
as called by ``run``, ``savbdf.harness.run`` as called by the harness, the
``scipy.fft`` functions the spectral module calls, ...) for the length of one
traced pass, and restore them afterwards.  No code is added to the package.
A span records name, start, end and parent; spans are kept in memory and
written out when the run ends.  The layer of a span is the part of its name
before the first dot, one of the package's modules.  A layer's self time is
its spans' durations minus the time covered by their child spans, so the
self times of all layers add up to the traced pass.

A hooked name that no longer exists is reported with a warning, and the
metrics that need it read null.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import time
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("cli", "harness", "stepper", "problems", "spectral", "tableau")

#: (module, class or None, attribute, span name): public names at their call sites
CALL_SITE_HOOKS = (
    ("savbdf.cli", None, "parse_config", "cli.parse_config"),
    ("savbdf.cli", None, "execute", "cli.execute"),
    ("savbdf.cli", None, "convergence_study", "harness.convergence_study"),
    ("savbdf.cli", None, "stability_probe", "harness.stability_probe"),
    ("savbdf.cli", None, "default_dt_ladder", "harness.default_dt_ladder"),
    ("savbdf.harness", None, "random_smooth_field", "harness.random_smooth_field"),
    ("savbdf.harness", None, "fit_rate", "harness.fit_rate"),
    ("savbdf.cli", None, "run", "stepper.run"),
    ("savbdf.harness", None, "run", "stepper.run"),
    ("savbdf.stepper", None, "initialize", "stepper.initialize"),
    ("savbdf.stepper", None, "step", "stepper.step"),
    ("savbdf.cli", None, "tableau", "tableau.tableau"),
    ("savbdf.harness", None, "tableau", "tableau.tableau"),
    ("savbdf.stepper", None, "tableau", "tableau.tableau"),
    ("savbdf.stepper", None, "combine_history", "tableau.combine_history"),
    ("savbdf.cli", None, "allen_cahn", "problems.build"),
    ("savbdf.cli", None, "cahn_hilliard", "problems.build"),
    ("savbdf.cli", None, "with_manufactured_forcing", "problems.build"),
    ("savbdf.problems", None, "double_well_prime", "problems.double_well_prime"),
    ("savbdf.problems", None, "double_well", "problems.double_well"),
    ("savbdf.problems", "ProblemDefinition", "energy", "problems.energy"),
    ("savbdf.problems", "ProblemDefinition", "dissipation", "problems.dissipation"),
    ("savbdf.problems", "ProblemDefinition", "forcing_power", "problems.forcing_power"),
    ("savbdf.problems", "ProblemDefinition", "principal_norm_sq", "problems.principal_norm_sq"),
    ("savbdf.stepper", None, "solve_shifted", "spectral.solve_shifted"),
    ("savbdf.stepper", None, "sobolev_norm", "spectral.sobolev_norm"),
    ("savbdf.problems", None, "apply_symbol", "spectral.apply_symbol"),
    ("savbdf.problems", None, "dealias", "spectral.dealias"),
    ("savbdf.problems", None, "inner", "spectral.inner"),
    ("savbdf.problems", None, "integrate", "spectral.integrate"),
    ("savbdf.problems", None, "pointwise_map", "spectral.pointwise_map"),
    ("savbdf.problems", None, "quadratic_form", "spectral.quadratic_form"),
    ("savbdf.spectral", "Field", "from_spectral", "spectral.from_spectral"),
    ("savbdf.spectral", "Field", "from_physical", "spectral.from_physical"),
    ("savbdf.spectral", "Grid", "fourier2d", "spectral.grid"),
)

#: the scipy.fft functions the spectral module calls on Fourier grids, with
#: their direction (physical to spectral is forward)
TRANSFORM_HOOKS = (("rfft2", "fwd"), ("irfft2", "inv"))
TRANSFORM_SPANS = tuple(f"spectral.{name}" for name, _ in TRANSFORM_HOOKS)

#: the manufactured solution's sampling, wrapped on the object the factory returns
EXACT_HOOK = ("savbdf.problems", "exp_sine_product_solution")
EXACT_SPANS = ("problems.exact_field", "problems.exact_time_derivative")


class Tracer:
    """In-memory span store for one traced pass, plus transform counters."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.fwd = 0
        self.inv = 0
        self.transform_bytes = 0

    def wrap(self, name: str, fn):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap_transform(self, name: str, fn, direction: str):
        inner = self.wrap(f"spectral.{name}", fn)

        @functools.wraps(fn)
        def traced(x, *args, **kwargs):
            out = inner(x, *args, **kwargs)
            if direction == "fwd":
                self.fwd += 1
            else:
                self.inv += 1
            self.transform_bytes += getattr(x, "nbytes", 0) + getattr(out, "nbytes", 0)
            return out

        return traced

    def write_csv(self, path):
        base = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parent[i]},{name},{self.start[i] - base},{self.end[i] - base}\n")


class Hooks:
    """Context manager installing a tracer's wrappers; restores every name on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, replacement, original):
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def _hook(self, module_name, class_name, attr, span):
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            where = ".".join(p for p in (module_name, class_name, attr) if p)
            self.missing.append(where)
            return
        if isinstance(raw, classmethod):
            self._patch(owner, attr, classmethod(self.tracer.wrap(span, raw.__func__)), raw)
        else:
            self._patch(owner, attr, self.tracer.wrap(span, raw), raw)
        self.installed.add(span)

    def _hook_transforms(self):
        import scipy.fft

        spectral = importlib.import_module("savbdf.spectral")
        for name, direction in TRANSFORM_HOOKS:
            original = getattr(scipy.fft, name)
            wrapped = self.tracer.wrap_transform(name, original, direction)
            self._patch(scipy.fft, name, wrapped, original)
            # a direct `from scipy.fft import name` binding in the module
            if getattr(spectral, name, None) is original:
                self._patch(spectral, name, wrapped, original)
            self.installed.add(f"spectral.{name}")

    def _hook_exact(self):
        module_name, attr = EXACT_HOOK
        module = importlib.import_module(module_name)
        factory = getattr(module, attr, None)
        if factory is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrap = self.tracer.wrap

        def traced_factory(*args, **kwargs):
            exact = factory(*args, **kwargs)
            try:
                return dataclasses.replace(
                    exact,
                    field=wrap(EXACT_SPANS[0], exact.field),
                    time_derivative=wrap(EXACT_SPANS[1], exact.time_derivative),
                )
            except (TypeError, AttributeError):
                self.missing.append("ExactSolution.field/time_derivative")
                self.installed.difference_update(EXACT_SPANS)
                return exact

        self._patch(module, attr, traced_factory, factory)
        self.installed.update(EXACT_SPANS)

    def __enter__(self):
        try:
            for module_name, class_name, attr, span in CALL_SITE_HOOKS:
                self._hook(module_name, class_name, attr, span)
            self._hook_transforms()
            self._hook_exact()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False


@dataclass
class PassTrace:
    """What one traced pass measured."""

    wall_ns: int
    bytes_written: int
    self_ns: dict
    calls: Counter
    total_ns: Counter
    step_ns: list
    transform_in_step_ns: int
    record_ns: int
    harness_cases: int
    fwd: int
    inv: int
    transform_bytes: int
    tracer: Tracer = field(repr=False)


def summarize_pass(tracer: Tracer, wall_ns: int, bytes_written: int) -> PassTrace:
    names, parent = tracer.names, tracer.parent
    n = len(names)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0] * n
    run_inner = [0] * n  # initialize/step time directly under a run span
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            if names[p] == "stepper.run" and names[i] in ("stepper.initialize", "stepper.step"):
                run_inner[p] += dur[i]
    self_ns = dict.fromkeys(LAYERS, 0)
    calls: Counter = Counter()
    total: Counter = Counter()
    in_step = [False] * n
    step_ns = []
    transform_in_step = record = cases = 0
    transforms = set(TRANSFORM_SPANS)
    for i in range(n):
        name, p = names[i], parent[i]
        layer = name.split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + dur[i] - child[i]
        calls[name] += 1
        total[name] += dur[i]
        in_step[i] = name == "stepper.step" or (p >= 0 and in_step[p])
        if name == "stepper.step":
            step_ns.append(dur[i])
        elif name in transforms and in_step[i]:
            transform_in_step += dur[i]
        elif name == "stepper.run":
            record += dur[i] - run_inner[i]
            if p >= 0 and names[p].startswith("harness."):
                cases += 1
    return PassTrace(wall_ns, bytes_written, self_ns, calls, total, step_ns, transform_in_step,
                     record, cases, tracer.fwd, tracer.inv, tracer.transform_bytes, tracer)


# -- probes -----------------------------------------------------------------------

PROBE_SIZES = {64: 400, 128: 200, 256: 80}


def transform_probe(savbdf) -> dict:
    """µs per rfft2 / irfft2 through ``Field.coeffs`` / ``Field.values`` on fresh fields."""
    import numpy as np

    out = {}
    try:
        grid_of, field_cls = savbdf.Grid.fourier2d, savbdf.Field
        rng = np.random.default_rng(0)
        for n, reps in PROBE_SIZES.items():
            grid = grid_of(n)
            data = rng.standard_normal((n, n))
            coeffs = field_cls.from_physical(grid, data).coeffs
            fwd, inv = [], []
            for _ in range(reps):
                f = field_cls.from_physical(grid, data)
                t0 = time.perf_counter_ns()
                f.coeffs
                fwd.append(time.perf_counter_ns() - t0)
                g = field_cls.from_spectral(grid, coeffs)
                t0 = time.perf_counter_ns()
                g.values
                inv.append(time.perf_counter_ns() - t0)
            out[f"spectral.rfft2_us.n{n}"] = statistics.median(fwd) / 1e3
            out[f"spectral.irfft2_us.n{n}"] = statistics.median(inv) / 1e3
    except AttributeError as exc:
        warnings.warn(f"transform probe unavailable: {exc}")
        for n in PROBE_SIZES:
            out.setdefault(f"spectral.rfft2_us.n{n}", None)
            out.setdefault(f"spectral.irfft2_us.n{n}", None)
    return out


def forcing_probe(savbdf, n: int, reps: int = 30):
    """µs per manufactured-forcing rebuild f(t) of Allen-Cahn on an n^2 grid."""
    try:
        problem = savbdf.with_manufactured_forcing(savbdf.allen_cahn(savbdf.Grid.fourier2d(n)))
        forcing = problem.forcing
    except AttributeError as exc:
        warnings.warn(f"forcing probe unavailable: {exc}")
        return None
    times = []
    for i in range(reps):
        t = 0.01 * (i + 1)  # a new t each call, so every call rebuilds
        t0 = time.perf_counter_ns()
        forcing(t)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


# -- per-layer metrics --------------------------------------------------------------

#: per-layer metrics: name -> unit
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "harness.self_s": "s",
    "harness.cases": "count",
    "stepper.self_s": "s",
    "stepper.step_calls": "count",
    "stepper.step_us.p50": "us",
    "stepper.step_us.p99": "us",
    "stepper.step_us.samples": "count",
    "stepper.init_s": "s",
    "stepper.record_s": "s",
    "problems.self_s": "s",
    "problems.nonlinear_us": "us",
    "problems.nonlinear_calls": "count",
    "problems.forcing_us": "us",
    "problems.forcing_calls_per_step": "count/step",
    "problems.energy_calls_per_step": "count/step",
    "problems.energy_us": "us",
    "problems.dissipation_us": "us",
    "spectral.self_s": "s",
    "spectral.fwd_per_step": "count/step",
    "spectral.inv_per_step": "count/step",
    "spectral.transform_us": "us",
    "spectral.transform_frac": "ratio",
    "spectral.from_spectral_per_step": "count/step",
    "spectral.solve_us": "us",
    "spectral.bytes_per_step.computed": "B/step",
    **{f"spectral.{kind}_us.n{n}": "us" for kind in ("rfft2", "irfft2") for n in PROBE_SIZES},
    "tableau.self_s": "s",
    "tableau.combine_us": "us",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.remainder_s": "s",
}

#: span names each metric needs; a metric whose span was not hooked reads null
_NEEDS = {
    "harness.cases": ("stepper.run",),
    "stepper.step_calls": ("stepper.step",),
    "stepper.step_us.p50": ("stepper.step",),
    "stepper.step_us.p99": ("stepper.step",),
    "stepper.step_us.samples": ("stepper.step",),
    "stepper.init_s": ("stepper.initialize",),
    "stepper.record_s": ("stepper.run", "stepper.initialize", "stepper.step"),
    "problems.nonlinear_us": ("problems.double_well_prime",),
    "problems.nonlinear_calls": ("problems.double_well_prime",),
    "problems.forcing_us": ("problems.exact_time_derivative",),
    "problems.forcing_calls_per_step": ("problems.exact_time_derivative",),
    "problems.energy_calls_per_step": ("problems.energy",),
    "problems.energy_us": ("problems.energy",),
    "problems.dissipation_us": ("problems.dissipation",),
    "spectral.transform_frac": ("stepper.step",),
    "spectral.from_spectral_per_step": ("spectral.from_spectral",),
    "spectral.solve_us": ("spectral.solve_shifted",),
    "tableau.combine_us": ("tableau.combine_history",),
}
_TRANSFORM_METRICS = ("spectral.fwd_per_step", "spectral.inv_per_step", "spectral.transform_us",
                      "spectral.transform_frac", "spectral.bytes_per_step.computed")


def _mean_us(passes: list[PassTrace], *names: str) -> float:
    calls = sum(p.calls[n] for p in passes for n in names)
    total = sum(p.total_ns[n] for p in passes for n in names)
    return total / calls / 1e3 if calls else 0.0


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(traced: list[PassTrace], untraced_ns: list[int], steps: int,
                  installed: set[str], forcing_us, probes: dict) -> dict:
    """Per-layer metrics of a workload from its traced passes.

    Self times, counts and the remainder come from the traced pass of median
    wall time, so they add up to that pass; per-call means and step-time
    percentiles pool every traced pass.
    """
    med = sorted(traced, key=lambda p: p.wall_ns)[(len(traced) - 1) // 2]
    step_ns = [d for p in traced for d in p.step_ns]
    traced_wall = statistics.median(p.wall_ns for p in traced)
    untraced_wall = statistics.median(untraced_ns)
    transforms_seen = med.fwd + med.inv > 0
    step_total = med.total_ns["stepper.step"]
    m = {
        "cli.bytes_written": med.bytes_written,
        "harness.cases": med.harness_cases,
        "stepper.step_calls": med.calls["stepper.step"],
        "stepper.step_us.p50": _percentile(step_ns, 50) / 1e3,
        "stepper.step_us.p99": _percentile(step_ns, 99) / 1e3,
        "stepper.step_us.samples": len(step_ns),
        "stepper.init_s": med.total_ns["stepper.initialize"] / 1e9,
        "stepper.record_s": med.record_ns / 1e9,
        "problems.nonlinear_us": _mean_us(traced, "problems.double_well_prime"),
        "problems.nonlinear_calls": med.calls["problems.double_well_prime"],
        "problems.forcing_us": forcing_us,
        "problems.forcing_calls_per_step": med.calls["problems.exact_time_derivative"] / steps,
        "problems.energy_calls_per_step": med.calls["problems.energy"] / steps,
        "problems.energy_us": _mean_us(traced, "problems.energy"),
        "problems.dissipation_us": _mean_us(traced, "problems.dissipation"),
        "spectral.fwd_per_step": med.fwd / steps,
        "spectral.inv_per_step": med.inv / steps,
        "spectral.transform_us": _mean_us(traced, *TRANSFORM_SPANS),
        "spectral.transform_frac": med.transform_in_step_ns / step_total if step_total else 0.0,
        "spectral.from_spectral_per_step": med.calls["spectral.from_spectral"] / steps,
        "spectral.solve_us": _mean_us(traced, "spectral.solve_shifted"),
        "spectral.bytes_per_step.computed": med.transform_bytes / steps,
        "tableau.combine_us": _mean_us(traced, "tableau.combine_history"),
        "trace.wall_s": med.wall_ns / 1e9,
        "trace.overhead_s": (traced_wall - untraced_wall) / 1e9,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.remainder_s": (med.wall_ns - sum(med.self_ns.values())) / 1e9,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = med.self_ns.get(layer, 0) / 1e9
    m.update(probes)

    for name, needs in _NEEDS.items():
        lost = [s for s in needs if s not in installed]
        if lost:
            warnings.warn(f"{name}: hook for {', '.join(lost)} not installed; reporting null")
            m[name] = None
    if not transforms_seen:
        warnings.warn("no scipy.fft transform calls were seen; transform metrics read null")
        for name in _TRANSFORM_METRICS:
            m[name] = None
    counts = [(p.calls, p.fwd, p.inv, p.transform_bytes) for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        warnings.warn("call counts differ between traced passes of the same inputs")
    return {name: m[name] for name in LAYER_METRICS}

"""Benchmark of the savbdf command line: time to solution and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload is a fixed list of ``savbdf.cli.main`` invocations (see
``workloads.py``), run in this process, one thread, with ``SAV_THREADS``
unset.  The benchmark repeats whole passes of it for about ``--seconds``
seconds and checks every pass's artifacts against ``reference.json``.

``--trace 0`` reports the end-to-end metrics: the pass time ``wall_s``
(each invocation's median over the passes, summed), ``steps_per_s``, the
median fresh-interpreter ``setup_s`` of several set-ups, and
``peak_rss_mb`` of this process.  The process runs pinned to one CPU, and
the times are rescaled to a fixed reference speed of the host by the
calibration slices of ``hostspeed.py`` that bracket every timed piece; the
raw times are printed and kept in the run's record.  ``--trace 1``
alternates traced and untraced passes and reports the per-layer metrics of
``tracing.py``.  ``--workload all`` runs every workload in both modes, each
in its own process, and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
the cases (ladder rungs, stability cases) that raised, exited
nonzero or missed the reference.  The run's host record and details go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import hostspeed
from host import SourceMissing, host_info, import_savbdf, pin_environment
from reference import check_pass, load_reference
from tracing import (LAYER_METRICS, Hooks, Tracer, forcing_probe, layer_metrics, summarize_pass,
                     transform_probe)
from workloads import WORKLOADS, invocations

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPEATS = 7
#: fewest passes per run, so each invocation's median has an outlier to reject
MIN_PASSES = 3
#: the traced run makes at least this many traced passes and one untraced
MIN_TRACED_PASSES = 2

E2E_METRICS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: grid edge of both workloads, where the forcing probe runs
GRID_EDGE = 64


def run_pass(main, workload: str, seed: int, out_root: Path, between=None):
    """One pass of the workload through `main`.

    `between`, if given, is called untimed before each invocation with its
    key and once after the last with None.  Returns (pass wall ns, exit code
    per invocation, wall ns per invocation).
    """
    argvs = [(inv.key, [*inv.argv, "--out", str(out_root / inv.key)])
             for inv in invocations(workload, seed)]
    outcomes, times = {}, {}
    clock = time.perf_counter_ns
    t0 = clock()
    for key, argv in argvs:
        if between:
            between(key)
        t = clock()
        try:
            outcomes[key] = main(argv)
        except SystemExit as exc:
            outcomes[key] = exc.code
        except Exception as exc:  # a traceback escaping the CLI fails the case
            traceback.print_exc()
            outcomes[key] = f"raised {type(exc).__name__}"
        times[key] = clock() - t
    if between:
        between(None)
    return clock() - t0, outcomes, times


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _setup_seconds(workload: str) -> float:
    probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                           capture_output=True, text=True, timeout=120, check=False)
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({probe.returncode}): {probe.stderr.strip()}")
    return float(probe.stdout.strip().splitlines()[-1])


def _setup_reference_seconds(workload: str, kernel) -> tuple[list, list]:
    """SETUP_REPEATS set-ups, each bracketed by calibration slices.

    Returns (set-up times at the reference speed, raw set-up times).
    """
    raw, brackets = [], [kernel.bracket(0.5)]
    for _ in range(SETUP_REPEATS):
        raw.append(_setup_seconds(workload))
        brackets.append(kernel.bracket(raw[-1]))
    ref = [hostspeed.reference_seconds(s, brackets[i], brackets[i + 1]) for i, s in enumerate(raw)]
    return ref, raw


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, cli, savbdf, reference) -> tuple[dict, list, dict]:
    """Run the passes of one workload; returns (metrics, case results, details)."""
    workload = WORKLOADS[args.workload]
    work = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    cases = []
    details: dict = {}
    try:
        kernel = None if args.trace else hostspeed.Kernel()
        if kernel:
            setups, details["setup_runs_raw_s"] = _setup_reference_seconds(args.workload, kernel)
        for i, argv in enumerate(workload.warmup):
            cli.main([*argv, "--out", str(work / f"warmup{i}")])

        untraced: list[int] = []
        # reference seconds, and raw ns, of each invocation over the passes
        per_invocation: dict[str, list[float]] = {}
        per_invocation_raw: dict[str, list[int]] = {}
        # the run's calibration slices in order; the slice after a pass's last
        # invocation is also the slice before the next pass's first
        brackets: list[float] = []
        # (key, index of the slice before it) of each invocation of the current pass
        order: list[tuple[str, int]] = []

        def between(key):
            reuse = key is not None and not order and bool(brackets)
            if key is not None:
                order.append((key, len(brackets) - 1 if reuse else len(brackets)))
            if not reuse:
                raw = per_invocation_raw.get(key or order[-1][0])
                brackets.append(kernel.bracket(raw[-1] / 1e9 if raw else 0.0))

        traced = []
        installed: set[str] = set()
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            out_root = work / f"pass{i}"
            # the traced run alternates traced and untraced passes, traced first
            if args.trace and i % 2 == 0:
                tracer = Tracer()
                with Hooks(tracer) as hooks:
                    wall, outcomes, _ = run_pass(tracer.wrap("cli.main", cli.main), args.workload,
                                                 args.seed, out_root)
                for where in hooks.missing:
                    warnings.warn(f"hooked name {where} no longer exists")
                installed = hooks.installed
                traced.append(summarize_pass(tracer, wall, _bytes_under(out_root)))
            elif kernel:
                order.clear()
                wall, outcomes, times = run_pass(cli.main, args.workload, args.seed, out_root, between)
                untraced.append(wall)
                for key, j in order:
                    per_invocation_raw.setdefault(key, []).append(times[key])
                    per_invocation.setdefault(key, []).append(
                        hostspeed.reference_seconds(times[key] / 1e9, brackets[j], brackets[j + 1]))
            else:
                wall, outcomes, _ = run_pass(cli.main, args.workload, args.seed, out_root)
                untraced.append(wall)
            cases += check_pass(args.workload, outcomes, out_root, reference)
            shutil.rmtree(out_root, ignore_errors=True)
            i += 1
            if args.trace:
                enough = len(untraced) >= 1 and len(traced) >= MIN_TRACED_PASSES
                next_ns = traced[-1].wall_ns if i % 2 == 0 else wall
            else:
                enough = len(untraced) >= MIN_PASSES
                next_ns = statistics.median(untraced)
            # stop before a pass that would end past the deadline
            if enough and time.perf_counter() + next_ns / 1e9 > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details["untraced_pass_s"] = [w / 1e9 for w in untraced]
    if not args.trace:
        # each invocation's median over the passes, summed: a slow stretch of
        # the host costs one invocation's sample, not a whole pass
        wall_s = sum(statistics.median(s) for s in per_invocation.values())
        details["raw_wall_s"] = sum(statistics.median(ns) for ns in per_invocation_raw.values()) / 1e9
        details["raw_setup_s"] = statistics.median(details["setup_runs_raw_s"])
        details["setup_runs_s"] = setups
        metrics = {
            "wall_s": wall_s,
            "steps_per_s": workload.steps / wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {k: _metric(v, E2E_METRICS[k]) for k, v in metrics.items()}, cases, details

    details["traced_pass_s"] = [p.wall_ns / 1e9 for p in traced]
    values = layer_metrics(traced, untraced, workload.steps, installed,
                           forcing_probe(savbdf, GRID_EDGE), transform_probe(savbdf))
    median_pass = sorted(traced, key=lambda p: p.wall_ns)[(len(traced) - 1) // 2]
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    median_pass.tracer.write_csv(spans)
    details["spans_csv"] = str(spans.relative_to(HERE.parent))
    return {k: _metric(v, LAYER_METRICS[k]) for k, v in values.items()}, cases, details


def _print_table(metrics: dict):
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {value:>14} {m['unit']}")


def run_one(args) -> int:
    found_env = pin_environment()
    cpu = hostspeed.pin_to_one_cpu()
    try:
        savbdf = import_savbdf()
        reference = load_reference()
    except (SourceMissing, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    cli = sys.modules["savbdf.cli"]
    info = host_info(found_env, args.seed)
    info["pinned_cpu"] = cpu
    if info["sav_threads_was_set"]:
        print(f"perfbench: warning: SAV_THREADS={found_env['SAV_THREADS']} was set at start; "
              "unset for this run", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)

    metrics, cases, details = measure(args, cli, savbdf, reference)
    failed = [c for c in cases if not c.ok]
    for c in failed:
        print(f"perfbench: case {c.name} failed: {c.why}", file=sys.stderr)
    result = {"correct": not failed, "attempted": len(cases), "failed": len(failed), "metrics": metrics}

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "host": info, "details": details,
              "failed_cases": [{"name": c.name, "why": c.why} for c in failed], "result": result}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"host {json.dumps(info)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"cases={len(cases)} failed_frac={len(failed) / len(cases):.6g}")
    _print_table(metrics)
    for name in ("raw_wall_s", "raw_setup_s"):
        if name in details:
            print(f"  {name:<40} {details[name]:>14.6g} s, not rescaled")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a process of its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            child = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(f"perfbench: {name} trace={trace} exited {child.returncode}", file=sys.stderr)
                return child.returncode or 1
            print("\n".join(lines[1:-1]))
            part = json.loads(lines[-1])
            total["correct"] = total["correct"] and part["correct"]
            total["attempted"] += part["attempted"]
            total["failed"] += part["failed"]
            total["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())

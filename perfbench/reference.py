"""Reference check: compare a pass's artifacts with values frozen from the seed code.

Every invocation's artifacts are read into a plain dict (summary scalars and
CSV tables).  ``reference.json`` holds the same dicts, written once by
``freeze_reference.py`` from the code the benchmark was defined on.  A case
passes when its invocation exited 0 and its values agree with the frozen ones
to the tolerances below.  The reference is never regenerated to make a run
pass; a change that moves the numbers beyond the tolerance is a wrong answer
until shown otherwise.

Tolerances.  Reordering floating-point work (for example writing
``v ** 3 - v`` as ``v * (v * v - 1)``) moves the finest convergence-ladder
errors by about 1e-6 relative and the slopes by about 3e-7; everything else
moves by 1e-13 relative or less.  A value passes when
``|a - b| <= RTOL * max(|a|, |b|) + atol`` with ``atol = ATOL``, the
harness's own rounding floor for errors, or ``SLOPE_ATOL`` for fitted slopes.
A wrong scheme moves errors by factors and slopes by whole orders.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-11
SLOPE_ATOL = 1e-3

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class CaseResult:
    name: str
    ok: bool
    why: str = ""


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- reading artifacts ------------------------------------------------------------


def _table(path: Path) -> list[list[float]] | None:
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


def read_artifacts(workload: str, out: Path) -> dict:
    """The checked values of one invocation's output directory."""
    with open(out / "summary.json", "r", encoding="utf-8") as fh:
        found = {"summary": json.load(fh)}
    if workload == "converge_ac3":
        found["convergence"] = _table(out / "convergence.csv")
    return found


# -- comparison --------------------------------------------------------------------


def _close(a, b, atol: float = ATOL) -> bool:
    if isinstance(b, float) or (isinstance(b, int) and not isinstance(b, bool)):
        if isinstance(a, bool) or not isinstance(a, (int, float)) or not math.isfinite(a):
            return False
        return abs(a - b) <= RTOL * max(abs(a), abs(b)) + atol
    return a == b


def _summary_mismatches(actual: dict, expected: dict) -> list[str]:
    bad = []
    for key in expected:
        if key not in actual:
            bad.append(f"{key} missing")
            continue
        atol = SLOPE_ATOL if key.startswith("slope_") else ATOL
        if not _close(actual[key], expected[key], atol):
            bad.append(f"{key} = {actual[key]!r}, reference {expected[key]!r}")
    return bad


def _row_close(row, ref_row) -> bool:
    return row is not None and len(row) == len(ref_row) and all(
        _close(a, b) for a, b in zip(row, ref_row))


def check_invocation(workload: str, key: str, found: dict | str, ref: dict) -> list[CaseResult]:
    """Judge the cases of one invocation from its artifacts, or from why it has none."""
    names = [f"rung{i}" for i in range(len(ref["convergence"]))] \
        if workload == "converge_ac3" else [key]
    if isinstance(found, str):
        return [CaseResult(n, False, found) for n in names]
    summary = found["summary"]
    bad = _summary_mismatches(summary, ref["summary"])
    if workload == "converge_ac3":
        rows = found["convergence"] or []
        out = []
        for i, (name, ref_row) in enumerate(zip(names, ref["convergence"])):
            row = rows[i] if i < len(rows) else None
            why = "; ".join(bad) or ("" if _row_close(row, ref_row) else f"row {row!r}, reference {ref_row!r}")
            out.append(CaseResult(name, not why, why))
        return out
    if workload == "stability_matrix":
        if summary.get("violations") != []:
            bad.append(f"violations {summary.get('violations')!r}")
        if summary.get("monotone_violations") != 0:
            bad.append(f"monotone_violations {summary.get('monotone_violations')!r}")
    return [CaseResult(key, not bad, "; ".join(bad))]


def check_pass(workload: str, outcomes: dict, out_root: Path, reference: dict) -> list[CaseResult]:
    """Check every invocation of a pass; `outcomes` maps invocation key to exit code.

    Invocation keys name their inputs (the stability keys carry the probe
    seed), so the frozen entry of each is ``reference[workload][key]``.
    """
    frozen = reference[workload]
    results: list[CaseResult] = []
    for key, rc in outcomes.items():
        if rc != 0:
            found = f"exit code {rc!r}"
        else:
            try:
                found = read_artifacts(workload, out_root / key)
            except (OSError, ValueError) as exc:
                found = f"unreadable artifacts: {exc}"
        results.extend(check_invocation(workload, key, found, frozen[key]))
    return results

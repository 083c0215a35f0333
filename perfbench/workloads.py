"""The benchmark workloads: the CLI invocations of one pass, and their sizes.

A pass is the list of ``savbdf.cli.main`` invocations that makes up one
workload.  Each invocation has a key, which names both its artifact
directory and its entry in ``reference.json``.  ``steps`` is the number of
outer-schedule time steps of a pass (fixed by the configuration, startup
levels included, cascade substeps not).
"""

from __future__ import annotations

from dataclasses import dataclass

#: stability probe seeds with a frozen reference
STABILITY_SEED_POOL = 8

STABILITY_PROBLEMS = ("allen_cahn", "cahn_hilliard")
STABILITY_ORDERS = (1, 2, 3, 4, 5)
STABILITY_DTS = ("0.1", "1.0")
STABILITY_STEPS = 200

#: default Allen-Cahn order-3 ladder 1/40 .. 1/640 at T = 1
CONVERGE_STEPS = 40 + 80 + 160 + 320 + 640


@dataclass(frozen=True)
class Invocation:
    key: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: int
    #: short invocations at the workload's sizes, run once untimed, so lazy
    #: imports, transform plans and the allocator's heap are ready first
    warmup: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge_ac3",
            "the paper's headline order-3 convergence study; the only forced path with "
            "a forcing rebuild, exact sampling and three error norms per step",
            CONVERGE_STEPS,
            (("converge", "--problem", "allen_cahn", "--order", "3",
              "--dt-list", "0.25,0.125,0.0625"),),
        ),
        Workload(
            "stability_matrix",
            "the 20-case large-step matrix: unforced cascade start, order-5 history, "
            "Cahn-Hilliard symbols, mixed-sign data and one artifact set per case",
            len(STABILITY_PROBLEMS) * len(STABILITY_ORDERS) * len(STABILITY_DTS) * STABILITY_STEPS,
            tuple(("stability", "--problem", p, "--order", "5", "--dt", "1.0",
                   "--n-steps", "20") for p in STABILITY_PROBLEMS),
        ),
    )
}


def stability_seed(seed: int, case: int) -> int:
    """The probe seed of stability case `case`, drawn from the frozen pool.

    Consecutive cases take consecutive pool seeds, so every pass mixes all of
    them and its time does not hinge on one draw of random data.
    """
    return (seed + case) % STABILITY_SEED_POOL


def invocations(name: str, seed: int) -> list[Invocation]:
    """The CLI invocations of one pass of workload `name` (without ``--out``)."""
    if name == "converge_ac3":
        return [Invocation("converge", ("converge", "--problem", "allen_cahn", "--order", "3"))]
    if name == "stability_matrix":
        cases = [(p, k, dt) for p in STABILITY_PROBLEMS for k in STABILITY_ORDERS for dt in STABILITY_DTS]
        out = []
        for i, (p, k, dt) in enumerate(cases):
            probe = stability_seed(seed, i)
            out.append(Invocation(f"{p}-k{k}-dt{dt}-seed{probe}",
                                  ("stability", "--problem", p, "--order", str(k), "--dt", dt,
                                   "--n-steps", str(STABILITY_STEPS), "--seed", str(probe))))
        return out
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def build_problems(savbdf, name: str) -> list:
    """Construct the grids and problems of workload `name` through the public API."""
    grid = savbdf.Grid
    if name == "converge_ac3":
        return [savbdf.with_manufactured_forcing(savbdf.allen_cahn(grid.fourier2d(64)))]
    if name == "stability_matrix":
        g = grid.fourier2d(64)
        return [savbdf.allen_cahn(g), savbdf.cahn_hilliard(g)]
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")

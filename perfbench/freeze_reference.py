"""Write ``reference.json``: the checked values of every workload's artifacts.

    python3 perfbench/freeze_reference.py

Run once, on the code the benchmark was defined on.  Do not rerun it to make
a failing benchmark pass: a change that moves the numbers beyond the
tolerances of ``reference.py`` must be explained, and the reference replaced
only with that explanation recorded beside it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from host import import_savbdf, pin_environment
from reference import REFERENCE_PATH, read_artifacts
from run import OUT_DIR, run_pass
from workloads import STABILITY_SEED_POOL, WORKLOADS


def main() -> int:
    pin_environment()
    import_savbdf()
    cli = sys.modules["savbdf.cli"]
    frozen: dict = {}
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        for name in WORKLOADS:
            seeds = range(STABILITY_SEED_POOL) if name == "stability_matrix" else (0,)
            for seed in seeds:
                out_root = work / f"{name}-{seed}"
                _, outcomes, _ = run_pass(cli.main, name, seed, out_root)
                bad = {k: rc for k, rc in outcomes.items() if rc != 0}
                if bad:
                    print(f"{name} seed {seed}: nonzero exits {bad}", file=sys.stderr)
                    return 1
                frozen.setdefault(name, {}).update(
                    {key: read_artifacts(name, out_root / key) for key in outcomes})
                print(f"froze {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

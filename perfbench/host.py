"""Locating the program under test, pinning the process to one thread, host record.

The benchmark runs the package from the checkout's ``src/`` directory, never
an installed copy, and refuses to run when the source is not there.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: thread-pool knobs of the numerical stack, pinned to one thread
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: the package's own worker-count knob, removed for the run
SAV_THREADS = "SAV_THREADS"


class SourceMissing(RuntimeError):
    """The checkout holds no importable package source."""


def pin_environment() -> dict:
    """Pin BLAS/OpenMP pools to one thread and drop SAV_THREADS.

    Returns the values found at start (None when unset), for the host record.
    Must run before numpy is imported.
    """
    found = {var: os.environ.get(var) for var in PINNED_THREAD_VARS + (SAV_THREADS,)}
    for var in PINNED_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop(SAV_THREADS, None)
    return found


def import_savbdf():
    """Import the package from ``src/`` of this checkout, or raise SourceMissing."""
    if not (SRC / "savbdf" / "__init__.py").is_file():
        raise SourceMissing(f"no package source at {SRC / 'savbdf'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("savbdf")
    origin = Path(module.__file__).resolve().parent
    if origin != (SRC / "savbdf").resolve():
        raise SourceMissing(f"savbdf imported from {origin}, not from {SRC / 'savbdf'}")
    importlib.import_module("savbdf.cli")
    return module


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_info(found_env: dict, seed: int) -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env_at_start": found_env,
        "thread_env_in_run": {var: os.environ.get(var) for var in PINNED_THREAD_VARS + (SAV_THREADS,)},
        "sav_threads_was_set": found_env.get(SAV_THREADS) is not None,
        "seed": seed,
    }

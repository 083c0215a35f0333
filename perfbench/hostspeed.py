"""Host-speed calibration: time in seconds at a fixed reference speed of the host.

The benchmark was defined on a shared host whose cores flip between a fast
and a slow state (about 1.8x apart) that last from tens of milliseconds to
seconds, in a mix that drifts over minutes, so raw pass times swing by
30-70% between runs of the same code.  The process is therefore pinned to
one CPU, and every timed piece of work is bracketed by short slices of a
fixed calibration kernel run on that CPU just before and just after it (the
slice between two pieces serves both).  A piece's time divided by the
kernel's mean time per step in its two brackets is its cost in kernel steps;
multiplied by ``REF_STEP_S`` it is the piece's time in seconds at the
reference speed.

The kernel is a miniature of the workloads' step, written here so that no
change to ``savbdf`` changes it: a pointwise cubic nonlinearity, a mean and
a sum over the 64x64 field, a forward and an inverse real 2-D FFT with a
diagonal solve, and a small Python object kept in a short history list.  So
it meets the host's fast and slow states about the way a savbdf step does.
"""

from __future__ import annotations

import os
import time

#: seconds per kernel step at the reference speed: the median per-step time
#: of 200 slices of 1000 steps on the host the benchmark was defined on
REF_STEP_S = 1.586e-4
#: kernel steps in a bracket, as a share of the bracketed piece's time
BRACKET_SHARE = 0.35
#: fewest and most kernel steps in one bracket
MIN_STEPS, MAX_STEPS = 300, 4000

_N = 64


def pin_to_one_cpu():
    """Pin this process (and the children it starts) to its lowest usable CPU.

    The calibration then runs on the CPU the work runs on.  Returns the CPU,
    or None where the platform has no affinity call.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class _State:
    __slots__ = ("u", "r", "t")

    def __init__(self, u, r, t):
        self.u, self.r, self.t = u, r, t


class Kernel:
    """The calibration kernel; ``step_seconds(steps)`` times a slice of it.

    Build it after ``host.pin_environment``: it imports numpy.
    """

    def __init__(self):
        import numpy as np
        import scipy.fft

        self._rfft2, self._irfft2, self._sqrt = scipy.fft.rfft2, scipy.fft.irfft2, np.sqrt
        self._mean, self._sum = np.mean, np.sum
        k = np.fft.fftfreq(_N, 1.0 / _N)
        kr = np.fft.rfftfreq(_N, 1.0 / _N)
        self._den = 1.0 + 0.01 * (k[:, None] ** 2 + kr[None, :] ** 2)
        self._u0 = 0.5 * np.random.default_rng(1).standard_normal((_N, _N))
        self.step_seconds(MIN_STEPS)  # transform plans and the heap ready first

    def step_seconds(self, steps: int) -> float:
        """Mean seconds per kernel step over a slice of `steps` steps."""
        history = [_State(self._u0, 1.0, 0.0)]
        area = float(_N * _N)
        rfft2, irfft2, sqrt, mean, total = self._rfft2, self._irfft2, self._sqrt, self._mean, self._sum
        t0 = time.perf_counter()
        for _ in range(steps):
            s = history[-1]
            v = s.u
            f = v * (v * v - 1.0)
            energy = float(mean(0.25 * (v * v - 1.0) ** 2)) + 1.0
            r = s.r - 0.01 * float(total(f * v)) / (2.0 * sqrt(energy)) / area
            u = irfft2(rfft2(v - 0.01 * f) / self._den, s=(_N, _N))
            history.append(_State(u, r, s.t + 0.01))
            del history[:-4]
        return (time.perf_counter() - t0) / steps

    def bracket(self, expected_s: float) -> float:
        """A slice sized to BRACKET_SHARE of a piece expected to take `expected_s`."""
        steps = int(BRACKET_SHARE * expected_s / REF_STEP_S)
        return self.step_seconds(min(MAX_STEPS, max(MIN_STEPS, steps)))


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """`seconds` of work rescaled to the reference speed, from its two brackets."""
    return seconds * REF_STEP_S / ((before + after) / 2.0)

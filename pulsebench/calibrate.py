"""The reference computation that op times are measured against.

The benchmark runs on a few cores of a shared host, whose speed changes with
its neighbours' load. One op on the same input took from 0.38 to 0.56 s of
CPU time within a run, and the median op time of a run moved by a quarter
between runs. The end-to-end op metrics therefore divide each op's wall
time by the time of this fixed computation, repeated in the same process
right before and right after the op for about a tenth of the op's time.
Load that slows the machine slows both alike and largely cancels in the
ratio; a change to pulsespec moves the op and not the reference.

The reference does what a pulsespec op spends its time on, in about equal
parts and with no pulsespec code: a complex exponential of an omega-by-time
grid times a vector (the transform), and an interpreted loop of in-place
updates on growing slices (the kernel).
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(1801_04442)
_OMEGA = _rng.uniform(-40.0, 40.0, 256)
_TIMES = np.linspace(0.0, 2.4, 2401)
_SIGNAL = _rng.standard_normal(_TIMES.size) + 1j * _rng.standard_normal(_TIMES.size)
_LOOP = 2400
_DECAY = np.exp(-2e-3)
_PHASE = np.exp(3e-3j)


def reference_work() -> complex:
    spectrum = np.exp(1j * np.outer(_OMEGA, _TIMES)) @ _SIGNAL
    excited = np.ones(_LOOP, dtype=complex)
    ground = np.zeros(_LOOP, dtype=complex)
    for m in range(1, _LOOP + 1):
        ground[:m] += (1.0 - _DECAY) * excited[:m]
        excited[:m] *= _PHASE
    return spectrum.sum() + ground.sum()


def reference_seconds_for(seconds: float) -> float:
    """Mean wall seconds of reference_work(), run for about ``seconds``, at least once."""
    start = time.perf_counter()
    runs = 0
    while True:
        reference_work()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / runs

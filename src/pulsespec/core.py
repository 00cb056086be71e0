"""Domain types of a pulse-driven two-level emitter.

Pulse schedules, the run parameters, and the two results the pipeline hands
between stages: the theta kernels of the correlators and the spectra. Each
validates its invariants when it is built, and its arrays are read-only
copies of what the caller passed. The detector grid and a detuning mixture
are plain arrays, checked by ``check_omega_grid`` and ``check_mixture``.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class PulseAxis(Enum):
    """Rotation axis of an instantaneous pi pulse."""

    X = "x"
    Y = "y"
    Z = "z"


@dataclass(frozen=True)
class PulseEvent:
    """A single instantaneous pulse: (time, rotation axis)."""

    time: float
    axis: PulseAxis


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered instantaneous-pulse events over an observation window [0, T].

    Invariants: finite event times, strictly increasing, in (0, window_end]; PulseAxis axes.
    """

    events: tuple[PulseEvent, ...]
    window_end: float

    def __post_init__(self):
        if not 0 < self.window_end < math.inf:
            raise ValueError("window_end must be positive and finite")
        prev = 0.0
        for ev in self.events:
            if not prev < ev.time < math.inf:
                raise ValueError(
                    f"pulse times must be finite, positive and strictly "
                    f"increasing; got {ev.time} after {prev}"
                )
            if not isinstance(ev.axis, PulseAxis):
                raise ValueError(f"pulse at t={ev.time} has axis {ev.axis!r}, not a PulseAxis")
            prev = ev.time
        if self.events and self.events[-1].time > self.window_end * (1 + 1e-12):
            raise ValueError(
                f"pulse at t={self.events[-1].time} lies outside the window "
                f"(0, {self.window_end}]"
            )

    @property
    def times(self) -> np.ndarray:
        return np.array([ev.time for ev in self.events])

    def min_gap(self) -> float:
        """Smallest spacing between consecutive events (including 0 -> first).

        Returns +inf for an empty schedule.
        """
        if not self.events:
            return np.inf
        t = self.times
        return float(np.min(np.diff(np.concatenate(([0.0], t)))))

    def digest(self) -> str:
        """Deterministic short hash of the event list, for run metadata."""
        h = hashlib.sha256()
        h.update(f"T={self.window_end:.17g}".encode())
        for ev in self.events:
            h.update(f";{ev.time:.17g},{ev.axis.value}".encode())
        return h.hexdigest()[:16]


def window_tol(t_end: float) -> float:
    """How far a time may lie from the window end t_end and still match it."""
    return 1e-9 * max(1.0, t_end)


def check_omega_grid(values) -> np.ndarray:
    """Validate a detector grid and return it as a new float array.

    A grid is nonempty, finite, strictly increasing and uniform: no point is
    further from the affine grid through its end points than 1e-9 of the
    largest |omega|, a margin far above rounding.
    """
    grid = np.array(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("omega_grid must be a nonempty finite 1-d array")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("omega_grid must be strictly increasing")
    step = (grid[-1] - grid[0]) / max(grid.size - 1, 1)
    affine = grid[0] + np.arange(grid.size) * step
    if np.max(np.abs(grid - affine)) > 1e-9 * np.max(np.abs(grid)):
        raise ValueError("omega_grid must be uniform")
    return grid


def check_mixture(deltas, weights) -> tuple[np.ndarray, np.ndarray]:
    """Validate a detuning mixture; return its members of positive weight, in order.

    It is the only home of the emitter's detuning delta from the pulse
    carrier: a single detuning is the one-point mixture ([delta], [1.0]).
    Two nonempty 1-d arrays of equal length, all values finite, the weights
    nonnegative and summing to one within 1e-12. Zero weights are dropped
    here, so nothing computes them. The arrays returned are new.
    """
    deltas = np.array(deltas, dtype=float)
    weights = np.array(weights, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0 or deltas.shape != weights.shape:
        raise ValueError("deltas and weights must be nonempty 1-d arrays of equal length")
    if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(weights))):
        raise ValueError("values must be finite")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {total}")
    return deltas[weights > 0], weights[weights > 0]


@dataclass(frozen=True, kw_only=True)
class SimParams:
    """Facts of one run that every detuning shares, all finite (see ``check_mixture``).

    gamma      spontaneous emission rate (> 0); the natural unit choice is 2
    t_end      observation window T (> 0); must match the schedule window
    dt         integration step; t_end must be an integer number of steps

    Equal parameters compare and hash equal. The detector grid is an input
    of the transform, not a run parameter.
    """

    gamma: float = 2.0
    t_end: float = 2.0
    dt: float = 1e-3

    def __post_init__(self):
        for name in ("gamma", "t_end", "dt"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        n = round(self.t_end / self.dt)
        if n < 1 or abs(n * self.dt - self.t_end) > window_tol(self.t_end):
            raise ValueError(
                f"t_end={self.t_end} is not an integer multiple of dt={self.dt}"
            )

    @property
    def n_steps(self) -> int:
        """Number of dt steps spanning [0, t_end]."""
        return round(self.t_end / self.dt)

    def check_schedule(self, schedule: PulseSchedule) -> None:
        """Sanity-check a parameter/schedule combination before a run.

        Mismatched windows are an error. A dt above a tenth of the smallest
        pulse gap only warns: coarse grids are legitimate for bookkeeping
        cross-checks, but production spectra want many steps per interval.
        Ten steps per gap, up to a relative 1e-9 as ``window_tol``, suffice.
        """
        if abs(schedule.window_end - self.t_end) > window_tol(self.t_end):
            raise ValueError(
                f"schedule window {schedule.window_end} != t_end {self.t_end}"
            )
        gap = schedule.min_gap()
        if not self.dt <= gap / 10.0 * (1.0 + 1e-9):
            warnings.warn(
                f"dt={self.dt} resolves the minimum pulse gap {gap} with "
                f"fewer than 10 steps; spectra may be inaccurate",
                stacklevel=2,
            )


def default_omega_grid(omega_min: float = -40.0, omega_max: float = 40.0,
                       step: float = 0.025) -> np.ndarray:
    """Uniform detector grid; the default covers every lineshape studied."""
    if not (0 < step < math.inf and -math.inf < omega_min < omega_max < math.inf):
        raise ValueError("need finite omega_max > omega_min and step > 0")
    n = round((omega_max - omega_min) / step)
    if abs(omega_min + n * step - omega_max) > 1e-9 * max(1.0, abs(omega_max)):
        raise ValueError("omega range is not an integer number of steps")
    return check_omega_grid(omega_min + np.arange(n + 1) * step)


@dataclass(frozen=True)
class CorrelationKernel:
    """Two-time correlators reduced over the emission triangle.

    g1[j] = integral over t in [0, T - theta_j] of <sigma_+(t+theta_j) sigma_-(t)>
    g2[j] = same for <sigma_-(t) sigma_+(t+theta_j)>

    with theta_j = j*dt the run's time grid (``theta_grid``, from ``params``),
    so g1 and g2 hold n_steps + 1 values. The producing run's parameters and
    schedule digest ride along so a spectrum can be labelled.
    """

    g1: np.ndarray
    g2: np.ndarray
    params: SimParams
    schedule_digest: str

    def __post_init__(self):
        n = self.params.n_steps + 1
        for name in ("g1", "g2"):
            arr = np.array(getattr(self, name))
            if arr.shape != (n,):
                raise ValueError(f"kernel arrays must hold n_steps + 1 = {n} values")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def theta_grid(self) -> np.ndarray:
        """The lags theta_j = j*dt of g1 and g2."""
        return np.arange(self.params.n_steps + 1) * self.params.dt


@dataclass(frozen=True)
class SpectrumResult:
    """Per-frequency emission P, direct absorption P', net absorption Q = P' - P.

    ``kernel`` is the kernel the spectrum was transformed from: its
    ``params`` and ``schedule_digest`` describe the run, and its G1(0) is
    the right side of the emission sum rule.
    """

    omega: np.ndarray
    emission: np.ndarray
    direct_absorption: np.ndarray
    net_absorption: np.ndarray
    kernel: CorrelationKernel = field(repr=False, compare=False)

    def __post_init__(self):
        n = len(self.omega)
        for name in ("omega", "emission", "direct_absorption", "net_absorption"):
            arr = np.array(getattr(self, name), dtype=float)
            if len(arr) != n:
                raise ValueError("spectrum arrays must share the omega grid length")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

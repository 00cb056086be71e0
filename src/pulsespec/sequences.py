"""Pulse-schedule generators for the studied driving protocols.

Four families: no drive, periodic single-axis or alternating-axis trains,
and the nonequidistant sine-squared (Uhrig) train of X pulses.
"""

from __future__ import annotations

import math

from .core import PulseAxis, PulseEvent, PulseSchedule


def periodic_schedule(axis_pattern: list[PulseAxis], tau: float,
                      n_pulses: int) -> PulseSchedule:
    """Equidistant pulses at k*tau, k = 1..n_pulses, axes cycling the pattern.

    The observation window ends with the last pulse, window_end = n_pulses*tau.
    With pattern [X, Y] the odd-numbered pulses are X and the even-numbered Y.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    if not axis_pattern:
        raise ValueError("axis_pattern must be nonempty")
    events = tuple(
        PulseEvent(time=k * tau, axis=axis_pattern[(k - 1) % len(axis_pattern)])
        for k in range(1, n_pulses + 1)
    )
    return PulseSchedule(events=events, window_end=n_pulses * tau)


def uhrig_schedule(n_pulses: int, t_end: float) -> PulseSchedule:
    """Nonequidistant X pulses at T_j = t_end * sin^2(j*pi / (2*(n_pulses+1))).

    Pulses cluster near both ends of the window, j = 1..n_pulses.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    events = tuple(
        PulseEvent(time=t_end * math.sin(j * math.pi / (2 * (n_pulses + 1))) ** 2,
                   axis=PulseAxis.X)
        for j in range(1, n_pulses + 1)
    )
    return PulseSchedule(events=events, window_end=t_end)


def no_drive_schedule(t_end: float) -> PulseSchedule:
    """Free decay: no pulses over [0, t_end]."""
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    return PulseSchedule(events=(), window_end=t_end)

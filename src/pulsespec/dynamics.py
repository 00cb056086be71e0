"""Free evolution between pulses and instantaneous pulse maps.

The pipeline state is a plain tuple (ee, gg, ge, eg) of density-matrix
elements in the {|e>, |g>} basis: two populations and two coherences. The
X, Y and Z pi pulses only permute or negate these elements, and from the
excited start the coherences never couple to the populations, so four
numbers per grid time are all the pipeline needs.

Between pulses the drive is off, so each element obeys a decoupled linear
equation: populations exchange through spontaneous decay at rate gamma,
coherences rotate at the detuning and damp at gamma/2. One classical RK4
step of length h is therefore an elementwise multiplication by a decay and
a phase factor, the degree-4 Taylor polynomials of ``step_multipliers``.

Pulses are instantaneous conjugations rho -> sigma_i rho sigma_i. They are
applied at their exact times by splitting the enclosing grid interval,
never by snapping the pulse to the grid.

Boundary convention: evolving over a grid interval [t0, t1] applies a pulse
sitting exactly at t1 but not one sitting exactly at t0 (that one is
assumed already applied), so the state stored at a grid time that carries
a pulse is the post-pulse one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import PulseAxis, PulseSchedule, SimParams

#: fraction of dt below which two times are treated as coincident
TIME_SNAP = 1e-9


def apply_pulse(state: tuple, axis: PulseAxis) -> tuple:
    """Instantaneous pi pulse about the given axis: rho -> sigma_i rho sigma_i.

    X swaps populations and swaps the coherences; Y swaps populations and
    exchanges the coherences with a sign flip; Z is a phase kick that only
    negates the coherences. Each map is its own inverse.
    """
    ee, gg, ge, eg = state
    if axis is PulseAxis.X:
        return gg, ee, eg, ge
    if axis is PulseAxis.Y:
        return gg, ee, -eg, -ge
    if axis is PulseAxis.Z:
        return ee, gg, -ge, -eg
    raise ValueError(f"unknown pulse axis {axis!r}")


def step_multipliers(h: float, delta: float, gamma: float) -> tuple[float, complex]:
    """Per-step update factors (decay, phase) of the linear free evolution.

    Because the free equations are linear with constant coefficients, one
    classical RK4 step is elementwise multiplication:
    ee *= decay, gg += (1 - decay)*ee_old, ge *= phase, eg *= conj(phase),
    with the factors the degree-4 Taylor polynomials of e^{-gamma h} and
    e^{(i delta - gamma/2) h}; an array of detunings gives an array of phases.
    """
    z = -gamma * h
    decay = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    w = (1j * delta - 0.5 * gamma) * h
    phase = 1.0 + w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0)))
    return decay, phase


def _free_step(state: tuple, h: float, deltas, gamma: float) -> tuple:
    """One pulse-free step of length h at one detuning or an array of them."""
    ee, gg, ge, eg = state
    decay, phase = step_multipliers(h, deltas, gamma)
    return ee * decay, gg + (1.0 - decay) * ee, ge * phase, eg * phase.conjugate()


def _advance(state: tuple, t0: float, t1: float, events, dt: float,
             deltas, gamma: float) -> tuple:
    """Evolve the state over the grid interval [t0, t1] and the pulses inside it.

    Each pulse in ``events`` that falls in the interval splits it, so the
    pulse acts at its exact time. Pulses at exactly t0 are excluded, pulses
    at exactly t1 included; times within TIME_SNAP*dt coincide. One call
    serves every detuning in ``deltas``, as ``_free_step``.
    """
    snap = TIME_SNAP * dt
    cur = t0
    for ev in events:
        if ev.time <= t0 + snap or ev.time > t1 + snap:
            continue
        if ev.time - cur > snap:
            state = _free_step(state, ev.time - cur, deltas, gamma)
        state = apply_pulse(state, ev.axis)
        cur = ev.time
    if t1 - cur > snap:
        state = _free_step(state, t1 - cur, deltas, gamma)
    return state


class GridState(NamedTuple):
    """Populations on the grid t_k = k*dt and coherence maps M_d by stretches.

    From the excited start the coherences of rho stay zero. M(t) of [0, t]
    acts on (ge, eg) and is monomial: free steps multiply ge by the phase p
    and eg by conj(p), X and Y pulses swap the pair (Y with a sign), Z
    negates both. The populations ``ee``, ``gg`` do not depend on the
    detuning and are stored on the grid. The grid intervals that hold
    pulses cut the grid points into S stretches; stretch s runs from
    ``starts[s]`` up to the next start (the last one to t_N). With p_d(dt) =
    e^{rate[d] + i phase[d]}, the ge row of M_d(t_k) on stretch s has one
    nonzero entry, in column ``columns[s]`` (0 for ge, 1 for eg):
    e^{k (rate[d] + i phase[d])} coef[s, d], with |coef| near one.
    ``starts`` and ``columns`` do not depend on the detuning either;
    ``coef`` has one column, ``rate`` and ``phase`` one entry per detuning.
    """

    ee: np.ndarray
    gg: np.ndarray
    starts: np.ndarray
    columns: np.ndarray
    coef: np.ndarray
    rate: np.ndarray
    phase: np.ndarray


def grid_state(schedule: PulseSchedule, params: SimParams,
               deltas: np.ndarray | None = None) -> GridState:
    """Closed-form GridState, one pulse-free stretch of whole steps at a time.

    One pass over the stretches serves every detuning in ``deltas``
    (default: ``params.delta`` alone). Whole steps act as powers of the
    ``step_multipliers`` factors; a grid interval with pulses goes through
    one ``_advance`` call for all detunings at once. The state carried from
    one stretch to the next is (ee, gg, ge, eg) at its first grid point,
    with ``ge`` and ``eg`` the column e_ge of every M_d over |p_d(dt)|^k.
    """
    n, dt, gamma = params.n_steps, params.dt, params.gamma
    deltas = np.array([params.delta] if deltas is None else deltas, dtype=float)
    grid = params.time_grid()
    # pulse i acts in the interval (t_{m-1}, t_m], m = where[i]; pulses with
    # m = 0 (within TIME_SNAP of t = 0) or m = n + 1 never act
    where = np.searchsorted(grid + TIME_SNAP * dt, schedule.times)
    starts = np.array([0, *np.unique(where[(where > 0) & (where <= n)])])
    decay, phases = step_multipliers(dt, deltas, gamma)
    log_decay, scales, phase = math.log(decay), np.abs(phases), np.angle(phases)
    ee, gg = np.empty(n + 1), np.empty(n + 1)
    columns = np.empty(starts.size, int)
    coef = np.empty((starts.size, deltas.size), complex)
    state = (1.0, 0.0, np.ones(deltas.size, complex), np.zeros(deltas.size, complex))
    for s, (k, m) in enumerate(zip(starts, [*starts[1:], n + 1])):
        ee0, gg0, ge0, eg0 = state
        columns[s] = eg0[0] != 0
        coef[s] = (eg0.conj() if columns[s] else ge0) * np.exp(-1j * phase * k)
        j = np.arange(m - k)
        ee[k:m] = ee0 * np.exp(j * log_decay)
        gg[k:m] = gg0 - ee0 * np.expm1(j * log_decay)
        if m > n:
            break
        turn = np.exp(1j * phase * (m - 1 - k))
        inside = schedule.events[np.searchsorted(where, m):
                                 np.searchsorted(where, m, side="right")]
        ee1, gg1, ge1, eg1 = _advance((ee[m - 1], gg[m - 1], ge0 * turn, eg0 * turn.conj()),
                                      grid[m - 1], grid[m], inside, dt, deltas, gamma)
        state = (ee1, gg1, ge1 / scales, eg1 / scales)
    return GridState(ee, gg, starts, columns, coef, np.log(scales), phase)


class Trajectory(NamedTuple):
    """Populations of the density matrix on the uniform grid over [0, T].

    At a grid time that carries a pulse the stored value is the post-pulse
    one (the 0+ side of the discontinuity). The coherences are not stored:
    from the excited start they stay exactly zero.
    """

    t_grid: np.ndarray
    ee: np.ndarray
    gg: np.ndarray


def density_trajectory(schedule: PulseSchedule, params: SimParams) -> Trajectory:
    """Evolve the emitter density matrix from the occupied excited state.

    Initial condition: ee = 1 and everything else zero at t = 0.
    """
    params.check_schedule(schedule)
    s = grid_state(schedule, params)
    return Trajectory(params.time_grid(), s.ee, s.gg)

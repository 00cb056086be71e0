"""Free evolution between pulses and instantaneous pulse maps.

The state is (ee, gg, ge, eg), density-matrix elements in the {|e>, |g>}
basis: two populations and two coherences. The X, Y and Z pi pulses only
permute or negate these elements (``apply_pulse``), and from the excited
start the coherences never couple to the populations.

Between pulses the drive is off, so each element obeys a decoupled linear
equation: populations exchange through spontaneous decay at rate gamma,
coherences rotate at the detuning and damp at gamma/2. One classical RK4
step of length h is therefore an elementwise multiplication by a decay and
a phase factor, the degree-4 Taylor polynomials of ``step_multipliers``;
``stable_step`` rejects a grid step whose factors do not contract.

Pulses are instantaneous conjugations rho -> sigma_i rho sigma_i. They are
applied at their exact times by splitting the enclosing grid interval,
never by snapping the pulse to the grid; ``grid_state`` splits them all
in one scalar pass and does the rest in whole-array passes.

Boundary convention: evolving over a grid interval [t0, t1] applies a pulse
sitting exactly at t1 but not one sitting exactly at t0 (that one is
assumed already applied), so the state stored at a grid time that carries
a pulse is the post-pulse one.
"""

from __future__ import annotations

import math
from itertools import groupby
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
    return ee, gg, -ge, -eg  # Z


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


def stable_step(dt: float, deltas, gamma: float) -> tuple[float, np.ndarray]:
    """``step_multipliers`` of a grid step dt; ValueError unless 0 < decay < 1, all |phase| < 1.

    The exact factors are in (0, 1) for gamma dt, |(i delta - gamma/2) dt| <= 1: refused
    there, one has rounded to 1 (the kernel takes log decay), and a larger dt helps.
    """
    deltas = np.asarray(deltas, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        decay, phase = step_multipliers(dt, deltas, gamma)
        scale = np.abs(phase)
        if not (0.0 < decay < 1.0 and np.all(scale < 1.0)):
            short = (scale < 1.0) | (np.abs(1j * deltas - 0.5 * gamma) * dt <= 1.0)
            if (0.0 < decay < 1.0 or gamma * dt <= 1.0) and np.all(short):
                raise ValueError(f"dt={dt:g} at gamma={gamma:g} rounds an RK4 step factor to 1, "
                                 f"which the kernel cannot use; a larger dt helps")
            raise ValueError(f"dt={dt:g} is outside the RK4 stability region at gamma="
                             f"{gamma:g}, max |delta|={np.max(np.abs(deltas), initial=0.0):g}")
    return decay, phase


class GridState(NamedTuple):
    """Populations and coherence maps M_d, by pulse-free stretches.

    The grid intervals that hold pulses cut the grid points t_k = k*dt into S
    stretches, stretch s from ``starts[s]`` up to the next start (the last
    through t_N). Its row starts[s] + j holds ee = E q^j and gg = G + E (1 - q^j),
    with the heads E = ``ee[s]``, G = ``gg[s]`` and the RK4 population factor
    q = ``decay``. From the excited start the coherences of rho stay zero.
    M(t) of [0, t] acts on (ge, eg) and is monomial: free steps multiply ge by
    the phase p and eg by conj(p), X and Y pulses swap the pair (Y with a
    sign), Z negates both. With p_d(dt) = e^{rate[d] + i phase[d]}, the ge row
    of M_d(t_k) on stretch s has one nonzero entry, in column ``columns[s]``
    (0 for ge, 1 for eg): e^{k (rate[d] + i phase[d])} coef[s, d], |coef| near
    one. Only ``coef`` (a column per detuning), ``rate`` and ``phase`` depend
    on the detuning; no field grows with the step count.
    """

    ee: np.ndarray
    gg: np.ndarray
    decay: float
    starts: np.ndarray
    columns: np.ndarray
    coef: np.ndarray
    rate: np.ndarray
    phase: np.ndarray


def grid_state(schedule: PulseSchedule, params: SimParams, deltas: np.ndarray) -> GridState:
    """Closed-form GridState for every detuning in ``deltas``, which may be empty.

    One scalar pass splits the pulsed grid intervals at their pulses, carrying
    the populations and, as a signed unit (ge, eg), the column and sign of M
    through ``apply_pulse``. Then one ``step_multipliers`` call covers all
    sub-steps and detunings, one cumprod chains the stretches [k, m) by
    their interval products times e^{i phase (m - 1 - k)} / |p_d(dt)|.
    The populations stay per stretch, as heads.
    """
    n, dt, gamma = params.n_steps, params.dt, params.gamma
    snap = TIME_SNAP * dt
    deltas = np.array(deltas, dtype=float)
    decay, phases = stable_step(dt, deltas, gamma)
    log_decay, scales, phase = math.log(decay), np.abs(phases), np.angle(phases)
    # pulse i acts in the interval (t_{m-1}, t_m], m = where[i]; one past t_N
    # (T may lie window_tol from it) acts in the last, one with m = 0 (within
    # TIME_SNAP of t = 0) never
    where = np.minimum(np.searchsorted(np.arange(n + 1) * dt + snap, schedule.times), n).tolist()
    state = (1.0, 0.0, 1.0, 0.0)  # ee, gg and the signed unit coherence (ge, eg)
    starts, heads, steps, flips, firsts = [0], [state], [], [], []
    for m, group in groupby(zip(where, schedule.events), key=lambda pair: pair[0]):
        if not m:
            continue
        ee, gg, ge, eg = state
        x = (m - 1 - starts[-1]) * log_decay
        state, cur = (ee * math.exp(x), gg - ee * math.expm1(x), ge, eg), (m - 1) * dt
        firsts.append(len(steps))
        for t, axis in [*((ev.time, ev.axis) for _, ev in group), (m * dt, None)]:
            if t - cur > snap:  # free sub-step up to t
                ee, gg, ge, eg = state
                d = step_multipliers(t - cur, 0.0, gamma)[0]
                state = (ee * d, gg + (1.0 - d) * ee, ge, eg)
                steps.append(t - cur)
                flips.append(-1.0 if eg else 1.0)
            if axis is not None:
                state, cur = apply_pulse(state, axis), t
        starts.append(m)
        heads.append(state)
    starts = np.array(starts)
    ee0, gg0, ge0, eg0 = np.array(heads).T
    columns = (eg0 != 0.0).astype(int)
    # column 1 carries conj: its sub-steps run at -delta (conj p(h, delta) =
    # p(h, -delta) exactly), its turns at -phase
    _, hops = step_multipliers(np.array(steps)[:, None], np.outer(flips, deltas), gamma)
    hops = np.multiply.reduceat(hops, firsts, axis=0)
    turns = np.exp(1j * np.outer((np.diff(starts) - 1) * (1 - 2 * columns[:-1]), phase))
    v = np.ones((starts.size, deltas.size), complex)  # nonzero entry of M_d e_ge / |p_d|^k
    np.cumprod(turns * hops / scales, axis=0, out=v[1:])
    v *= (ge0 + eg0)[:, None]
    coef = np.where(columns[:, None], v.conj(), v) * np.exp(-1j * np.outer(starts, phase))
    return GridState(ee0, gg0, decay, starts, columns, coef, np.log(scales), phase)


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

    Initial condition: ee = 1 and everything else zero at t = 0. One exp/expm1
    expands the stretch heads of ``grid_state``, with q^j = e^{j ln q}, at no detuning.
    """
    params.check_schedule(schedule)
    s, n = grid_state(schedule, params, ()), params.n_steps
    at = np.repeat(np.arange(s.starts.size), np.diff(s.starts, append=n + 1))
    x = (np.arange(n + 1) - s.starts[at]) * math.log(s.decay)
    return Trajectory(np.arange(n + 1) * params.dt, s.ee[at] * np.exp(x),
                      s.gg[at] - s.ee[at] * np.expm1(x))
